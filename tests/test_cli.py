import hashlib
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import delayrd
from delayrd.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
    EXIT_INFEASIBLE,
    EXIT_OK,
    MAX_MARCH_STEPS,
    cmd_simulate,
    main,
    read_snapshot,
    write_snapshot,
)
from delayrd.model import MAX_SEGMENT_FLOATS, parse_config


def write_config(path, **overrides):
    doc = {
        "mu": 2.0,
        "sigma": 0.1,
        "tau": 0.5,
        "lf": 1.0,
        "nonlinearity": {"kind": "scaled_tanh", "scale": 1.0},
        "forcing": {"kind": "gaussian_bump", "amplitude": 0.75},
        "grid": {"half_length": 16.0, "points": 512},
        "run": {
            "horizon": 3.0,
            "steps_per_delay": 16,
            "cutoff_radius": 3.0,
            "modes": 8,
            "m_cut": 3,
            "seed": 11,
            "ensemble": 3,
            "contraction_times": [0.5, 1.0],
            "dichotomy_samples": 8,
            "history_norm": 1.0,
        },
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key].update(value)
        else:
            doc[key] = value
    path.write_text(json.dumps(doc))
    return str(path)


def feasible_config(path):
    """A parameter set whose tail rate is negative, so every certificate
    closes: mu large against sigma, lf and the delay."""
    return write_config(
        path, mu=6.0, sigma=0.1, tau=0.1, lf=0.5,
        nonlinearity={"kind": "scaled_tanh", "scale": 0.5},
        forcing={"kind": "gaussian_bump", "amplitude": 0.5},
        run={"horizon": 2.0, "steps_per_delay": 16, "contraction_times": [0.5]},
    )


def test_certify_feasible_writes_artifacts(tmp_path):
    cfg = feasible_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_OK

    for name in ("estimates.json", "spectrum.json", "certificate.json", "manifest.json"):
        assert (out / name).exists()

    cert = json.loads((out / "certificate.json").read_text())
    assert cert["feasible"] is True
    assert cert["diagnostics"] == []
    assert cert["hausdorff"]["feasible"] and cert["fractal"]["feasible"]

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "certify"
    assert manifest["seed"] == 11
    for name, digest in manifest["payload_sha256"].items():
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert actual == digest
    assert "manifest.json" not in manifest["payload_sha256"]


def test_certify_infeasible_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")  # mu=2: positive tail rate
    out = tmp_path / "out"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert "infeasible" in err
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["feasible"] is False
    assert cert["diagnostics"]

    # inf values are serialized as strings, keeping the JSON standard
    est = json.loads((out / "estimates.json").read_text())
    assert est["c4_alt"] == "inf"
    assert est["dissipativity_condition"] == "sigma*(L_f+1)*exp(mu*tau) - mu < 0"


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"mu": 2.0, "sigma": 0.1, "tau": 0.5, "lf": 1.0, "bogus": 1}')
    assert main(["certify", "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "bogus" in capsys.readouterr().err

    missing = str(tmp_path / "nope.json")
    assert main(["certify", "--config", missing, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    cfg = write_config(tmp_path / "cfg.json")
    assert main(["certify", "--config", cfg, "--seed", "-1",
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_simulate_outputs_and_determinism(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", run={"horizon": 2.0})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == EXIT_OK

    norms = (out1 / "norms.csv").read_text()
    assert norms.splitlines()[0] == "t,norm_u,farfield_mass"
    assert norms == (out2 / "norms.csv").read_text()
    assert (out1 / "farfield.csv").read_bytes() == (out2 / "farfield.csv").read_bytes()

    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["payload_sha256"] == m2["payload_sha256"]

    # rows cover the whole horizon on the dt grid
    rows = norms.splitlines()[1:]
    assert len(rows) == 2 * 16 * 2 + 1  # horizon / dt + 1
    assert float(rows[0].split(",")[0]) == 0.0


def test_simulate_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", run={"horizon": 1.0})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["simulate", "--config", cfg, "--seed", "123", "--out", str(out2)]) == EXIT_OK
    assert json.loads((out2 / "manifest.json").read_text())["seed"] == 123
    assert (out1 / "norms.csv").read_text() != (out2 / "norms.csv").read_text()


def test_simulate_divergence_exits_4(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json", mu=0.2, sigma=2.0,
        nonlinearity={"kind": "zero"}, forcing={"kind": "zero"},
        run={"horizon": 8.0, "history_norm": 1e307},
    )
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_DIVERGENCE
    assert "divergence at step" in capsys.readouterr().err


def test_snapshot_roundtrip_and_cli_snapshots(tmp_path):
    values = np.linspace(-1.0, 1.0, 64)
    path = tmp_path / "field.bin"
    write_snapshot(str(path), values, 16.0, 2.5)
    got, half_length, t = read_snapshot(str(path))
    np.testing.assert_array_equal(got, values)
    assert (half_length, t) == (16.0, 2.5)

    with pytest.raises(ValueError, match="snapshot"):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"XXXX" + b"\0" * 32)
        read_snapshot(str(bad))

    cfg = write_config(tmp_path / "cfg.json", run={"horizon": 1.0})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--snapshot-every", "8"]) == EXIT_OK
    snaps = sorted(out.glob("field_*.bin"))
    assert len(snaps) == 16 * 2 // 8 + 1
    vals, L, t0 = read_snapshot(str(snaps[0]))
    assert L == 16.0 and t0 == 0.0 and vals.size == 512


def test_spectrum_command(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_OK
    doc = json.loads((out / "spectrum.json").read_text())
    assert doc["certificate_ok"] is True
    assert doc["k_m"] >= 3
    assert doc["K_m"] > 0
    assert doc["dichotomy"]["K_m"] == doc["K_m"]
    assert len(doc["modes"]) == 8
    assert all(m["complete"] for m in doc["modes"])


def test_spectrum_unstable_cut_exits_3(tmp_path):
    # sigma so large the dominant root crosses zero: no splitting at m_cut=1
    cfg = write_config(tmp_path / "cfg.json", mu=0.2, sigma=3.0, lf=0.0,
                       nonlinearity={"kind": "zero"}, forcing={"kind": "zero"},
                       run={"m_cut": 1})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_INFEASIBLE
    doc = json.loads((out / "spectrum.json").read_text())
    assert doc["certificate_ok"] is False
    assert doc["rho_m"] >= 0
    assert doc["K_m"] is None


def test_squeeze_within_bounds(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["squeeze", "--config", cfg, "--out", str(out)]) == EXIT_OK

    csv = (out / "contraction.csv").read_text().splitlines()
    assert csv[0] == "t,measured_P,bound_P,measured_Q,bound_Q,measured_R,bound_R"
    assert len(csv) == 1 + 3 * 2  # ensemble pairs x contraction times

    doc = json.loads((out / "squeeze.json").read_text())
    assert doc["within_bounds"] is True
    assert doc["pairs"] == 3 and doc["times"] == [0.5, 1.0]
    for part in ("P", "Q", "R"):
        assert 0.0 < doc[f"worst_ratio_{part}"] <= 1.05


def test_squeeze_parallel_matches_serial(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    serial, threaded = tmp_path / "s", tmp_path / "p"
    assert main(["squeeze", "--config", cfg, "--out", str(serial)]) == EXIT_OK
    assert main(["squeeze", "--config", cfg, "--out", str(threaded),
                 "--parallel", "4"]) == EXIT_OK
    assert (serial / "contraction.csv").read_bytes() == (threaded / "contraction.csv").read_bytes()
    assert (serial / "squeeze.json").read_bytes() == (threaded / "squeeze.json").read_bytes()


def test_squeeze_rejects_unsplit_configuration(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", mu=1.05, sigma=0.1)
    # mu - sigma - 1 < 0: energy route closed, squeeze refuses
    assert main(["squeeze", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_INFEASIBLE
    assert "requires" in capsys.readouterr().err


def test_report_merges_artifacts(tmp_path):
    cfg = feasible_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert main(["report", "--dir", str(out)]) == EXIT_OK

    assert (out / "summary.csv").exists()
    text = (out / "summary.txt").read_text()
    assert "certification summary" in text
    assert "hausdorff" in text and "fractal" in text

    rows = (out / "summary.csv").read_text().splitlines()
    assert rows[0].startswith("certificate,feasible,bound")
    assert len(rows) == 3


def test_report_missing_artifacts_exits_2(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(["report", "--dir", str(empty)]) == EXIT_CONFIG
    assert "estimates.json" in capsys.readouterr().err


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
PERFBENCH_CONFIGS = CONFIGS.parent / "perfbench" / "configs"

# payload_sha256 of each run at the config seed, on x86-64 Linux with
# Python 3.11 and numpy 2.4; FFT rounding on another platform or numpy build
# may legitimately move them.  The two spectrum.json hashes date from the
# switch to Lambert W roots, which moved root values in the last ulp; the
# simulate hashes from the pairwise (layout-independent) tail-mass sum, which
# moved the far-field masses by at most 4e-15 relative.  The certify-sweep-0
# entry (perfbench/configs, 48 modes, a 212 kB spectrum.json) was hashed with
# the two-pass JSON writer (sanitize, then json.dumps) before the one-pass
# writer replaced it.
GOLDEN = {
    ("simulate", "base"): (EXIT_OK, {
        "farfield.csv": "5291a61eb1c9cb9cc6006e026aa9c52c1702942781649ebf9591b6249d20b269",
        "farfield_check.json": "06fda6ba88cb7d31dfba31740500f4c467daea1e1852df4dc536a681cba79b75",
        "norms.csv": "ee5dd9c5d7fd00fbecf633e6f2e09295be9f9f3171cc21f4c547cce64f508f98",
    }),
    ("simulate", "certify"): (EXIT_OK, {
        "farfield.csv": "9effbb74b16df95f6906d779780acfc041df0120523b6b79e42c0e352cc479aa",
        "farfield_check.json": "81584f4eae972430f0b6417eedfef5bd7c9ec0f2462f24a9311c6524823c963a",
        "norms.csv": "2adf632666f97988d5a5778a0380f282f50959cb527c9c6eed5cc534b48e14fd",
    }),
    ("certify", "base"): (EXIT_INFEASIBLE, {
        "certificate.json": "5832ac9c450fd391b7c0ee64d9f16adf22632d87774037ba8464ab3ad7489394",
        "estimates.json": "e37ce4de7c507efd98c85eccd325ae9fa7e74b233e4d39a2355abf0d66d89376",
        "spectrum.json": "49794655476ff65820a2b854195bb576aec42488698c6e3b6e9d51138e334315",
    }),
    ("certify", "certify"): (EXIT_OK, {
        "certificate.json": "753b64d3bffca41181e23fb2701d9c60d9b2434c6856713a3ea4cc9b11c51c38",
        "estimates.json": "87edeb7cc97fb0af199dc4121c936e76a24ba987f57185cb01344aecc1feb756",
        "spectrum.json": "a8af2dab7ae964e3e6c7d4015f123b819634ba54166275860c2f0f3524746dbb",
    }),
    ("squeeze", "base"): (EXIT_OK, {
        "contraction.csv": "f52de95be7d2b8e5328b287034309b482339af28a04955cfff61a17e22ad9fc6",
        "squeeze.json": "98b00dab44c33c6635f636f2ad3dd2bc3ed892f1917b10bbb767456a33ce8da6",
    }),
    ("squeeze", "certify"): (EXIT_OK, {
        "contraction.csv": "25f6e2ee845e3eb324bf91638751a67b51be829fba9174d7955896641c6bd1da",
        "squeeze.json": "debdc5fce22f84b2d2298c7b94def3a527064e7143c93ec4fd4354e1d7460a6c",
    }),
    ("certify", "certify-sweep-0"): (EXIT_OK, {
        "certificate.json": "753b64d3bffca41181e23fb2701d9c60d9b2434c6856713a3ea4cc9b11c51c38",
        "estimates.json": "87edeb7cc97fb0af199dc4121c936e76a24ba987f57185cb01344aecc1feb756",
        "spectrum.json": "6a24729a2f1a74fdb913218262d4951a99e7f3c6002cf0647f2c3da93a7730f3",
    }),
}


@pytest.mark.parametrize("subcommand,config", sorted(GOLDEN),
                         ids=["-".join(key) for key in sorted(GOLDEN)])
def test_golden_payload_hashes(tmp_path, subcommand, config):
    exit_code, payload = GOLDEN[subcommand, config]
    out = tmp_path / "out"
    path = CONFIGS / f"{config}.json"
    if not path.exists():
        path = PERFBENCH_CONFIGS / f"{config}.json"
    assert main([subcommand, "--config", str(path), "--out", str(out)]) == exit_code
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["payload_sha256"] == payload


def test_golden_squeeze_across_groups(tmp_path):
    """configs/base.json with ensemble 9: two full groups of pairs plus a
    partial one.  Hashes made before squeeze marched pairs in groups, when
    each pair was integrated on its own, on the platform noted at GOLDEN."""
    text = (CONFIGS / "base.json").read_text()
    assert '"ensemble": 3' in text
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text.replace('"ensemble": 3', '"ensemble": 9'))
    out = tmp_path / "out"
    assert main(["squeeze", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["payload_sha256"] == {
        "contraction.csv": "d1067d5aca9399f8b0f024529a99ba6b27266ddaf96309ed95edb2284ea51364",
        "squeeze.json": "6747c844361ba3fc17abb907b81cf8bc7c6ce8db1861cb3394b60d45e99e7e0f",
    }


@pytest.mark.parametrize("old,new", [
    ('"mu": 2.0', '"mu": NaN'),
    ('"mu": 2.0', '"mu": Infinity'),
    ('"mu": 2.0', '"mu": 1e999'),
    ('"mu": 2.0', '"mu": 1' + "0" * 400),
    ('"horizon": 3.0', '"horizon": "x"'),
    ('"seed": 11', '"seed": "abc"'),
    ('"seed": 11', '"seed": -1'),
    ('"dichotomy_samples": 8', '"dichotomy_samples": 0'),
    ('"amplitude": 0.75', '"amplitude": "big"'),
    ('"mu": 2.0', '"mu": 1e300'),
    ('"tau": 0.5', '"tau": 1e300'),
    ('"cutoff_radius": 3.0', '"cutoff_radius": 4.0'),
    ('"steps_per_delay": 16', '"steps_per_delay": 16.7'),
    ('"ensemble": 3', '"ensemble": 2.5'),
    ('"points": 512', '"points": 512.5'),
    ('"history_norm": 1.0', '"history_norm": -1'),
    ('"points": 512', f'"points": {2**60}'),
    ('"steps_per_delay": 16', f'"steps_per_delay": {2**20}'),
    ('"seed": 11', '"seed": 11, "snapshot_every": -5'),
    ('"steps_per_delay": 16', '"steps_per_delay": true'),
    ('"kind": "scaled_tanh"', '"kind": ["scaled_tanh"]'),
    ('"contraction_times": [0.5, 1.0]', '"contraction_times": []'),
], ids=["nan", "infinity", "float-overflow", "int-overflow", "horizon-type",
        "seed-type", "seed-negative", "no-dichotomy-samples", "amplitude-type",
        "mu-tau-overflow-mu", "mu-tau-overflow-tau", "cutoff-radius-L/4",
        "steps-per-delay-fraction", "ensemble-fraction", "points-fraction",
        "history-norm-negative", "points-2^60", "segment-beyond-cap",
        "snapshot-every-negative", "steps-per-delay-bool", "kind-type",
        "contraction-times-empty"])
def test_bad_config_exits_2_without_hanging(tmp_path, old, new):
    """Run in a subprocess with a timeout, so an input that makes the
    pipeline spin fails the test instead of hanging the suite."""
    cfg = tmp_path / "cfg.json"
    text = pathlib.Path(write_config(cfg)).read_text()
    assert old in text
    cfg.write_text(text.replace(old, new))
    proc = run_cli_subprocess("certify", cfg, tmp_path / "out")
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("config error:")


def run_cli_subprocess(subcommand, cfg, out):
    """The CLI in a fresh interpreter, killed after 60 s."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(delayrd.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "delayrd.cli", subcommand, "--config", str(cfg),
         "--out", str(out)],
        capture_output=True, text=True, timeout=60, env=env)


@pytest.mark.parametrize("subcommand,old,new,cap", [
    ("certify", '"tau": 0.5', '"tau": 1e-300', MAX_MARCH_STEPS),
    ("spectrum", '"tau": 0.5', '"tau": 1e-300', MAX_MARCH_STEPS),
    ("certify", '"modes": 8', f'"modes": {10**30}', MAX_MARCH_STEPS),
    ("spectrum", '"modes": 8', f'"modes": {10**30}', MAX_MARCH_STEPS),
    ("squeeze", '"modes": 8', f'"modes": {10**30}', MAX_MARCH_STEPS),
    ("certify", '"dichotomy_samples": 8', f'"dichotomy_samples": {10**30}', MAX_MARCH_STEPS),
    ("spectrum", '"dichotomy_samples": 8', f'"dichotomy_samples": {10**30}', MAX_MARCH_STEPS),
    ("squeeze", '"ensemble": 3', f'"ensemble": {10**30}', MAX_MARCH_STEPS),
    ("simulate", '"points": 512', f'"points": {2**60}', MAX_MARCH_STEPS),
    ("certify", '"points": 512', f'"points": {2**60}', MAX_MARCH_STEPS),
    ("simulate", '"steps_per_delay": 16', f'"steps_per_delay": {2**60}', MAX_MARCH_STEPS),
    ("simulate", '"horizon": 3.0,\n    "steps_per_delay": 16',
     f'"horizon": 0,\n    "steps_per_delay": {2**20}', MAX_SEGMENT_FLOATS),
    ("simulate", '"points": 512', f'"points": {2**20}', MAX_SEGMENT_FLOATS),
], ids=["certify-tau-1e-300", "spectrum-tau-1e-300", "certify-modes", "spectrum-modes",
        "squeeze-modes", "certify-dichotomy-samples", "spectrum-dichotomy-samples",
        "squeeze-ensemble", "simulate-points-2^60", "certify-points-2^60",
        "simulate-steps-per-delay-2^60", "simulate-segment-steps", "simulate-segment-points"])
def test_loop_sizes_beyond_cap_exit_2(tmp_path, subcommand, old, new, cap):
    """configs/base.json with a loop the config sizes set far past
    MAX_MARCH_STEPS: tau = 1e-300 asks for about 1e302 dichotomy steps, and
    10**30 modes, dichotomy samples or pairs once grew a Python list until
    memory ran out; 2**60 points asked numpy for an array it refuses.  A
    history segment of (steps_per_delay + 1) * points floats is capped at
    MAX_SEGMENT_FLOATS: 2**20 steps per delay on 512 points once asked for
    4 GiB with a zero horizon.  All are configuration errors found before
    the work."""
    text = (CONFIGS / "base.json").read_text()
    assert old in text
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text.replace(old, new))
    proc = run_cli_subprocess(subcommand, cfg, tmp_path / "out")
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("config error:"), proc.stderr
    assert str(cap) in proc.stderr


def test_config_parsed_once_per_call(tmp_path, monkeypatch):
    """Without --seed the seed comes from the config parse the subcommand
    makes anyway, not from a second one."""
    calls = []

    def counting_parse(text):
        calls.append(text)
        return parse_config(text)

    monkeypatch.setattr("delayrd.cli.parse_config", counting_parse)
    assert main(["certify", "--config", str(CONFIGS / "certify.json"),
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(calls) == 1


def certify_config_with(path, old, new):
    text = (CONFIGS / "certify.json").read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    return str(path)


@pytest.mark.parametrize("sigma", ["50", "1e300"])
@pytest.mark.parametrize("subcommand", ["certify", "spectrum", "squeeze"])
def test_huge_sigma_exits_3_without_hanging(tmp_path, subcommand, sigma):
    """The root search once looped without end on sigma = 1e300."""
    cfg = certify_config_with(tmp_path / "cfg.json", '"sigma": 0.1', f'"sigma": {sigma}')
    proc = run_cli_subprocess(subcommand, cfg, tmp_path / "out")
    assert proc.returncode == EXIT_INFEASIBLE, proc.stderr


@pytest.mark.parametrize("edits", [
    (('"mu": 2.0', '"mu": 70'), ('"tau": 0.5', '"tau": 10'), ('"sigma": 0.1', '"sigma": 1e-300'),
     ('"contraction_times": [0.5, 1.0]', '"contraction_times": [10.0]')),
    (('"sigma": 0.1', '"sigma": 1e-30'), ('"modes": 8', '"modes": 3')),
], ids=["no-root", "none-beyond-cut"])
@pytest.mark.parametrize("subcommand", ["certify", "spectrum", "squeeze"])
def test_no_root_in_window_exits_3(tmp_path, subcommand, edits):
    """Too few roots in the window to split the spectrum is infeasible, not
    a crash.  With mu = 70, tau = 10 and a tiny sigma every real root lies
    left of Re = -50/tau (the contraction time moves onto the new dt =
    10/16 grid); with sigma = 1e-30 only the real roots stay in the
    window, and with modes = m_cut = 3 none lies beyond the cut."""
    text = (CONFIGS / "base.json").read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    proc = run_cli_subprocess(subcommand, cfg, tmp_path / "out")
    assert proc.returncode == EXIT_INFEASIBLE, proc.stderr
    assert proc.stderr.startswith("infeasible:"), proc.stderr


@pytest.mark.parametrize("times", ["[0.3]", "[-0.5]", "[0.5, 0.3]", "[1e300]",
                                   repr([(MAX_MARCH_STEPS + 1) * 0.5 / 16])])
def test_squeeze_rejects_bad_contraction_times(tmp_path, times):
    """dt = 0.5 / 16 on configs/base.json: 0.3 is off the grid, -0.5 is
    negative, 1e300 and one step past the cap are too far; all are
    configuration errors found before integrating."""
    text = (CONFIGS / "base.json").read_text()
    assert '"contraction_times": [0.5, 1.0]' in text
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text.replace('"contraction_times": [0.5, 1.0]',
                                f'"contraction_times": {times}'))
    proc = run_cli_subprocess("squeeze", cfg, tmp_path / "out")
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("config error:"), proc.stderr
    assert "contraction_times" in proc.stderr


@pytest.mark.parametrize("horizon", ["1e9", "1e300", repr((MAX_MARCH_STEPS + 1) * 0.5 / 16)],
                         ids=["1e9", "1e300", "cap-plus-one-step"])
def test_simulate_rejects_horizon_beyond_cap(tmp_path, horizon):
    """dt = 0.5 / 16 on configs/base.json.  simulate keeps no trajectory, so
    only the step cap stops these from marching for days; they are
    configuration errors found before the output directory is made."""
    text = (CONFIGS / "base.json").read_text()
    assert '"horizon": 3.0' in text
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text.replace('"horizon": 3.0', f'"horizon": {horizon}'))
    proc = run_cli_subprocess("simulate", cfg, tmp_path / "out")
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("config error:"), proc.stderr
    assert "horizon" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_simulate_memory_does_not_grow_with_horizon(tmp_path):
    """simulate reduces the rows of the march S at a time, so its traced
    peak holds O(S P) floats plus O(N) scalars, not the (N + 1) x P
    trajectory: ten times the horizon may cost at most a quarter more."""
    doc = json.loads((PERFBENCH_CONFIGS / "simulate-farfield.json").read_text())
    doc["run"]["snapshot_every"] = 0

    def peak(horizon):
        doc["run"]["horizon"] = horizon
        cfg = tmp_path / f"cfg-{horizon}.json"
        cfg.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            assert cmd_simulate(str(cfg), 0, str(tmp_path / f"out-{horizon}")) == EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2.0)  # warm-up: first-call caches are not part of the trend
    assert peak(20.0) <= 1.25 * peak(2.0)


def test_tracer_finds_every_name_it_patches():
    """perfbench/tracing.py patches module names by lookup, some of them
    imported only for it (``# noqa: F401``); dropping one would break
    ``--trace 1`` with an AttributeError.  Install and uninstall the tracer
    and check that every name is back afterwards."""
    path = CONFIGS.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    def lookup(module, attr):
        owner = importlib.import_module(f"delayrd.{module}")
        if "." in attr:
            cls, attr = attr.split(".")
            return getattr(owner, cls).__dict__[attr]
        return getattr(owner, attr)

    places = [place for _, places, _ in tracing.TARGETS for place in places]
    before = {place: lookup(*place) for place in places}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(lookup(*place) is not before[place] for place in places)
    finally:
        tracer.uninstall()
    assert {place: lookup(*place) for place in places} == before


def test_dominant_root_right_of_old_window(tmp_path):
    """With sigma = 50 the real root of mode 1 is about 10.77, right of the
    Re <= 5 edge the root search once had; it must still be rho1."""
    cfg = certify_config_with(tmp_path / "cfg.json", '"sigma": 0.1', '"sigma": 50')
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_INFEASIBLE
    doc = json.loads((out / "spectrum.json").read_text())
    # bisection on h(x) = x + a - sigma e^{-x tau}, with h(-a) < 0 < h(sigma)
    a, sigma, tau = 6.0 + (math.pi / 6.0) ** 2, 50.0, 0.1
    lo, hi = -a, sigma
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid + a - sigma * math.exp(-mid * tau) > 0:
            hi = mid
        else:
            lo = mid
    assert doc["rho1"] == pytest.approx(0.5 * (lo + hi), rel=1e-12)
    assert doc["rho1"] > 10.0
    assert doc["certificate_ok"] is False


@pytest.mark.parametrize("old,new,codes", [
    ('"mu": 6.0', '"mu": 50', (EXIT_OK, EXIT_OK, EXIT_INFEASIBLE)),
    ('"mu": 6.0', '"mu": 700', (EXIT_INFEASIBLE, EXIT_OK, EXIT_INFEASIBLE)),
    ('"mu": 6.0,\n  "sigma": 0.1,\n  "tau": 0.1', '"mu": 700,\n  "sigma": 0.1,\n  "tau": 1',
     (EXIT_INFEASIBLE, EXIT_OK, EXIT_INFEASIBLE)),
], ids=["mu-50", "mu-700", "mu-700-tau-1"])
def test_large_mu_exits_cleanly(tmp_path, old, new, codes):
    """mu = 50 once divided by an underflowed exponential in eta, and a
    complex root at the cut once made certificate_ok a numpy bool that the
    JSON writer rejected."""
    cfg = certify_config_with(tmp_path / "cfg.json", old, new)
    for subcommand, code in zip(("certify", "spectrum", "squeeze"), codes):
        out = tmp_path / subcommand
        assert main([subcommand, "--config", cfg, "--out", str(out)]) == code, subcommand
        for artifact in out.glob("*.json"):
            json.loads(artifact.read_text())


@pytest.mark.parametrize("old,new", [('"points": 512', '"points": 8'),
                                     ('"half_length": 16.0', '"half_length": 1e300')],
                         ids=["points-8", "half-length-1e300"])
def test_squeeze_too_few_nodes_inside_exits_2(tmp_path, capsys, old, new):
    """k_m = 3 sine modes need 3 grid nodes inside (-K, K); a coarse grid
    or a huge box leaves one.  k_m is known only after the spectrum, so this
    is found in squeeze, not at parse time."""
    text = (CONFIGS / "base.json").read_text()
    assert old in text
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text.replace(old, new))
    assert main(["squeeze", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "nodes inside" in err, err


@pytest.mark.parametrize("radius", ["1e-8", "1e-200"])
@pytest.mark.parametrize("subcommand", ["certify", "spectrum", "squeeze"])
def test_tiny_cutoff_radius_exits_3(tmp_path, capsys, subcommand, radius):
    """K = 1e-8 makes exp(-lambda tau) overflow while a root of mode 3 is
    polished; K = 1e-200 overflows the eigenvalue (m pi/(2K))^2 itself.
    Either is infeasible, with the mode named."""
    text = (CONFIGS / "base.json").read_text()
    assert '"cutoff_radius": 3.0' in text
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text.replace('"cutoff_radius": 3.0', f'"cutoff_radius": {radius}'))
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "out")]) \
        == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("infeasible: mode "), err


@pytest.mark.parametrize("subcommand,radius,code", [
    pytest.param(subcommand, radius, code, id=f"{prefix}{case}")
    for subcommand, prefix in (("certify", ""), ("spectrum", "spectrum-"), ("squeeze", "squeeze-"))
    for radius, code, case in (("1e-8", EXIT_INFEASIBLE, "root-overflow-exit-3"),
                               ("4.0", EXIT_CONFIG, "cut-at-L/4-exit-2"))])
def test_certify_spectral_failure_writes_nothing(tmp_path, subcommand, radius, code):
    """A certify run that fails in its spectral stage once left an
    estimates.json with no manifest to hash it, which `report` then
    refused, and spectrum and squeeze left an empty output directory; the
    spectral stage now runs before the output directory is made."""
    text = (CONFIGS / "base.json").read_text()
    assert '"cutoff_radius": 3.0' in text
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text.replace('"cutoff_radius": 3.0', f'"cutoff_radius": {radius}'))
    out = tmp_path / "out"
    proc = run_cli_subprocess(subcommand, cfg, out)
    assert proc.returncode == code, proc.stderr
    assert not (out / "estimates.json").exists()
    assert not out.exists()


def test_negative_snapshot_every_flag_exits_2(tmp_path, capsys):
    """A negative stride once wrote no snapshots and exited 0."""
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(CONFIGS / "base.json"), "--out", str(out),
                 "--snapshot-every", "-5"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: --snapshot-every")
    assert not out.exists()


def test_integer_literal_in_float_key_is_stored_as_float(tmp_path):
    """Float keys store float(v): "history_norm": 1 writes "norm_D": 1.0,
    so estimates.json is the golden one written from "history_norm": 1.0."""
    cfg = certify_config_with(tmp_path / "cfg.json", '"history_norm": 1.0', '"history_norm": 1')
    out = tmp_path / "out"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert '"norm_D": 1.0,' in (out / "estimates.json").read_text()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["payload_sha256"] == GOLDEN["certify", "certify"][1]
