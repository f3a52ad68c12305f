import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import delayrd
from delayrd.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
    EXIT_INFEASIBLE,
    EXIT_OK,
    main,
    read_snapshot,
    write_snapshot,
)


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

# payload_sha256 of each run at the config seed, generated with the segment
# loops (one materialized segment per step) and the squeeze thread pool, on
# x86-64 Linux with Python 3.11 and numpy 2.4; FFT rounding on another
# platform or numpy build may legitimately move them.
GOLDEN = {
    ("simulate", "base"): (EXIT_OK, {
        "farfield.csv": "ff7542332be4f15b98baa3f3cf8ebb0b18b884c4202bc44299da014d6571ad43",
        "farfield_check.json": "0ed13c1bc6884ed8f8f378e14a4dc14a95f07a690e5a336a3639adefae1cc457",
        "norms.csv": "f96f9f7df66a950d21d751d8fc9a4c8c6f321802f25ccbf4897239facb0ca1c0",
    }),
    ("simulate", "certify"): (EXIT_OK, {
        "farfield.csv": "857d87c078556fd9ecf14a9ba0f4618d56a060b42290625984db5d24f2b6c4ba",
        "farfield_check.json": "82fcfbc97aeebc9cec0504b6034eb58ad8a73f909a3502efde414345b9443a8b",
        "norms.csv": "197aa23ede11939a0645279e798b7f1c7862e170739781552c6ada53fddba857",
    }),
    ("certify", "base"): (EXIT_INFEASIBLE, {
        "certificate.json": "5832ac9c450fd391b7c0ee64d9f16adf22632d87774037ba8464ab3ad7489394",
        "estimates.json": "e37ce4de7c507efd98c85eccd325ae9fa7e74b233e4d39a2355abf0d66d89376",
        "spectrum.json": "ec0ac202926f107b284dee50f791fea1eee6be5796014fd27737d515950b8dc3",
    }),
    ("certify", "certify"): (EXIT_OK, {
        "certificate.json": "753b64d3bffca41181e23fb2701d9c60d9b2434c6856713a3ea4cc9b11c51c38",
        "estimates.json": "87edeb7cc97fb0af199dc4121c936e76a24ba987f57185cb01344aecc1feb756",
        "spectrum.json": "6cfcd3e1095a9d2fcb635e03f7fe5b6d3ef2280f9f9c68c0fca95779d141e819",
    }),
    ("squeeze", "base"): (EXIT_OK, {
        "contraction.csv": "f52de95be7d2b8e5328b287034309b482339af28a04955cfff61a17e22ad9fc6",
        "squeeze.json": "98b00dab44c33c6635f636f2ad3dd2bc3ed892f1917b10bbb767456a33ce8da6",
    }),
    ("squeeze", "certify"): (EXIT_OK, {
        "contraction.csv": "25f6e2ee845e3eb324bf91638751a67b51be829fba9174d7955896641c6bd1da",
        "squeeze.json": "debdc5fce22f84b2d2298c7b94def3a527064e7143c93ec4fd4354e1d7460a6c",
    }),
}


@pytest.mark.parametrize("subcommand,config", sorted(GOLDEN), ids="-".join)
def test_golden_payload_hashes(tmp_path, subcommand, config):
    exit_code, payload = GOLDEN[subcommand, config]
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(CONFIGS / f"{config}.json"),
                 "--out", str(out)]) == exit_code
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["payload_sha256"] == payload


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
], ids=["nan", "infinity", "float-overflow", "int-overflow", "horizon-type",
        "seed-type", "seed-negative", "no-dichotomy-samples", "amplitude-type"])
def test_bad_config_exits_2_without_hanging(tmp_path, old, new):
    """Run in a subprocess with a timeout, so an input that makes the
    pipeline spin fails the test instead of hanging the suite."""
    cfg = tmp_path / "cfg.json"
    text = pathlib.Path(write_config(cfg)).read_text()
    assert old in text
    cfg.write_text(text.replace(old, new))
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(delayrd.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "delayrd.cli", "certify", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("config error:")
