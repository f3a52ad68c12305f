import hashlib
import importlib.util
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import delayrd
from delayrd import cli
from delayrd.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
    EXIT_INFEASIBLE,
    EXIT_OK,
    MAX_MARCH_STEPS,
    _load_config,
    cmd_simulate,
    main,
    read_snapshot,
    write_snapshot,
)
from delayrd.model import (
    MAX_CONTRACTION_TIMES,
    MAX_ENSEMBLE,
    MAX_SEGMENT_FLOATS,
    MAX_SPECTRAL_COUNT,
    ForcingSpec,
    Grid,
    evaluate_forcing,
    parse_config,
)
from delayrd.semigroup import field_norm


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

    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff")
    capsys.readouterr()
    assert main(["certify", "--config", str(binary), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "config error: cannot read config:" in capsys.readouterr().err

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
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_DIVERGENCE
    assert "divergence at step" in capsys.readouterr().err


@pytest.mark.parametrize("points", [512, 2048])  # rows of 512 and 2048 floats: both loops
def test_simulate_divergence_prints_one_line(tmp_path, points):
    """A diverging run says so once, with no numpy warning from the step
    arithmetic before it: march checks every new row for finiteness."""
    cfg = write_config(
        tmp_path / "cfg.json", mu=0.2, sigma=2.0,
        nonlinearity={"kind": "zero"}, forcing={"kind": "zero"},
        grid={"points": points}, run={"history_norm": 1e307},
    )
    proc = run_cli_subprocess("simulate", cfg, tmp_path / "out")
    assert (proc.returncode, proc.stderr) == (EXIT_DIVERGENCE, "divergence at step 1\n")


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

    cfg = write_config(tmp_path / "cfg.json", run={"horizon": 1.0, "snapshot_every": 0})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--snapshot-every", "8"]) == EXIT_OK  # the flag overrides the key
    snaps = sorted(out.glob("field_*.bin"))
    assert len(snaps) == 16 * 2 // 8 + 1
    vals, L, t0 = read_snapshot(str(snaps[0]))
    assert L == 16.0 and t0 == 0.0 and vals.size == 512


def test_read_snapshot_rejects_truncated_files(tmp_path):
    """A file shorter than its 32-byte header, or than the npoints values
    the header announces, is a ValueError naming the truncation (the short
    header once escaped as struct.error)."""
    path = tmp_path / "field.bin"
    write_snapshot(str(path), np.linspace(-1.0, 1.0, 64), 16.0, 2.5)
    whole = path.read_bytes()
    assert len(whole) == 32 + 8 * 64
    for size in (4, 31, 32, 32 + 8 * 63, len(whole) - 1):
        cut = tmp_path / f"cut-{size}.bin"
        cut.write_bytes(whole[:size])
        with pytest.raises(ValueError, match="truncated snapshot"):
            read_snapshot(str(cut))


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


def test_spectrum_unstable_cut_exits_3(tmp_path, capsys):
    # sigma so large the dominant root crosses zero: no splitting at m_cut=1
    cfg = write_config(tmp_path / "cfg.json", mu=0.2, sigma=3.0, lf=0.0,
                       nonlinearity={"kind": "zero"}, forcing={"kind": "zero"},
                       run={"m_cut": 1})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_INFEASIBLE
    assert capsys.readouterr().err == "infeasible: spectral splitting unavailable (rho_m >= 0)\n"
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
    # mu - sigma - 1 < 0: energy route closed, squeeze refuses and says so
    assert main(["squeeze", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_INFEASIBLE
    assert capsys.readouterr().err == ("infeasible: energy gap mu - sigma - 1 <= 0: "
                                       "c1/c4/c5 infeasible\n")


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


@pytest.mark.parametrize("name,damage", [
    ("spectrum.json", lambda text: '{"broken'),
    ("certificate.json", lambda text: "[]"),
    ("estimates.json", lambda text: text.replace('"beta":', '"beta_renamed":')),
], ids=["truncated-spectrum", "list-certificate", "estimates-without-beta"])
def test_report_malformed_artifact_exits_2(tmp_path, capsys, name, damage):
    """A damaged artifact once left `report` with a JSONDecodeError,
    AttributeError or KeyError (exit 1).  It is exit 2, named on stderr,
    and neither summary file is written."""
    cfg = feasible_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_OK
    (out / name).write_text(damage((out / name).read_text()))
    assert main(["report", "--dir", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"malformed artifact {name}: ")
    assert not (out / "summary.csv").exists()
    assert not (out / "summary.txt").exists()


@pytest.mark.parametrize("damage", ["truncated-spectrum", "missing-estimates",
                                    "edited-certificate", "truncated-manifest",
                                    "nested-manifest"])
def test_report_exit_2_removes_the_previous_summary(tmp_path, damage):
    """A summary written before an artifact was damaged once stayed on disk
    after `report` exited 2.  Every exit-2 path removes both files."""
    cfg = feasible_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert main(["report", "--dir", str(out)]) == EXIT_OK
    assert (out / "summary.csv").exists() and (out / "summary.txt").exists()
    if damage == "truncated-spectrum":
        (out / "spectrum.json").write_text('{"broken')
    elif damage == "missing-estimates":
        (out / "estimates.json").unlink()
    elif damage == "truncated-manifest":
        (out / "manifest.json").write_text('{"payload_sha256"')
    elif damage == "nested-manifest":  # once a RecursionError from json.loads, exit 1
        (out / "manifest.json").write_text("[" * 100_000 + "]" * 100_000)
    else:
        text = (out / "certificate.json").read_text()
        (out / "certificate.json").write_text(text.replace('"feasible": true', '"feasible": false'))
    assert main(["report", "--dir", str(out)]) == EXIT_CONFIG
    assert not (out / "summary.csv").exists()
    assert not (out / "summary.txt").exists()


def test_report_refuses_an_artifact_edited_after_the_run(tmp_path, capsys):
    """An artifact whose bytes differ from manifest.json's payload_sha256 was
    once summarized with exit 0.  It is exit 2, named on stderr, and no
    summary is written; without a manifest nothing is compared."""
    cfg = feasible_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_OK
    spectrum = out / "spectrum.json"
    text, count = re.subn(r'"k_m": \d+,', '"k_m": 99,', spectrum.read_text(), count=1)
    assert count == 1
    spectrum.write_text(text)
    capsys.readouterr()
    assert main(["report", "--dir", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("malformed artifact spectrum.json: "
                                       "sha256 differs from manifest.json\n")
    assert not (out / "summary.csv").exists()
    assert not (out / "summary.txt").exists()

    (out / "manifest.json").unlink()
    assert main(["report", "--dir", str(out)]) == EXIT_OK
    assert "splitting: k_m=99 " in (out / "summary.txt").read_text()


@pytest.mark.parametrize("under", [False, True], ids=["file", "path-under-file"])
@pytest.mark.parametrize("subcommand", ["certify", "simulate", "spectrum", "squeeze"])
def test_out_on_an_existing_file_exits_2(tmp_path, capsys, subcommand, under):
    """An --out naming an existing file, or a path under one, once left
    through os.makedirs with FileExistsError or NotADirectoryError (exit 1).
    It is a configuration error, and the file is left as it was."""
    cfg = feasible_config(tmp_path / "cfg.json")
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken / "run" if under else taken
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: cannot create output directory")
    assert taken.read_text() == "not a directory\n"


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
PERFBENCH_CONFIGS = CONFIGS.parent / "perfbench" / "configs"


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    """`main` builds its parser once per process.  A call that exits 2 on
    bad arguments leaves it usable, and a flag of one call does not reach
    the next: ``--snapshot-every`` goes to that simulate call alone."""
    cfg = str(CONFIGS / "base.json")
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--config", cfg, "--snapshot-every", "five"])
    assert info.value.code == EXIT_CONFIG
    assert "invalid int value: 'five'" in capsys.readouterr().err
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "spectrum")]) == EXIT_OK

    flags = []
    load = cli._load_config
    monkeypatch.setattr(cli, "_load_config", lambda path, **kw: flags.append(kw) or load(path, **kw))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "five"),
                 "--snapshot-every", "5", "--seed", "3"]) == EXIT_OK
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "certify")]) == EXIT_INFEASIBLE
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "plain")]) == EXIT_OK
    assert flags == [{"seed": 3, "snapshot_every": 5}, {"seed": None, "snapshot_every": None},
                     {"seed": None, "snapshot_every": None}]
    assert len(list((tmp_path / "five").glob("field_*.bin"))) == 96 // 5 + 1  # steps 0 .. 96
    assert not list((tmp_path / "plain").glob("field_*.bin"))  # base.json: snapshot_every 0
    assert cli._build_parser() is cli._build_parser()


def test_repeated_certify_sweeps_write_the_same_bytes(tmp_path):
    """Two in-process passes of certify + report over the seven certify-sweep
    configs, through one cached parser and one template memo, write the
    same files byte for byte into the same directories (manifest.json up to
    its timestamp)."""
    def sweep():
        files = {}
        for i in range(7):
            out = tmp_path / f"certify-{i}"
            main(["certify", "--config", str(PERFBENCH_CONFIGS / f"certify-sweep-{i}.json"),
                  "--out", str(out)])
            assert main(["report", "--dir", str(out)]) == EXIT_OK
            for path in sorted(out.iterdir()):
                text = path.read_bytes()
                if path.name == "manifest.json":
                    text = re.sub(rb'"generated_at": "[^"]*"', b"", text)
                files[path.relative_to(tmp_path)] = text
        return files

    first = sweep()
    assert len(first) == 7 * 6 and first == sweep()


# payload_sha256 of each run at the config seed, or at the --seed a key's
# third entry names, on x86-64 Linux with Python 3.11 and numpy 2.4; FFT
# rounding on another platform or numpy build may legitimately move them.
# Every spectrum.json hash dates from the root search as one (mode, branch)
# array pass: numpy's complex division and exp/log round some roots
# differently from cmath, by at most 2.2e-16 relative (1125 of the 7728
# roots of the 11 shipped configs), while rho_1, rho_m, k_m, the group
# multiplicities, the complete flags and K_m kept their bytes.  The
# simulate hashes date from the march in coefficient space (one rfft of an
# interval's loads, one irfft of its rows, the steps on the coefficients in
# between): it rounds the transforms in other places than the per-step
# S(dt), which moved norms.csv by at most 4e-14 and the far-field masses by
# at most 1.5e-10 relative (the smallest tails, far below the eps they are
# checked against).  The certify-sweep-0
# certificate and estimates (perfbench/configs, 48 modes) were hashed with
# the two-pass JSON writer (sanitize, then json.dumps) before the one-pass
# writer replaced it.  The certify-sweep-1 to -6 entries were hashed before
# the certificate search took the contraction factors once per t0 and the
# dichotomy summed per-sample norms by reduceat; sweep-1 and sweep-4 are the
# points whose K_m depends on the flow, and sweep-6 is infeasible.  The
# squeeze hashes date from one march form for every row size (squeeze's
# groups of 8 x 512 floats had stepped in physical space), P/Q/R norms taken
# a block of rows at a time from the nodes inside and outside Omega_K, and
# eigenmode bumps formed as one (S + 1, k) @ (k, P) product: all three round
# differently, which moved contraction.csv by at most 6.9e-14 and the worst
# ratios in squeeze.json by at most 9.4e-15 relative.
GOLDEN = {
    ("simulate", "base"): (EXIT_OK, {
        "farfield.csv": "a13ddfdfed991ef907da584916d8421e0570e501650a7760c6ddc7cabc8ee8b8",
        "farfield_check.json": "7dabcc492eefac49071010499ada8e0e53121e69b270460e437f94346d5f6e1c",
        "norms.csv": "3ca6b88a7fbbeb541c676e893dade30c265c0f29842a1d79cc66dc83380cb32d",
    }),
    ("simulate", "certify"): (EXIT_OK, {
        "farfield.csv": "063a9e93be1d5e116c3eda4384153997278e05a8cc99b50d394a1e729ac0a724",
        "farfield_check.json": "5fef8e1bd8fa50dcb1e371862b4088bb18f54827f3faa1631b83a9fd1b7e4c9d",
        "norms.csv": "c8a1053f9b6c08a5bcacae8e4aca317bef543699642bc36d0c42eb7a3cf135fb",
    }),
    ("certify", "base"): (EXIT_INFEASIBLE, {
        "certificate.json": "5832ac9c450fd391b7c0ee64d9f16adf22632d87774037ba8464ab3ad7489394",
        "estimates.json": "e37ce4de7c507efd98c85eccd325ae9fa7e74b233e4d39a2355abf0d66d89376",
        "spectrum.json": "5885e8a01276e3eab56fd5ef134f6dddd48175d5ebdcc7c49392f9fa4bdc149a",
    }),
    ("certify", "certify"): (EXIT_OK, {
        "certificate.json": "753b64d3bffca41181e23fb2701d9c60d9b2434c6856713a3ea4cc9b11c51c38",
        "estimates.json": "87edeb7cc97fb0af199dc4121c936e76a24ba987f57185cb01344aecc1feb756",
        "spectrum.json": "ad1b86e06574ad3270198790e73d2f4e6e8acf9b058ce662b6451b00e198f51b",
    }),
    ("squeeze", "base"): (EXIT_OK, {
        "contraction.csv": "28426dbeabd81d778bc327839b84c8784caac9f628d08a10cf720c431cd00800",
        "squeeze.json": "89b403278222a8f4d4c2d07702331375ba02af3ed5163561466755faa1df58cc",
    }),
    ("squeeze", "certify"): (EXIT_OK, {
        "contraction.csv": "f671ddd4e5863d0bd718749ed43f609b75432ad36f10705c74e9f7e1d811cf6b",
        "squeeze.json": "8b5efd8fd2e952ee16aa766ba51968605ba047ce67e66cbaed138a386aedc898",
    }),
    ("certify", "certify-sweep-0"): (EXIT_OK, {
        "certificate.json": "753b64d3bffca41181e23fb2701d9c60d9b2434c6856713a3ea4cc9b11c51c38",
        "estimates.json": "87edeb7cc97fb0af199dc4121c936e76a24ba987f57185cb01344aecc1feb756",
        "spectrum.json": "b4d9b9f90744bfd4c861272645b2dcba410977f1584d4cbd1642130e3bc3dfd6",
    }),
    ("certify", "certify-sweep-1"): (EXIT_OK, {
        "certificate.json": "be41cb77f205a6d8cede1484d55949f7071ad7d75339ef4f6937254a8954a204",
        "estimates.json": "a5d7b0960dff537d2eb2fcae8da3decb62aa1d3cd4cd715cd9ab569887151ece",
        "spectrum.json": "7265c70179a3cd87ebf1f322d675d04bbd9935482437f5f75dbc78d83b4a0f58",
    }),
    ("certify", "certify-sweep-2"): (EXIT_OK, {
        "certificate.json": "22dfd4b50198fa6c199866dcb2c20928d15bfcadd220e52dc2ec726908a76257",
        "estimates.json": "1a587edd1076012b71f234a9ab26f30e7a8b9509600e61074dffab84a2f2f689",
        "spectrum.json": "9143c9d7838eed81deb90d7299f94b15be1a274afd38d951bb5a3903b7789389",
    }),
    ("certify", "certify-sweep-3"): (EXIT_OK, {
        "certificate.json": "ac706d616d42d38093c7c8265eec6e200e175c668ada331a33e7c20022afb447",
        "estimates.json": "3d26f197808de9f4622874e857aa7993ac48fa7785087de153c89d33fae6cacf",
        "spectrum.json": "1b3f32a5675277b3d5327e11845ca1f20bb0c2627c0b244775dcb9fff6eb3f4e",
    }),
    ("certify", "certify-sweep-4"): (EXIT_OK, {
        "certificate.json": "78edc2557f9991498fc31ce8afc5eb55637eea46061361dbb0e217c1f147db01",
        "estimates.json": "3a2361df7d816b4c14e4a120b16aabc2d337b36e50894c7e10fa176eabc85420",
        "spectrum.json": "39a6c78b212c6a6be480278fe467ee51e07616064ce5e413b349e393f6c9e812",
    }),
    ("certify", "certify-sweep-5"): (EXIT_OK, {
        "certificate.json": "93d31a5bfa13eb825b9e9f383d83ca7f3a4459dfd3c313e63adfb6d4f391376e",
        "estimates.json": "6287c9973b39b5020805dbc5a16e5b9f5ac5643fd9f9d05fa2a59e8840e47b3c",
        "spectrum.json": "2c5d71ad91fa3dbc7e298979e14f3117e1dd84990c5e0a010a1d0c6858c595bf",
    }),
    ("certify", "certify-sweep-6"): (EXIT_INFEASIBLE, {
        "certificate.json": "a58608dd661946569c1523d3f27002aa146e450a692b128996d1c1e3e1ec95b4",
        "estimates.json": "73d1b05927ed21e6bc8285e3bb00042ec1732def8317a1d249fabe7e47ea0e58",
        "spectrum.json": "22079c797382b2e7f040ed1eb91b071a5eca824c5bf0986c0bddb0c1e746ca44",
    }),
    ("spectrum", "base", "7"): (EXIT_OK, {
        "spectrum.json": "c0407b4013b99d80dbf56fe53db8106e3ddebe3e481fe7cfdc9a80551f978d27",
    }),
    ("spectrum", "certify", "7"): (EXIT_OK, {
        "spectrum.json": "e1de867c8f61580a2e2931801c8cf361805864a60fabd5709ee5fba865268d96",
    }),
}


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=["-".join(key) for key in sorted(GOLDEN)])
def test_golden_payload_hashes(tmp_path, key):
    exit_code, payload = GOLDEN[key]
    subcommand, config, *seed = key
    out = tmp_path / "out"
    path = CONFIGS / f"{config}.json"
    if not path.exists():
        path = PERFBENCH_CONFIGS / f"{config}.json"
    seed_args = ["--seed", *seed] if seed else []
    assert main([subcommand, "--config", str(path), "--out", str(out), *seed_args]) == exit_code
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["payload_sha256"] == payload
    if seed:  # --seed overrides the config's seed 11 and is recorded
        assert manifest["seed"] == int(*seed)


def test_golden_squeeze_across_groups(tmp_path):
    """configs/base.json with ensemble 9: nine pairs, which once marched as
    four full groups of pairs plus a partial one.  Both files were hashed
    again, with the squeeze entries of GOLDEN and for the same reasons, when
    every group came to march in coefficient space (groups of four pairs,
    8 x 512 floats, had stepped in physical space), the P/Q/R norms came a
    block of rows at a time and the eigenmode bumps as one product.  Groups
    of two pairs and then one pair at a time kept both hashes: each row is
    stepped and reduced alone, so the batch width moves no byte."""
    text = (CONFIGS / "base.json").read_text()
    assert '"ensemble": 3' in text
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text.replace('"ensemble": 3', '"ensemble": 9'))
    out = tmp_path / "out"
    assert main(["squeeze", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["payload_sha256"] == {
        "contraction.csv": "55979ed75c69d42b67931878a70ae490105de31b1f7d4d5404cded2cfd99a4a2",
        "squeeze.json": "3fee8cd9abb6ac3d4ea8b80224a11b602ad9ba906344dcf9f51c45f0b9b128bf",
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
    ('"mu": 2.0', '"mu": ' + "[" * 100_000 + "]" * 100_000),
], ids=["nan", "infinity", "float-overflow", "int-overflow", "horizon-type",
        "seed-type", "seed-negative", "no-dichotomy-samples", "amplitude-type",
        "mu-tau-overflow-mu", "mu-tau-overflow-tau", "cutoff-radius-L/4",
        "steps-per-delay-fraction", "ensemble-fraction", "points-fraction",
        "history-norm-negative", "points-2^60", "segment-beyond-cap",
        "snapshot-every-negative", "steps-per-delay-bool", "kind-type",
        "contraction-times-empty", "nested-100000-deep"])
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
    ("certify", '"modes": 8', f'"modes": {MAX_SPECTRAL_COUNT + 1}', MAX_SPECTRAL_COUNT),
    ("spectrum", '"modes": 8', f'"modes": {MAX_SPECTRAL_COUNT + 1}', MAX_SPECTRAL_COUNT),
    ("squeeze", '"modes": 8', f'"modes": {MAX_SPECTRAL_COUNT + 1}', MAX_SPECTRAL_COUNT),
    ("certify", '"dichotomy_samples": 8', f'"dichotomy_samples": {MAX_SPECTRAL_COUNT + 1}',
     MAX_SPECTRAL_COUNT),
    ("spectrum", '"dichotomy_samples": 8', f'"dichotomy_samples": {MAX_SPECTRAL_COUNT + 1}',
     MAX_SPECTRAL_COUNT),
    ("squeeze", '"ensemble": 3', f'"ensemble": {MAX_ENSEMBLE + 1}', MAX_ENSEMBLE),
    ("squeeze", '"contraction_times": [0.5, 1.0]',
     f'"contraction_times": {[0.5] * (MAX_CONTRACTION_TIMES + 1)}', MAX_CONTRACTION_TIMES),
    ("simulate", '"points": 512', f'"points": {2**60}', MAX_MARCH_STEPS),
    ("certify", '"points": 512', f'"points": {2**60}', MAX_MARCH_STEPS),
    ("simulate", '"steps_per_delay": 16', f'"steps_per_delay": {2**60}', MAX_MARCH_STEPS),
    ("simulate", '"horizon": 3.0,\n    "steps_per_delay": 16',
     f'"horizon": 0,\n    "steps_per_delay": {2**20}', MAX_SEGMENT_FLOATS),
    ("simulate", '"points": 512', f'"points": {2**20}', MAX_SEGMENT_FLOATS),
], ids=["certify-tau-1e-300", "spectrum-tau-1e-300", "certify-modes", "spectrum-modes",
        "squeeze-modes", "certify-dichotomy-samples", "spectrum-dichotomy-samples",
        "squeeze-ensemble", "squeeze-contraction-times", "simulate-points-2^60",
        "certify-points-2^60", "simulate-steps-per-delay-2^60", "simulate-segment-steps",
        "simulate-segment-points"])
def test_loop_sizes_beyond_cap_exit_2(tmp_path, subcommand, old, new, cap):
    """configs/base.json with a loop the config sizes set past its cap.
    MAX_MARCH_STEPS: tau = 1e-300 asks for about 1e302 dichotomy steps, and
    2**60 points asked numpy for an array it refuses.  MAX_SPECTRAL_COUNT:
    spectrum's time and memory grow linearly in the modes and the dichotomy
    samples, so one past the cap (4,096; 65,536 modes once took 1.3 GB)
    exits.  MAX_ENSEMBLE and MAX_CONTRACTION_TIMES: squeeze holds pairs x
    times x 10 floats (10**30 pairs once grew a Python list until memory
    ran out), so one pair or one time past its cap exits.  A history
    segment of (steps_per_delay + 1) * points floats is capped at
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
                                   repr([(MAX_MARCH_STEPS + 1) * 0.5 / 16]),
                                   "[-1e-13]", "[1e307]", repr([3.000001 * 0.5 / 16])])
def test_squeeze_rejects_bad_contraction_times(tmp_path, times):
    """dt = 0.5 / 16 on configs/base.json: 0.3 and 3.000001 steps are off
    the grid, -0.5 is negative and so is -1e-13, though it rounds to step
    0; 1e300, one step past the cap and 1e307 (whose t / dt overflows to
    inf) are too far; all are configuration errors found before
    integrating."""
    text = (CONFIGS / "base.json").read_text()
    assert '"contraction_times": [0.5, 1.0]' in text
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text.replace('"contraction_times": [0.5, 1.0]',
                                f'"contraction_times": {times}'))
    proc = run_cli_subprocess("squeeze", cfg, tmp_path / "out")
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("config error:"), proc.stderr
    assert "contraction_times" in proc.stderr


def test_squeeze_accepts_contraction_time_zero(tmp_path):
    """t = 0 is the first point of the grid: each difference is compared
    with itself, inside every bound."""
    text = (CONFIGS / "base.json").read_text()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text.replace('"contraction_times": [0.5, 1.0]', '"contraction_times": [0.0]'))
    proc = run_cli_subprocess("squeeze", cfg, tmp_path / "out")
    assert proc.returncode == EXIT_OK, proc.stderr


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
            assert cmd_simulate(str(cfg), str(tmp_path / f"out-{horizon}"),
                                *_load_config(str(cfg), seed=0)) == EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2.0)  # warm-up: first-call caches are not part of the trend
    assert peak(20.0) <= 1.25 * peak(2.0)


def load_tracing():
    """perfbench/tracing.py, loaded from its file (it is not a package)."""
    path = CONFIGS.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def lookup(module, attr):
    """The object a tracer pin names: ``attr`` of ``delayrd.<module>``, or a
    method from the class's own ``__dict__`` for "Class.method"."""
    owner = importlib.import_module(f"delayrd.{module}")
    if "." in attr:
        cls, attr = attr.split(".")
        return getattr(owner, cls).__dict__[attr]
    return getattr(owner, attr)


def test_tracer_pins_resolve():
    """Every (module, attribute) pair in perfbench/tracing.py's TARGETS
    names something in delayrd, so moving or deleting one of those names
    fails here instead of in ``perfbench/run.py --trace 1``."""
    places = [place for _, places, _ in load_tracing().TARGETS for place in places]
    missing = []
    for module, attr in places:
        try:
            lookup(module, attr)
        except (AttributeError, KeyError):
            missing.append(f"{module}.{attr}")
    assert places and not missing, missing


def test_tracer_finds_every_name_it_patches():
    """perfbench/tracing.py patches module names by lookup, some of them
    imported only for it (``# noqa: F401``); dropping one would break
    ``--trace 1`` with an AttributeError.  Install and uninstall the tracer
    and check that every name is back afterwards."""
    tracing = load_tracing()
    places = [place for _, places, _ in tracing.TARGETS for place in places]
    before = {place: lookup(*place) for place in places}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(lookup(*place) is not before[place] for place in places)
    finally:
        tracer.uninstall()
    assert {place: lookup(*place) for place in places} == before


@pytest.mark.parametrize("subcommand, config, stage", [
    ("simulate", "base", "cli.ensemble_draw"),
    ("squeeze", "base", "squeezing.measure_contraction"),
    ("certify", "certify", "dimension.optimize_certificate"),
], ids=["simulate-base", "squeeze-base", "certify-certify"])
def test_traced_runs_write_the_same_payloads(tmp_path, subcommand, config, stage):
    """With perfbench/tracing.py's tracer installed, a run exits as an
    untraced one does and writes the same payload hashes, so the patched
    names and the counter recorders (which read the objects the patched
    functions return) keep working with the functions' current types."""
    def run(out):
        code = main([subcommand, "--config", str(CONFIGS / f"{config}.json"), "--out", str(out)])
        return code, json.loads((out / "manifest.json").read_text())["payload_sha256"]

    plain = run(tmp_path / "plain")
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        traced = run(tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert traced == plain
    assert {"cli.atomic_write", stage} <= {span[0] for span in tracer.spans}


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


@pytest.mark.parametrize("radius", ["1e-3", "1e-6"])
@pytest.mark.parametrize("subcommand", ["certify", "spectrum", "squeeze"])
def test_incomplete_spectrum_exits_3(tmp_path, capsys, subcommand, radius):
    """At K = 1e-3 or 1e-6 no mode's roots pass the residual gate, yet
    spectrum and certify once exited 0 on them, certify with a feasible
    certificate (sampled K_m 8.8e32 or 2.1e102): certificate_ok read only
    rho_m < 0.  An incomplete spectrum gets no K_m and is infeasible."""
    cfg = certify_config_with(tmp_path / "cfg.json", '"cutoff_radius": 3.0',
                              f'"cutoff_radius": {radius}')
    out = tmp_path / "out"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    if subcommand == "squeeze":
        assert err == ("infeasible: mode 1: characteristic roots incomplete "
                       "(residual above 1e-10)\n")
        assert not out.exists()
        return
    if subcommand == "spectrum":
        assert err == ("infeasible: mode 1: characteristic roots incomplete "
                       "(residual above 1e-10)\n")
    spec = json.loads((out / "spectrum.json").read_text())
    assert spec["rho_m"] < 0 and spec["certificate_ok"] is False
    assert spec["K_m"] is None and "dichotomy" not in spec
    assert not any(mode["complete"] for mode in spec["modes"])
    if subcommand == "certify":
        cert = json.loads((out / "certificate.json").read_text())
        assert cert == {"diagnostics": ["mode 1: characteristic roots incomplete "
                                        "(residual above 1e-10)"], "feasible": False}
        assert "infeasible: mode 1:" in err


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
    assert capsys.readouterr().err.startswith("config error: run.snapshot_every")
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


# one built config per standing hypothesis of the dimension certificates,
# edited from configs/certify.json, with the diagnostic certify gives for it
GATE_FAILURES = {
    "beta-at-least-mu": ('"sigma": 0.1', '"sigma": 3.0', "dissipativity condition"),
    "no-energy-gap": ('"mu": 6.0', '"mu": 1.05', "energy gap mu - sigma - 1 <= 0"),
    "incomplete-spectrum": ('"cutoff_radius": 3.0', '"cutoff_radius": 1e-3',
                            "characteristic roots incomplete"),
}
SHIPPED_CONFIGS = {path.stem: path for path in (*sorted(CONFIGS.glob("*.json")),
                                                *sorted(PERFBENCH_CONFIGS.glob("*.json")))}


@pytest.mark.parametrize("case", [*SHIPPED_CONFIGS, *GATE_FAILURES])
def test_certify_and_squeeze_refuse_the_same_configs(tmp_path, capsys, case):
    """certify searches the dimension certificates and squeeze measures
    only when the run's standing hypotheses hold, read from one gate: squeeze
    exits 3 without an output directory exactly when certify's
    certificate.json holds no search, and then prints certify's
    ``infeasible:`` lines, one per failed hypothesis.  spectrum checks only
    the spectral hypotheses (rho_m < 0, every mode complete): it exits 3
    exactly when it prints a line, and its lines are certify's spectral
    lines, in order."""
    if case in GATE_FAILURES:
        old, new, diagnostic = GATE_FAILURES[case]
        cfg = certify_config_with(tmp_path / "cfg.json", old, new)
    else:
        cfg = str(SHIPPED_CONFIGS[case])
    certified, squeezed = tmp_path / "certify", tmp_path / "squeeze"
    main(["certify", "--config", cfg, "--out", str(certified)])
    certify_err = capsys.readouterr().err.splitlines()
    cert = json.loads((certified / "certificate.json").read_text())
    refused = (main(["squeeze", "--config", cfg, "--out", str(squeezed)]) == EXIT_INFEASIBLE
               and not squeezed.exists())
    squeeze_err = capsys.readouterr().err.splitlines()
    assert refused == ("hausdorff" not in cert)
    if refused:
        assert squeeze_err == certify_err == [f"infeasible: {line}" for line in cert["diagnostics"]]
    if case in GATE_FAILURES:
        assert refused and any(diagnostic in line for line in cert["diagnostics"])
    code = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "spectrum")])
    spectral = [line for line in certify_err
                if line.startswith(("infeasible: spectral splitting", "infeasible: mode "))]
    assert capsys.readouterr().err.splitlines() == spectral
    assert code == (EXIT_INFEASIBLE if spectral else EXIT_OK)
    if case == "incomplete-spectrum":
        assert spectral == ["infeasible: mode 1: characteristic roots incomplete "
                            "(residual above 1e-10)"]


@pytest.mark.parametrize("seed", [0, 2])
def test_squeeze_out_of_bounds_names_each_part(tmp_path, capsys, seed):
    """squeeze-pairs breaks the P bound at seeds 0 and 2 (worst ratios 1.43
    and 1.09): squeeze exits 3 with one ``infeasible:`` line per part over
    1 + CERTIFICATE_TOLERANCE, naming its worst ratio, time and pair (in
    draw order, from 1), on stderr only; stdout stays empty."""
    out = tmp_path / "out"
    assert main(["squeeze", "--config", str(PERFBENCH_CONFIGS / "squeeze-pairs.json"),
                 "--out", str(out), "--seed", str(seed)]) == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads((out / "squeeze.json").read_text())
    assert doc["within_bounds"] is False and doc["zero_difference"] == 0
    over = [part for part in "PQR" if doc[f"worst_ratio_{part}"] > 1.05]
    assert over == ["P"]
    rows = [line.split(",") for line in (out / "contraction.csv").read_text().splitlines()[1:]]
    lines = captured.err.splitlines()
    assert len(lines) == len(over)
    for part, line in zip(over, lines):
        match = re.fullmatch(rf"infeasible: measured/bound {part} (\S+) > 1\.05 "
                             r"at t = (\S+) \(pair (\d+)\)", line)
        assert match, line
        ratio, t, pair = float(match[1]), float(match[2]), int(match[3])
        assert ratio == float(f"{doc[f'worst_ratio_{part}']:.4g}")
        col = 1 + 2 * "PQR".index(part)
        (row,) = [r for r in rows[(pair - 1) * len(doc["times"]):pair * len(doc["times"])]
                  if float(r[0]) == t]
        assert float(row[col]) / float(row[col + 1]) == doc[f"worst_ratio_{part}"]


@pytest.mark.parametrize("subcommand", ["certify", "simulate", "spectrum", "squeeze"])
def test_negative_seed_flag_fails_the_run_seed_rule(tmp_path, capsys, subcommand):
    """--seed replaces run.seed before the run options are checked, so it
    fails with the config key's own rule and nothing is written."""
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(CONFIGS / "base.json"), "--out", str(out),
                 "--seed", "-1"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: run.seed must be nonnegative")
    assert not out.exists()


def test_seed_is_a_64_bit_integer(tmp_path, capsys):
    """run.seed runs from 0 to 2**64 - 1: one past the top fails the key's
    rule and writes nothing, and the top itself runs and is recorded."""
    cfg = str(CONFIGS / "base.json")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out),
                 "--seed", "18446744073709551616"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: run.seed must be")
    assert not out.exists()
    assert main(["spectrum", "--config", cfg, "--out", str(out),
                 "--seed", "18446744073709551615"]) == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["seed"] == 2**64 - 1


@pytest.mark.parametrize("kind", ["gaussian_bump", "compact_bump"])
def test_estimates_do_not_move_with_the_forcing_centre(tmp_path, kind):
    """certify's constants use ||g|| over the whole line, which a translation
    keeps.  On configs/certify.json (L = 16) the box's grid norm of a bump at
    15.5 was once 14% (Gaussian) or 5% (compact) below the bump at 0, and so
    were c3, c1, c4, c5 and T_D.  estimates.json is the same bytes for a
    bump anywhere in the box, cut by its edge or not."""
    base = (CONFIGS / "certify.json").read_text()
    texts = set()
    for center in (0.0, -9.75, 15.5, -15.9):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(base.replace('"forcing": {"kind": "gaussian_bump", "amplitude": 0.5}',
                                    f'"forcing": {{"kind": "{kind}", "amplitude": 0.5, '
                                    f'"center": {center}}}'))
        out = tmp_path / f"out-{center}"
        assert main(["certify", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        texts.add((out / "estimates.json").read_text())
    (text,) = texts
    assert f'"norm_g": {cli._forcing_norm(ForcingSpec(kind=kind, amplitude=0.5))!r},' in text


@pytest.mark.parametrize("center,width", [(0.0, 1.0), (15.5, 1.0), (-3.3, 2.5), (0.0, 30.0)])
@pytest.mark.parametrize("kind", ["gaussian_bump", "compact_bump"])
def test_forcing_norm_matches_a_grid_sum_on_a_larger_box(kind, center, width):
    """The closed forms A (w sqrt(pi))^(1/2) and A (w I)^(1/2) against the
    grid L2 norm on a box 16 times as long as configs/certify.json's
    (L = 256) at an eighth of its spacing (h = 1/128), where neither the
    box nor the spacing cuts a bump of these widths by 1e-13."""
    forcing = ForcingSpec(kind=kind, amplitude=-0.6, center=center, width=width)
    grid = Grid(half_length=256.0, points=2**15)
    box = field_norm(evaluate_forcing(forcing, grid.nodes), grid)
    assert cli._forcing_norm(forcing) == pytest.approx(box, rel=1e-13, abs=0.0)
