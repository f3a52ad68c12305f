"""Property tests for the configuration schema: no JSON document makes
``parse_config`` fail other than by ConfigError, no edit of a schema key
makes a subcommand leave through anything but its documented exit codes,
and no damaged artifact makes `report` leave other than by 0 or 2."""

import contextlib
import copy
import io
import json
import pathlib
import shutil
import tempfile
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delayrd.cli import EXIT_CONFIG, EXIT_DIVERGENCE, EXIT_INFEASIBLE, EXIT_OK, main
from delayrd.model import (
    ConfigError,
    ForcingSpec,
    Grid,
    NonlinearitySpec,
    ProblemParameters,
    RunOptions,
    parse_config,
    serialize_config,
)

BASE = pathlib.Path(__file__).resolve().parents[1] / "configs" / "base.json"
CERTIFY = BASE.with_name("certify.json")
SECTIONS = {"nonlinearity": NonlinearitySpec, "forcing": ForcingSpec, "grid": Grid,
            "run": RunOptions}
# (section or None for the top level, key), every key the schema knows
SCHEMA_KEYS = [(None, f.name) for f in fields(ProblemParameters)] + [(None, "grid"), (None, "run")] \
    + [(section, f.name) for section, cls in SECTIONS.items() for f in fields(cls)]
PALETTE = [0, -1, 16.7, 1e-300, 1e-8, 1e300, 2**60, 10**30, True, None, "x", [], {}]
# Python type of each annotation, as the parser must store it
STORED = {"float": float, "int": int, "str": str}
# JSON nested deeper than the parser's recursion limit, which json.dumps and
# copy.deepcopy cannot build either: `config_text` writes it where `edited`
# put the DEEP placeholder
NESTED = "[" * 100_000 + "]" * 100_000
DEEP = "<JSON array nested 100000 deep>"

leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=8),
                   st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(PALETTE))
json_values = st.recursive(
    leaves,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=12,
)
paths = st.one_of(st.sampled_from(SCHEMA_KEYS),
                  st.tuples(st.sampled_from([None, *SECTIONS]), st.text(max_size=8)))


def edited(doc: dict, edits) -> dict:
    """``doc`` with each (section, key) set to its value; an edit inside a
    section that an earlier edit replaced by a non-object is skipped."""
    doc = copy.deepcopy(doc)
    for (section, key), value in edits:
        target = doc if section is None else doc.setdefault(section, {})
        if isinstance(target, dict):
            target[key] = copy.deepcopy(value)  # the palette's [] and {} are shared
    return doc


def config_text(doc: dict) -> str:
    return json.dumps(doc).replace(json.dumps(DEEP), NESTED)


def assert_stored_types(obj) -> None:
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type in STORED:
            assert type(value) is STORED[f.type], (f.name, value)
        elif f.type == "tuple[float, ...]":
            assert value and all(type(t) is float for t in value), (f.name, value)
        else:  # a nested section
            assert_stored_types(value)


@settings(max_examples=300, deadline=2000, derandomize=True, database=None)
@given(st.one_of(
    json_values.map(json.dumps),
    st.lists(st.tuples(paths, json_values), min_size=1, max_size=4).map(
        lambda edits: json.dumps(edited(json.loads(BASE.read_text()), edits))),
    st.text(max_size=40),
))
@example('{"mu": 2, "sigma": 0.1, "tau": 0.5, "lf": 1, "run": {"history_norm": 1}}')
def test_parse_config_returns_typed_triple_or_config_error(text):
    """Any text either parses to a triple whose fields hold their annotated
    types, and which survives a serialize/parse round trip, or raises
    ConfigError; nothing else escapes."""
    try:
        triple = parse_config(text)
    except ConfigError:
        return
    for part in triple:
        assert_stored_types(part)
    assert parse_config(serialize_config(*triple)) == triple


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in numpy on edge values
@settings(max_examples=400, deadline=10000, derandomize=True, database=None)
@given(st.lists(st.tuples(st.sampled_from(SCHEMA_KEYS), st.sampled_from(PALETTE)),
                min_size=1, max_size=3))
@example([(("grid", "points"), 2**60)])
@example([(("run", "cutoff_radius"), 1e-8)])
@example([(("grid", "half_length"), 1e300)])
@example([((None, "sigma"), 1e-30), (("run", "cutoff_radius"), 0.3927), (("run", "m_cut"), 1)])
@example([((None, "mu"), 200), ((None, "tau"), 0.01)])  # eta underflows to 0 at t0 = 20
@example([((None, "mu"), 200), ((None, "tau"), 0.05), ((None, "sigma"), 1e-5)])  # bR overflows
@example([((None, "mu"), 20), ((None, "tau"), 0.05), ((None, "lf"), 10)])  # bR overflows
@example([((None, "mu"), DEEP)])  # once a RecursionError from json.loads, exit 1
def test_cli_exits_through_documented_codes(edits):
    """configs/base.json with one to three schema keys set from a palette
    of edge values: every subcommand returns 0, 2, 3 or 4, and every exit 3
    names its cause: at least one stderr line, each ``infeasible: ...``."""
    doc = edited(json.loads(BASE.read_text()), edits)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = pathlib.Path(tmp) / "cfg.json"
        cfg.write_text(config_text(doc))
        for subcommand in ("certify", "spectrum", "simulate", "squeeze"):
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = main([subcommand, "--config", str(cfg), "--out", f"{tmp}/{subcommand}"])
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_DIVERGENCE), subcommand
            if code == EXIT_INFEASIBLE:
                lines = err.getvalue().splitlines()
                assert lines and all(line.startswith("infeasible: ") for line in lines), \
                    (subcommand, lines)


REPORT_ARTIFACTS = ("estimates.json", "spectrum.json", "certificate.json")
# the keys `report` reads, at the top level or inside a certificate
REPORT_KEYS = ["dissipative", "beta", "dissipativity_condition", "c3", "norm_D", "T_D",
               "k_m", "rho1", "rho_m", "K_m", "hausdorff", "fractal", "diagnostics",
               "feasible", "hausdorff_bound", "fractal_bound", "t0", "alpha", "beta_free",
               "eta", "zeta"]
DELETE = object()
artifact_edits = st.lists(
    st.tuples(st.one_of(st.tuples(st.sampled_from(REPORT_KEYS)),
                        st.tuples(st.sampled_from(["hausdorff", "fractal"]),
                                  st.sampled_from(REPORT_KEYS))),
              st.one_of(st.just(DELETE), json_values)),
    min_size=1, max_size=3)


@pytest.fixture(scope="module")
def certify_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("certify")
    assert main(["certify", "--config", str(CERTIFY), "--out", str(out)]) == EXIT_OK
    return out


def damaged_text(text: str, damage) -> str:
    """``damage`` itself if it is text; otherwise the JSON document ``text``
    with each edit (a key path, then a value or DELETE) applied where the
    path still leads into an object."""
    if isinstance(damage, str):
        return damage
    doc = json.loads(text)
    for path, value in damage:
        target = doc
        for key in path[:-1]:
            target = target.get(key) if isinstance(target, dict) else None
        if not isinstance(target, dict):
            continue
        if value is DELETE:
            target.pop(path[-1], None)
        else:
            target[path[-1]] = copy.deepcopy(value)
    return json.dumps(doc)


@settings(max_examples=300, deadline=2000, derandomize=True, database=None)
@given(st.sampled_from(REPORT_ARTIFACTS),
       st.one_of(json_values.map(json.dumps), st.text(max_size=40), artifact_edits))
@example("spectrum.json", '{"broken')
@example("certificate.json", "[]")
@example("estimates.json", [(("beta",), DELETE)])
@example("spectrum.json", NESTED)  # once a RecursionError from json.loads, exit 1
def test_report_exits_0_or_2_on_a_damaged_artifact(certify_run, name, damage):
    """A real certify directory with one artifact replaced by any JSON
    value, any text, or the real document with keys deleted or set: report
    returns 0, or 2 and writes no summary."""
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        for artifact in REPORT_ARTIFACTS:
            shutil.copy(certify_run / artifact, directory)
        text = damaged_text((certify_run / name).read_text(encoding="utf-8"), damage)
        (directory / name).write_text(text, encoding="utf-8")
        code = main(["report", "--dir", tmp])
        assert code in (EXIT_OK, EXIT_CONFIG)
        if code == EXIT_CONFIG:
            assert not any(directory.glob("summary.*"))
