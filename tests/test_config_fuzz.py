"""Property tests for the configuration schema: no JSON document makes
``parse_config`` fail other than by ConfigError, and no edit of a schema key
makes a subcommand leave through anything but its documented exit codes."""

import copy
import json
import pathlib
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
SECTIONS = {"nonlinearity": NonlinearitySpec, "forcing": ForcingSpec, "grid": Grid,
            "run": RunOptions}
# (section or None for the top level, key), every key the schema knows
SCHEMA_KEYS = [(None, f.name) for f in fields(ProblemParameters)] + [(None, "grid"), (None, "run")] \
    + [(section, f.name) for section, cls in SECTIONS.items() for f in fields(cls)]
PALETTE = [0, -1, 16.7, 1e-300, 1e-8, 1e300, 2**60, 10**30, True, None, "x", [], {}]
# Python type of each annotation, as the parser must store it
STORED = {"float": float, "int": int, "str": str}

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
def test_cli_exits_through_documented_codes(edits):
    """configs/base.json with one to three schema keys set from a palette
    of edge values: every subcommand returns 0, 2, 3 or 4."""
    doc = edited(json.loads(BASE.read_text()), edits)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = pathlib.Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(doc))
        for subcommand in ("certify", "spectrum", "simulate", "squeeze"):
            code = main([subcommand, "--config", str(cfg), "--out", f"{tmp}/{subcommand}"])
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_DIVERGENCE), subcommand
