"""`cli.write_json` against the two-pass path it replaced: a sanitizing walk
followed by ``json.dumps(sort_keys=True, indent=2)``, kept here as the
oracle.  The bytes must be equal for every document the oracle accepts."""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayrd import cli
from delayrd.cli import _load_config, _record_template, write_json
from delayrd.spectrum import spectral_partition

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _sanitize(obj):
    """Replace non-finite floats so the JSON stays standard and stable."""
    if isinstance(obj, dict):
        return {key: _sanitize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(value) for value in obj]
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        if math.isnan(obj):
            return "nan"
        return "inf" if obj > 0 else "-inf"
    return obj


def oracle_bytes(obj) -> bytes:
    return (json.dumps(_sanitize(obj), sort_keys=True, indent=2) + "\n").encode("utf-8")


floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, 1e16, 1e-7, 0.1]),
)
texts = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é☃ \U0001f600')),
)
leaves = st.one_of(
    floats,
    floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(min_value=-2**63, max_value=2**63 - 1).map(np.int64),
    st.integers(),
    st.booleans(),
    st.none(),
    texts,
)
documents = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(texts, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(documents)
def test_write_json_matches_sanitize_then_dumps(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("json") / "doc.json"
    write_json(str(path), doc)
    assert path.read_bytes() == oracle_bytes(doc)


@pytest.mark.parametrize("doc", [np.bool_(True), {"a": {1, 2}}, {1: "one"}, [object()],
                                 [{"one": 1}, {1: "one"}], [{1: 0.5}, {1: 0.5}]],
                         ids=["numpy-bool", "set", "int-key", "object",
                              "int-key-after-cached-shape", "int-key-records"])
def test_write_json_refuses_what_json_refuses(tmp_path, doc):
    """json.dumps refuses these too, except a non-str key, which it would
    convert and no artifact has.  No record template lets an int key
    through, first in a list or after a str key set of the same size."""
    with pytest.raises(TypeError):
        write_json(str(tmp_path / "doc.json"), doc)
    assert not (tmp_path / "doc.json").exists()


def _same_shape_records():
    """50 dicts with one key set, some built in another insertion order, over
    finite and non-finite floats, numpy scalars, None, strings and nested dicts."""
    values = [0.1, -0.0, 1e308, 5e-324, math.nan, math.inf, -math.inf, np.float32(0.1),
              np.float64(2.5), np.int64(-7), 3, None, "é\n", {"z": 1.5, "a": [math.nan, None]}]
    records = []
    for i in range(50):
        record = {"re": values[i % 14], "im": values[(3 * i) % 14],
                  "multiplicity": values[(5 * i) % 14], "residual": values[(7 * i + 1) % 14]}
        records.append(record if i % 3 else dict(reversed(record.items())))
    return records


def test_key_memo_matches_oracle(tmp_path):
    """Dicts of one key set, in either insertion order and at any depth,
    take their text from the key set's template or the general path and
    still write the oracle's bytes."""
    records = _same_shape_records()
    doc = {"roots": records, "modes": [{"roots": records[i::5], "mode": i} for i in range(5)]}
    write_json(str(tmp_path / "doc.json"), doc)
    assert (tmp_path / "doc.json").read_bytes() == oracle_bytes(doc)


def _general_records(monkeypatch, doc) -> int:
    """How many dicts of ``doc``'s lists `_json_text` writes by its general
    path, not from a template (it recurses through the module name)."""
    general = cli._json_text
    count = 0

    def counting(obj, pad=""):
        nonlocal count
        count += type(obj) is dict
        return general(obj, pad)

    monkeypatch.setattr(cli, "_json_text", counting)
    general(doc)
    return count


def _records(values, keys=("re", "im", "multiplicity", "residual")):
    """Records of ``keys`` over ``values`` in turn, every other one built in
    reversed insertion order."""
    records = []
    for i in range(12):
        record = {key: values[(i + j) % len(values)] for j, key in enumerate(keys)}
        records.append(record if i % 2 else dict(reversed(record.items())))
    return records


# (records, how many of them take the general path): a list is written from
# one template or wholly by the general path
TEMPLATE_CASES = {
    "plain": (_records([0.1, -0.0, 5e-324, 1e-300, 3, -7, 2**62, 1e16]), 0),
    "overflowing-sum": (_records([1e308, 1.5e308]), 12),
    "overflowing-list-sum": (_records([1e308, 1.0, -0.5, 2]), 12),
    "huge-int": ([{"a": 10**400, "b": 1.0}, {"a": 1, "b": 1.0}, {"a": 10**400, "b": 1}], 3),
    "bool": (_records([0.5, True, 2]), 12),
    "numpy-float64": (_records([np.float64(0.5), 1.0, 2]), 12),
    "special-keys": (_records([0.5, -1, 2.0], keys=("%s", "100%", '"q"', "é☃")), 0),
    "mixed-key-sets": ([{"x": 1.0, "y": 2}, {"x": 3.0}, {"y": 4, "x": 5.0}, {}], 4),
    "same-size-key-sets": ([{"x": 1.0, "y": 2}, {"x": 3.0, "z": 4}, {"y": 5, "x": 6.0}], 3),
    "empty-first": ([{}, {"x": 1.0}, {"x": 2.0}], 3),
    "non-finite": (_records([math.nan, 1.0, math.inf, -math.inf]), 12),
}


@pytest.mark.parametrize("case", sorted(TEMPLATE_CASES))
def test_record_templates_match_oracle(tmp_path, monkeypatch, case):
    """A list whose dicts all have its first dict's key set and whose values
    are exact ints or floats with a finite sum is written from one template.
    Any other list (bool, numpy scalars, non-finite values, a sum over the
    whole list that overflows, ints beyond the float range, another key
    set) sends every item through the general path.  Both give the
    oracle's bytes."""
    records, general = TEMPLATE_CASES[case]
    doc = {"records": records, "nested": [records[:3], records[3:]]}
    write_json(str(tmp_path / "doc.json"), doc)
    assert (tmp_path / "doc.json").read_bytes() == oracle_bytes(doc)
    assert _general_records(monkeypatch, {"records": records}) == general


def test_overflowing_list_sum_has_finite_record_sums():
    """Each record of the "overflowing-list-sum" case sums to a finite float;
    only the sum over the whole list overflows."""
    records, _ = TEMPLATE_CASES["overflowing-list-sum"]
    assert all(math.isfinite(sum(record.values())) for record in records)
    assert not math.isfinite(sum(value for record in records for value in record.values()))


@pytest.mark.parametrize("path", sorted([*ROOT.glob("configs/*.json"),
                                         *ROOT.glob("perfbench/configs/*.json")]),
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_shipped_spectra_match_oracle(tmp_path, path):
    """The spectrum document of every shipped config, whose root and group
    records are what the templates are for, gives the oracle's bytes."""
    p, _, run = _load_config(str(path))
    doc = spectral_partition(p, run.cutoff_radius, run.m_cut, run.modes).as_dict()
    write_json(str(tmp_path / "spectrum.json"), doc)
    assert (tmp_path / "spectrum.json").read_bytes() == oracle_bytes(doc)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.dictionaries(
    st.sampled_from(["a", "b", "%r", "%%", '"', "é", "\u2603", "\x00"]),
    st.one_of(st.integers(), st.sampled_from([10**400, -2**1030]), floats, st.booleans(), floats.map(np.float64)),
    min_size=1, max_size=4), min_size=1, max_size=6))
def test_record_lists_match_oracle(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("json") / "doc.json"
    write_json(str(path), records)
    assert path.read_bytes() == oracle_bytes(records)


def test_template_memo_stays_bounded(tmp_path):
    doc = [[{f"k{i}": i, "v": 0.5}] for i in range(10_000)]
    write_json(str(tmp_path / "doc.json"), doc)
    assert (tmp_path / "doc.json").read_bytes() == oracle_bytes(doc)
    info = _record_template.cache_info()
    assert info.currsize == info.maxsize == 64
