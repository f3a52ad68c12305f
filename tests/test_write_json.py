"""`cli.write_json` against the two-pass path it replaced: a sanitizing walk
followed by ``json.dumps(sort_keys=True, indent=2)``, kept here as the
oracle.  The bytes must be equal for every document the oracle accepts."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayrd.cli import _sorted_heads, write_json


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
                                 [{"one": 1}, {1: "one"}]],
                         ids=["numpy-bool", "set", "int-key", "object",
                              "int-key-after-cached-shape"])
def test_write_json_refuses_what_json_refuses(tmp_path, doc):
    """json.dumps refuses these too; the old path only converted non-str
    keys, which no artifact has.  The key memo holds no shape that lets an
    int key through after a str key set of the same size."""
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
    take their key order from the memo and still write the oracle's bytes."""
    records = _same_shape_records()
    doc = {"roots": records, "modes": [{"roots": records[i::5], "mode": i} for i in range(5)]}
    write_json(str(tmp_path / "doc.json"), doc)
    assert (tmp_path / "doc.json").read_bytes() == oracle_bytes(doc)


def test_key_memo_stays_bounded(tmp_path):
    write_json(str(tmp_path / "doc.json"), [{f"k{i}": i} for i in range(10_000)])
    info = _sorted_heads.cache_info()
    assert info.currsize == info.maxsize == 64
