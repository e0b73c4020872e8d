"""Malformed separated-curve spec records: spec_from_dict must raise
ValueError for each, so that `classify --spec` prints an error."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from normtrace.sepcurve import norm_trace_spec, spec_from_dict  # noqa: E402

GOOD_RECORD = norm_trace_spec(2, 3).to_dict()  # over GF(8), with a modulus
INT_PATHS = [("p",), ("field", "p"), ("field", "k"), ("field", "modulus", 1),
             ("field", "generator_index"), ("A", 1, "j"),
             ("A", 1, "a_j_index"), ("B", 7)]
KIND_OF = {("field",): dict, ("A",): list, ("B",): list, ("A", 0): dict,
           ("field", "modulus"): list, **{path: int for path in INT_PATHS}}
REQUIRED = [("p",), ("field",), ("A",), ("B",), ("field", "p"),
            ("field", "k"), ("A", 0, "j"), ("A", 0, "a_j_index")]
OPTIONAL = {("field", "modulus"), ("field", "generator_index")}
JSON_VALUES = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False),
                        st.text(max_size=3), st.integers(-3, 9),
                        st.lists(st.integers(0, 3), max_size=3),
                        st.dictionaries(st.text(max_size=2), st.integers(0, 3),
                                        max_size=2))


def _is_kind(v, kind):
    return isinstance(v, kind) and not (kind is int and isinstance(v, bool))


def _mutate(path, change):
    rec = json.loads(json.dumps(GOOD_RECORD))
    *parents, last = path
    node = rec
    for key in parents:
        node = node[key]
    change(node, last)
    return rec


@st.composite
def malformed_records(draw):
    kind = draw(st.sampled_from(["missing", "wrong-type", "outside-field",
                                 "not-an-object"]))
    if kind == "missing":
        return _mutate(draw(st.sampled_from(REQUIRED)),
                       lambda node, key: node.pop(key))
    if kind == "wrong-type":
        path = draw(st.sampled_from(sorted(KIND_OF, key=str)))
        v = draw(JSON_VALUES)
        assume(not _is_kind(v, KIND_OF[path])
               and not (v is None and path in OPTIONAL))
        return _mutate(path, lambda node, key: node.__setitem__(key, v))
    if kind == "outside-field":
        v = draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=8)))
        path = draw(st.sampled_from([("A", 1, "a_j_index"), ("B", 7)]))
        return _mutate(path, lambda node, key: node.__setitem__(key, v))
    return draw(JSON_VALUES.filter(lambda v: not isinstance(v, dict)))


def test_good_record_parses():
    spec = spec_from_dict(GOOD_RECORD)
    assert spec.a_coeffs == {0: 1, 1: 1, 2: 1} and spec.m == 7


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(malformed_records())
def test_malformed_spec_records_raise_value_error(rec):
    with pytest.raises(ValueError):
        spec_from_dict(rec)
