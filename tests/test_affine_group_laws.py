"""The group law of the stabilizer maps on AffineMaps rows
(sepcurve._compose and _inverses) over the maps that the stabilizer
search finds on small specs, against the pointwise action affine_apply
and the scalar inverse of tests/oracles.py."""

import functools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from normtrace.gf import build_field  # noqa: E402
from normtrace.sepcurve import (AffineMaps, SeparatedCurveSpec,  # noqa: E402
                                _compose, _inverses,
                                brute_force_stabilizer_search)
from oracles import (AFFINE_IDENTITY, affine_apply,  # noqa: E402
                     affine_inverse, affine_rows, affine_tuples)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

# (host field, A by exponent index, B low to high, search field): the
# two monomial cases of c08, B = X^5 + X^3, and two curves whose maps
# carry a Q(x) of degree up to 2 and 3
SPECS = [
    ((2, 1), {0: 1, 1: 1, 2: 1}, (0, 0, 0, 1), (2, 6)),
    ((5, 1), {0: 1, 1: 1}, (0, 0, 0, 1), (5, 2)),
    ((3, 1), {0: 1, 1: 1}, (0, 0, 0, 1, 0, 1), (3, 4)),
    ((3, 1), {0: 1, 1: 1}, (0, 0, 0, 0, 1), (3, 2)),
    ((2, 1), {0: 1, 1: 1}, (0, 0, 0, 0, 0, 1), (2, 4)),
]


@functools.cache
def found(case: int) -> AffineMaps:
    host, a, b, search = SPECS[case]
    spec = SeparatedCurveSpec(build_field(*host), a, b)
    return brute_force_stabilizer_search(spec, build_field(*search))


@st.composite
def maps(draw, count):
    """A spec's found maps, count of its row indices and one point (x, y)
    of its search field's plane."""
    table = found(draw(st.integers(0, len(SPECS) - 1)))
    order = table.field.order
    point = (draw(st.integers(0, order - 1)), draw(st.integers(0, order - 1)))
    return table, [draw(st.integers(0, len(table) - 1))
                   for _ in range(count)], point


def after(s, t):
    """s after t by the array law, for one-row AffineMaps."""
    both = affine_rows(s.field, affine_tuples(s) + affine_tuples(t),
                       s.q.shape[1])
    return _compose(both, 1)[:1]


def test_specs_have_maps_with_polynomial_parts():
    sizes = [len(found(case)) for case in range(len(SPECS))]
    assert sizes == [12, 60, 6, 216, 160]
    assert max(len(q) for *_, q in affine_tuples(found(4))) == 3


@SETTINGS
@given(maps(3))
def test_compose_affine_is_associative(drawn):
    table, rows, _ = drawn
    s1, s2, s3 = (table[i:i + 1] for i in rows)
    assert (affine_tuples(after(after(s1, s2), s3))
            == affine_tuples(after(s1, after(s2, s3))))


@SETTINGS
@given(maps(1))
def test_inverse_affine_is_two_sided(drawn):
    table, (i,), point = drawn
    ctx, s = table.field, table[i:i + 1]
    t = _inverses(s)
    (one,) = affine_tuples(s)
    assert affine_tuples(t) == [affine_inverse(ctx, one)]
    assert affine_tuples(after(s, t)) == [AFFINE_IDENTITY]
    assert affine_tuples(after(t, s)) == [AFFINE_IDENTITY]
    (other,) = affine_tuples(t)
    assert affine_apply(ctx, other, *affine_apply(ctx, one, *point)) == point
    assert affine_apply(ctx, one, *affine_apply(ctx, other, *point)) == point
    # every row at once, as assert_group inverts them
    inverses = _inverses(table)
    assert [affine_apply(ctx, v, *affine_apply(ctx, u, *point))
            for u, v in zip(affine_tuples(table),
                            affine_tuples(inverses))] == [point] * len(table)


@SETTINGS
@given(maps(1))
def test_identity_affine_is_neutral(drawn):
    table, (i,), point = drawn
    s = table[i:i + 1]
    ident = affine_rows(table.field, [AFFINE_IDENTITY], table.q.shape[1])
    assert affine_tuples(after(ident, s)) == affine_tuples(s)
    assert affine_tuples(after(s, ident)) == affine_tuples(s)
    assert affine_apply(table.field, AFFINE_IDENTITY, *point) == point


@SETTINGS
@given(maps(1))
def test_compose_affine_acts_as_successive_maps(drawn):
    # every row after the drawn one, in one pass, as assert_group
    # composes a generator with all maps
    table, (g,), point = drawn
    ctx = table.field
    moved = affine_apply(ctx, affine_tuples(table)[g], *point)
    assert ([affine_apply(ctx, u, *point)
             for u in affine_tuples(_compose(table, g))]
            == [affine_apply(ctx, u, *moved) for u in affine_tuples(table)])
