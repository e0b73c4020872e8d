"""Group laws of sepcurve.AffineAut over the maps that the stabilizer
search finds on small specs, against the pointwise action apply_xy."""

import functools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from normtrace.gf import build_field  # noqa: E402
from normtrace.sepcurve import (AffineAut, SeparatedCurveSpec,  # noqa: E402
                                brute_force_stabilizer_search,
                                compose_affine, inverse_affine)

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
def found(case: int) -> tuple[AffineAut, ...]:
    host, a, b, search = SPECS[case]
    spec = SeparatedCurveSpec(build_field(*host), a, b)
    return tuple(brute_force_stabilizer_search(
        spec, build_field(*search)).affine_auts())


@st.composite
def maps(draw, count):
    """A spec, then count of the maps found for it and one point (x, y)
    of its search field's plane."""
    case = found(draw(st.integers(0, len(SPECS) - 1)))
    ctx = case[0].ctx
    point = (draw(st.integers(0, ctx.order - 1)),
             draw(st.integers(0, ctx.order - 1)))
    return [draw(st.sampled_from(case)) for _ in range(count)], point


def test_specs_have_maps_with_polynomial_parts():
    sizes = [len(found(case)) for case in range(len(SPECS))]
    assert sizes == [12, 60, 6, 216, 160]
    assert max(len(s.q_coeffs) for s in found(4)) == 3


@SETTINGS
@given(maps(3))
def test_compose_affine_is_associative(drawn):
    (s1, s2, s3), _ = drawn
    assert (compose_affine(compose_affine(s1, s2), s3)
            == compose_affine(s1, compose_affine(s2, s3)))


@SETTINGS
@given(maps(1))
def test_inverse_affine_is_two_sided(drawn):
    (s,), point = drawn
    t = inverse_affine(s)
    assert compose_affine(s, t).is_identity
    assert compose_affine(t, s).is_identity
    assert t.apply_xy(*s.apply_xy(*point)) == point
    assert s.apply_xy(*t.apply_xy(*point)) == point


@SETTINGS
@given(maps(1))
def test_identity_affine_is_neutral(drawn):
    (s,), point = drawn
    ident = AffineAut(s.ctx, 1, 1, 0, ())
    assert compose_affine(ident, s) == s == compose_affine(s, ident)
    assert ident.apply_xy(*point) == point


@SETTINGS
@given(maps(2))
def test_compose_affine_acts_as_successive_maps(drawn):
    (s1, s2), point = drawn
    assert (compose_affine(s1, s2).apply_xy(*point)
            == s1.apply_xy(*s2.apply_xy(*point)))
