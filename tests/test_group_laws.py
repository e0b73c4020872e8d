"""Group laws of CurveAut over random curves with Q <= 2^12, against the
pointwise action and the scanning inverse of tests/oracles.py."""

import functools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from normtrace.autgroup import (CurveAut, compose,  # noqa: E402
                                identity_aut, inverse)
from normtrace.curve import MAX_PLACES, P_INFINITY, Place  # noqa: E402
from normtrace.curve import build_curve  # noqa: E402
from normtrace.gf import prime_factors  # noqa: E402
from oracles import apply_place, inverse_by_search  # noqa: E402

curve = functools.cache(build_curve)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


# every curve the toolkit admits over a field of order at most 2^12
CURVES = [(q, r) for q in range(2, 65) if len(prime_factors(q)) == 1
          for r in range(2, 13)
          if q ** r <= 1 << 12 and q ** (2 * r - 1) + 1 <= MAX_PLACES]


@st.composite
def auts(draw, count):
    """A curve, then count of its automorphisms and one of its places."""
    cv = curve(*draw(st.sampled_from(CURVES)))
    zeros = sorted(cv.trace_zero)
    maps = [CurveAut(cv, draw(st.sampled_from(zeros)),
                     draw(st.integers(1, cv.ctx.order - 1)))
            for _ in range(count)]
    xs, ys = cv.affine_xy
    at = draw(st.integers(-1, len(xs) - 1))
    place = P_INFINITY if at < 0 else Place("affine", int(xs[at]),
                                            int(ys[at]))
    return maps, place


def test_curves_cover_the_small_fields():
    assert len(CURVES) == 53
    assert (2, 10) in CURVES and (16, 3) in CURVES and (64, 2) in CURVES


@SETTINGS
@given(auts(3))
def test_compose_is_associative(drawn):
    (s1, s2, s3), _ = drawn
    assert compose(compose(s1, s2), s3) == compose(s1, compose(s2, s3))


@SETTINGS
@given(auts(1))
def test_inverse_is_two_sided(drawn):
    (s,), place = drawn
    t = inverse(s)
    assert t == inverse_by_search(s)
    assert compose(s, t).is_identity and compose(t, s).is_identity
    assert apply_place(t, apply_place(s, place)) == place
    assert apply_place(s, apply_place(t, place)) == place


@SETTINGS
@given(auts(1))
def test_identity_is_neutral(drawn):
    (s,), place = drawn
    ident = identity_aut(s.curve)
    assert compose(ident, s) == s == compose(s, ident)
    assert apply_place(ident, place) == place


@SETTINGS
@given(auts(2))
def test_compose_acts_as_successive_maps(drawn):
    (s1, s2), place = drawn
    assert (apply_place(compose(s1, s2), place)
            == apply_place(s1, apply_place(s2, place)))
