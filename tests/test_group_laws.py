"""The group law of the curve group on (a, b) index arrays
(autgroup.ab_product and ab_inverse) over random curves with Q <= 2^12,
against the pointwise action and the scanning inverse of
tests/oracles.py."""

import functools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from normtrace.autgroup import CurveAut, ab_inverse, ab_product  # noqa: E402
from normtrace.curve import MAX_PLACES, P_INFINITY, Place  # noqa: E402
from normtrace.curve import build_curve  # noqa: E402
from normtrace.gf import prime_factors  # noqa: E402
from oracles import apply_place, inverse_by_search  # noqa: E402

curve = functools.cache(build_curve)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

IDENTITY = np.array([[0], [1]])


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


def pair(s):
    """The one-element (a, b) arrays of s."""
    return np.array([[s.a], [s.b]])


def aut(cv, ab):
    """The CurveAut of one-element (a, b) arrays."""
    return CurveAut(cv, int(ab[0, 0]), int(ab[1, 0]))


def test_curves_cover_the_small_fields():
    assert len(CURVES) == 53
    assert (2, 10) in CURVES and (16, 3) in CURVES and (64, 2) in CURVES


@SETTINGS
@given(auts(3))
def test_compose_is_associative(drawn):
    (s1, s2, s3), _ = drawn
    cv = s1.curve
    x, y, z = map(pair, (s1, s2, s3))
    assert np.array_equal(ab_product(cv, *ab_product(cv, *x, *y), *z),
                          ab_product(cv, *x, *ab_product(cv, *y, *z)))


@SETTINGS
@given(auts(1))
def test_inverse_is_two_sided(drawn):
    (s,), place = drawn
    cv = s.curve
    x, y = pair(s), ab_inverse(cv, *pair(s))
    t = aut(cv, y)
    assert t == inverse_by_search(s)
    assert np.array_equal(ab_product(cv, *x, *y), IDENTITY)
    assert np.array_equal(ab_product(cv, *y, *x), IDENTITY)
    assert apply_place(t, apply_place(s, place)) == place
    assert apply_place(s, apply_place(t, place)) == place


@SETTINGS
@given(auts(1))
def test_identity_is_neutral(drawn):
    (s,), place = drawn
    cv = s.curve
    assert np.array_equal(ab_product(cv, *IDENTITY, *pair(s)), pair(s))
    assert np.array_equal(ab_product(cv, *pair(s), *IDENTITY), pair(s))
    assert np.array_equal(ab_inverse(cv, *IDENTITY), IDENTITY)
    assert apply_place(aut(cv, IDENTITY), place) == place


@SETTINGS
@given(auts(2))
def test_compose_acts_as_successive_maps(drawn):
    (s1, s2), place = drawn
    both = aut(s1.curve, ab_product(s1.curve, *pair(s1), *pair(s2)))
    assert apply_place(both, place) == apply_place(s1, apply_place(s2, place))
