"""Property tests for normtrace.poly over random small fields GF(p^k),
p^k <= 2^8, with the scalar Horner oracles evaluate_poly and
compose_linear and the list kernels poly_* of tests/oracles.py."""

import random
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from normtrace import poly  # noqa: E402
from normtrace.gf import build_field, is_prime  # noqa: E402
from oracles import (compose_linear, evaluate_poly, poly_add,  # noqa: E402
                     poly_div_rem, poly_mul, poly_power, poly_powmod,
                     poly_scale, poly_sub, poly_trim)

FIELDS = [(p, k) for p in range(2, 257) if is_prime(p)
          for k in range(1, 9) if p ** k <= 256]

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


@lru_cache(maxsize=None)
def field(p, k):
    return build_field(p, k)


@st.composite
def ctx_polys(draw, count):
    """A random field, `count` random polynomials and a random element."""
    ctx = field(*draw(st.sampled_from(FIELDS)))
    elem = st.integers(0, ctx.order - 1)
    polys = [poly_trim(draw(st.lists(elem, max_size=7)))
             for _ in range(count)]
    return ctx, polys, draw(elem)


@pytest.mark.parametrize("p, k", FIELDS)
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_kernels_equal_list_oracles(p, k, data):
    # on every field: operands untrimmed or zero, moduli of degree 0 and
    # up, and e = 0, small or the field order, as b_roots raises to it
    ctx = field(p, k)
    elem = st.integers(0, ctx.order - 1)

    def untrimmed(low, lead):
        zeros = [0] * data.draw(st.integers(0, 2))
        return data.draw(st.lists(elem, max_size=low)) + lead + zeros
    f, g = untrimmed(7, []), untrimmed(7, [])
    m = untrimmed(3, [data.draw(st.integers(1, ctx.order - 1))])
    e = data.draw(st.sampled_from([0, 1, 2, ctx.p, ctx.order])
                  | st.integers(0, 12))
    for h in (g, f):  # f^2 doubles each cross term: p = 2 cancels it
        assert poly.mul(ctx, f, h).tolist() == poly_mul(ctx, poly_trim(f),
                                                        poly_trim(h))
    assert poly.mul(ctx, f, [0]).size == 0 == poly.mul(ctx, [], g).size
    assert poly.rem(ctx, f, m).tolist() == poly_div_rem(ctx, f, m)[1]
    assert (poly.powmod(ctx, f, e, m).tolist()
            == poly_powmod(ctx, poly_trim(f), e, m))


@SETTINGS
@given(ctx_polys(2))
def test_division_identity(case):
    # r = f mod g has deg r < deg g, and g divides f - r
    ctx, (f, g), _ = case
    assume(g)
    r = poly.rem(ctx, f, g).tolist()
    assert len(r) < len(g)
    assert poly_div_rem(ctx, poly_sub(ctx, f, r), g)[1] == []


@SETTINGS
@given(ctx_polys(2))
def test_evaluation_is_a_ring_map(case):
    ctx, (f, g), x = case
    fx, gx = evaluate_poly(ctx, f, x), evaluate_poly(ctx, g, x)
    assert (evaluate_poly(ctx, poly.mul(ctx, f, g).tolist(), x)
            == ctx.mul(fx, gx))
    assert evaluate_poly(ctx, poly_add(ctx, f, g), x) == ctx.add(fx, gx)
    assert evaluate_poly(ctx, poly_sub(ctx, f, g), x) == ctx.sub(fx, gx)
    assert evaluate_poly(ctx, poly_power(ctx, f, 3), x) == ctx.pow(fx, 3)


@SETTINGS
@given(ctx_polys(1), st.data())
def test_compose_linear(case, data):
    ctx, (f,), x = case
    b, c = (data.draw(st.integers(0, ctx.order - 1)) for _ in range(2))
    composed = compose_linear(ctx, f, b, c)
    assert (evaluate_poly(ctx, composed, x)
            == evaluate_poly(ctx, f, ctx.add(ctx.mul(b, x), c)))


@SETTINGS
@given(ctx_polys(2), st.integers(0, 12))
def test_powmod(case, e):
    ctx, (f, m), _ = case
    assert poly.powmod(ctx, f, 0, [1]).tolist() == []  # everything is 0 mod 1
    assume(m)
    assert (poly.powmod(ctx, f, e, m).tolist()
            == poly.rem(ctx, poly_power(ctx, f, e), m).tolist())


@SETTINGS
@given(ctx_polys(2))
def test_derivative_is_a_derivation(case):
    # linear, Leibniz and d(X) = 1 fix the derivative; X^p is a constant
    ctx, (f, g), _ = case

    def d(h):
        return poly.hasse_derivative(ctx, h, 1).tolist()

    def mul(a, b):
        return poly.mul(ctx, a, b).tolist()
    assert d(poly_add(ctx, f, g)) == poly_add(ctx, d(f), d(g))
    assert d(mul(f, g)) == poly_add(ctx, mul(d(f), g), mul(f, d(g)))
    assert d([0, 1]) == [1] and d([0] * ctx.p + [1]) == []


@SETTINGS
@given(ctx_polys(1))
def test_evaluate_array_equals_scalar_evaluation(case):
    ctx, (f,), _ = case
    values = poly.evaluate_array(ctx, f, np.arange(ctx.order))
    assert values.tolist() == [evaluate_poly(ctx, f, x) for x in ctx.elements()]


@pytest.mark.parametrize("p, k", [(2, 20), (3, 12)])
def test_evaluate_array_at_a_few_points_of_a_large_field(p, k):
    # the cost follows the points: one int64 array over GF(2^20) alone
    # takes 8 MB.  The field's exp and log tables are filled on first
    # read, before the window, so that it counts only the evaluation.
    ctx = build_field(p, k)
    ctx.exp_np, ctx.log_np
    rng = random.Random(k)
    f = [rng.randrange(ctx.order) for _ in range(9)]
    xs = np.array([0, 1, ctx.order - 1]
                  + [rng.randrange(ctx.order) for _ in range(6)])
    tracemalloc.start()
    try:
        values = poly.evaluate_array(ctx, f, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.tolist() == [evaluate_poly(ctx, f, x) for x in xs.tolist()]
    assert peak < 2 << 20


def _power_oracle(ctx, c, s, m):
    """c (X + s)^m by square-and-multiply on lists."""
    return poly_scale(ctx, c, poly_power(ctx, [s, 1], m))


@SETTINGS
@given(st.data())
def test_shifted_power_equals_square_and_multiply(data):
    # Lucas' theorem on arrays against oracles.poly_power: m ranges past p, over
    # powers of p and their neighbours, and s may be 0
    ctx = field(*data.draw(st.sampled_from(FIELDS)))
    p = ctx.p
    powers = [p ** e for e in range(1, 9) if p ** e <= 300]
    m = data.draw(st.one_of(st.integers(1, min(3 * p + 3, 300)),
                            st.sampled_from(powers),
                            st.sampled_from(powers).map(lambda q: q + 1)))
    s = data.draw(st.one_of(st.just(0), st.integers(0, ctx.order - 1)))
    c = data.draw(st.integers(1, ctx.order - 1))
    assert (poly.shifted_power(ctx, c, s, m).tolist()
            == _power_oracle(ctx, c, s, m))


@pytest.mark.parametrize("p, k, m", [(2, 1, 256), (2, 4, 255), (3, 2, 81),
                                     (3, 1, 242), (5, 2, 126), (7, 1, 50),
                                     (251, 1, 252)])
def test_shifted_power_at_digit_edges(p, k, m):
    # m a power of p, all digits p - 1, and two digits in a large prime,
    # each at s = 0, s = 1 and a random s
    ctx = field(p, k)
    rng = random.Random(m)
    for s in (0, 1, rng.randrange(ctx.order)):
        c = rng.randrange(1, ctx.order)
        assert (poly.shifted_power(ctx, c, s, m).tolist()
                == _power_oracle(ctx, c, s, m))


@SETTINGS
@given(ctx_polys(1), st.data())
def test_hasse_derivatives_are_the_taylor_coefficients(case, data):
    # the X^j coefficient of f(b X + t) is b^j H_j(t)
    ctx, (f,), t = case
    b = data.draw(st.integers(0, ctx.order - 1))
    composed = compose_linear(ctx, f, b, t)
    composed += [0] * (len(f) - len(composed))
    hasse = [poly.hasse_derivative(ctx, f, j).tolist()
             for j in range(len(f))]
    assert composed == [ctx.mul(ctx.pow(b, j), evaluate_poly(ctx, h, t))
                        for j, h in enumerate(hasse)]

