"""Property tests of the field layer over random GF(p^k) of order up to
2^12: the field axioms, Frobenius as a ring map, the relative norm
multiplicative and the relative trace additive, and the FieldCtx array
ops equal to its scalar ops, zeros included.  A field takes about a
millisecond to build, so each example builds its own."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from normtrace.gf import build_field, is_prime  # noqa: E402

# every (p, k) with p^k <= 2^12: 564 prime fields and 40 others
FIELDS = [(p, k) for p in range(2, 1 << 12) if is_prime(p)
          for k in range(1, 13) if p ** k <= 1 << 12]
# the fields whose Q x Q sum table (vadd in odd characteristic) takes a
# few milliseconds to build
SMALL_FIELDS = [(p, k) for p, k in FIELDS if p ** k <= 1 << 10]
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


@st.composite
def field_elements(draw, count, fields=FIELDS):
    """(ctx, a_1, ..., a_count): a random field, k >= 2 half the time
    (it is 1 in most of them), and count elements of it, drawn to hold
    0, 1, the generator and the largest index often."""
    ctx = build_field(*draw(st.one_of(
        st.sampled_from([(p, k) for p, k in fields if k > 1]),
        st.sampled_from(fields))))
    element = st.one_of(st.integers(0, ctx.order - 1), st.sampled_from(
        [0, 1, ctx.generator, ctx.order - 1]))
    return (ctx, *(draw(element) for _ in range(count)))


@st.composite
def towers(draw):
    """(ctx, q, r, a, b, lam): a random field GF(q^r), q = p^e for a
    random divisor e of k, two elements and an element lam of GF(q)."""
    ctx, a, b, pick = draw(field_elements(3))
    e = draw(st.sampled_from([d for d in range(1, ctx.k + 1)
                              if ctx.k % d == 0]))
    sub = ctx.subfield_indices(e)
    return ctx, ctx.p ** e, ctx.k // e, a, b, sub[pick % len(sub)]


@st.composite
def field_arrays(draw, fields=FIELDS):
    """(ctx, s, u, v): a random field, one element and two arrays of 16
    elements, zero where the other is nonzero and where both are."""
    ctx, s = draw(field_elements(1, fields))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u, v = rng.integers(0, ctx.order, size=(2, 16))
    u[0] = v[1] = u[2] = v[2] = 0
    u[3] = v[3] = ctx.order - 1
    return ctx, s, u, v


@SETTINGS
@given(field_elements(3))
def test_field_axioms(drawn):
    ctx, a, b, c = drawn
    add, mul = ctx.add, ctx.mul
    assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, 0) == a and mul(a, 1) == a and mul(a, 0) == 0
    assert add(a, ctx.neg(a)) == 0 and ctx.sub(add(a, b), b) == a
    assert (mul(a, b) == 0) == (a == 0 or b == 0)  # no zero divisors
    if a:
        assert mul(a, ctx.inv(a)) == 1 and ctx.div(mul(b, a), a) == b
        assert ctx.pow(a, ctx.order - 1) == 1


@SETTINGS
@given(field_elements(2), st.integers(0, 24))
def test_frobenius_is_a_ring_automorphism(drawn, e):
    ctx, a, b = drawn

    def frob(x):
        return ctx.frobenius(x, e)

    assert frob(ctx.add(a, b)) == ctx.add(frob(a), frob(b))
    assert frob(ctx.mul(a, b)) == ctx.mul(frob(a), frob(b))
    assert frob(0) == 0 and frob(1) == 1
    # x -> x^(p^e) is undone by x -> x^(p^(k - e)), e taken mod k
    assert ctx.frobenius(frob(a), ctx.k - e % ctx.k) == a
    # x^p = x exactly on the prime field
    assert (ctx.frobenius(a) == a) == (a in ctx.subfield_indices(1))


@SETTINGS
@given(towers())
def test_norm_is_multiplicative_and_trace_is_linear(drawn):
    ctx, q, r, a, b, lam = drawn

    def norm(x):
        return ctx.norm_rel(x, q, r)

    def trace(x):
        return ctx.trace_rel(x, q, r)

    assert norm(ctx.mul(a, b)) == ctx.mul(norm(a), norm(b))
    assert norm(ctx.mul(lam, a)) == ctx.mul(ctx.pow(lam, r), norm(a))
    assert (norm(a) == 0) == (a == 0)
    assert trace(ctx.add(a, b)) == ctx.add(trace(a), trace(b))
    assert trace(ctx.mul(lam, a)) == ctx.mul(lam, trace(a))
    sub = ctx.subfield_indices(ctx.k // r)
    assert norm(a) in sub and trace(a) in sub


@SETTINGS
@given(field_arrays(), st.integers(-3, 1 << 13))
def test_array_ops_equal_scalar_ops(drawn, e):
    ctx, s, u, v = drawn
    us, vs = u.tolist(), v.tolist()
    assert ctx.vmul(u, v).tolist() == list(map(ctx.mul, us, vs))
    assert ctx.vscale(s, u).tolist() == [ctx.mul(s, a) for a in us]
    assert ctx.vneg(u).tolist() == list(map(ctx.neg, us))
    assert ctx.vadd_scalar(u, s).tolist() == [ctx.add(a, s) for a in us]
    units = u[u != 0]
    assert ctx.vpow(units, e).tolist() == [ctx.pow(a, e)
                                           for a in units.tolist()]
    if e >= 0:
        assert ctx.vpow(u, e).tolist() == [ctx.pow(a, e) for a in us]
    else:
        with pytest.raises(ZeroDivisionError):
            ctx.vpow(u, e)
    # any shape: the pairs as a 4 x 4 array
    square = ctx.vmul(u.reshape(4, 4), v.reshape(4, 4))
    assert square.ravel().tolist() == list(map(ctx.mul, us, vs))


@settings(SETTINGS, max_examples=30)
@given(field_arrays(SMALL_FIELDS))
def test_table_ops_equal_scalar_ops(drawn):
    ctx, _, u, v = drawn
    us, vs = u.tolist(), v.tolist()
    assert ctx.vadd(u, v).tolist() == list(map(ctx.add, us, vs))
    assert ctx.vmul_outer(u, v).tolist() == [[ctx.mul(a, b) for b in vs]
                                             for a in us]
