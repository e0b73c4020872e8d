"""Dense polynomials over a FieldCtx, for sepcurve: little-endian
lists of element indices with a nonzero last entry ([] is zero), and
their values at a whole array of points (evaluate_array).  Only the
context's methods and tables are used, so this module never imports
gf, whose modulus search has its own kernel on plain integers.
"""

from __future__ import annotations

from math import comb

import numpy as np


def trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def add(ctx, f, g):
    out = [0] * max(len(f), len(g))
    for i, a in enumerate(f):
        out[i] = a
    for i, b in enumerate(g):
        out[i] = ctx.add(out[i], b)
    return trim(out)


def neg(ctx, f):
    return [ctx.neg(a) for a in f]


def sub(ctx, f, g):
    return add(ctx, f, neg(ctx, g))


def scale(ctx, s, f):
    return trim([ctx.mul(s, a) for a in f])


def mul(ctx, f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = ctx.add(out[i + j], ctx.mul(a, b))
    return trim(out)


def power(ctx, f, e):
    out = [1]
    while e:
        if e & 1:
            out = mul(ctx, out, f)
        f = mul(ctx, f, f)
        e >>= 1
    return out


def shifted_power(ctx, c, s, m):
    """The coefficients of c (X + s)^m for a nonzero c, by the binomial
    theorem on arrays: the X^i coefficient is c C(m, i) s^(m - i).  By
    Lucas' theorem C(m, i) mod p is the product over the base-p digits t
    of C(m_t, i_t), zero where some i_t > m_t; each digit's row
    C(m_t, 0..m_t) is a running sum of the logs of (m_t - e) / (e + 1),
    and s^(m - i) is one log product.  Linear in m, where power is
    quadratic."""
    if s == 0:
        return [0] * m + [c]
    n, log = ctx.order - 1, ctx.log_np
    i = np.arange(m + 1)
    logs = log[c] + log[s] * (m - i)
    zero = np.zeros(m + 1, dtype=bool)
    digits, rest = i, m
    while rest:
        rest, top = divmod(rest, ctx.p)
        digits, d = np.divmod(digits, ctx.p)
        e = np.arange(top)
        row = np.cumsum(np.concatenate([[0], log[top - e] - log[e + 1]]))
        zero |= d > top
        logs += row[np.minimum(d, top)]
    return ctx.exp_np[np.where(zero, 2 * n, logs % n)].tolist()


def evaluate_array(ctx, f, xs):
    """f at every index of the array xs, by Horner on arrays: ctx.vmul
    for the products and ctx.vadd_scalar for each nonzero coefficient,
    so no table over the field is built and the cost follows len(xs)."""
    out = ctx.vscale(0, xs)
    for a in reversed(f):
        out = ctx.vmul(out, xs)
        if a:
            out = ctx.vadd_scalar(out, a)
    return out


def hasse_derivative(ctx, f, j):
    """The j-th Hasse derivative sum_{i >= j} C(i, j) f_i X^{i - j}, with
    the integer C(i, j) read as a prime-field element: the coefficient of
    X^j in f(b X + t) is b^j times its value at t.  One array product,
    so no scalar method of the field runs."""
    binoms = [comb(i, j) % ctx.p for i in range(j, len(f))]
    return trim(ctx.vmul(np.array(binoms, dtype=np.int64),
                         np.array(f[j:], dtype=np.int64)).tolist())


def div_rem(ctx, f, g):
    """Quotient and remainder of f by a nonzero g."""
    g = trim(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    dg = len(g) - 1
    lead_inv = ctx.inv(g[-1])
    r = trim(f)
    q = [0] * max(len(r) - dg, 0)
    while len(r) > dg:
        c = ctx.mul(r[-1], lead_inv)
        if c:
            shift = len(r) - 1 - dg
            q[shift] = c
            for i in range(dg):
                r[shift + i] = ctx.sub(r[shift + i], ctx.mul(c, g[i]))
        r.pop()
    return q, trim(r)


def rem(ctx, f, g):
    return div_rem(ctx, f, g)[1]


def gcd(ctx, f, g):
    """Monic greatest common divisor; [] when f and g are both zero."""
    f, g = trim(f), trim(g)
    while g:
        f, g = g, rem(ctx, f, g)
    return scale(ctx, ctx.inv(f[-1]), f) if f else []


def radical(ctx, f):
    """The product of the distinct irreducible factors of a nonzero f, up
    to a unit.  f / gcd(f, f') has those whose multiplicity p does not
    divide and gcd(f, f') the others; if f' = 0, f is a p-th power."""
    f = trim(f)
    if len(f) < 2:
        return [1]
    d = hasse_derivative(ctx, f, 1)
    if not d:
        return radical(ctx, [ctx.pow(a, ctx.order // ctx.p) for a in f[::ctx.p]])
    g = gcd(ctx, f, d)
    s, r = div_rem(ctx, f, g)[0], radical(ctx, g)
    return div_rem(ctx, mul(ctx, s, r), gcd(ctx, s, r))[0]  # their lcm


def powmod(ctx, f, e, m):
    """f^e mod m by square-and-multiply."""
    out = rem(ctx, [1], m)
    f = rem(ctx, f, m)
    while e:
        if e & 1:
            out = rem(ctx, mul(ctx, out, f), m)
        f = rem(ctx, mul(ctx, f, f), m)
        e >>= 1
    return out
