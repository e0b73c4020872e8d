"""Dense polynomials over a FieldCtx, for sepcurve: little-endian int64
arrays of element indices with a nonzero last entry (an empty array is
zero).  Each function takes any sequence of indices and returns such a
trimmed array.  Only the context's tables and array operations are
used, so no scalar method of the field runs, and this module never
imports gf, whose modulus search has its own kernel on plain integers.
"""

from __future__ import annotations

from math import comb

import numpy as np


def trim(c):
    c = np.asarray(c, dtype=np.int64)
    nonzero = np.flatnonzero(c)
    return c[:nonzero[-1] + 1] if nonzero.size else c[:0]


def mul(ctx, f, g):
    """f g from one array of the products f_i g_j (ctx.vmul): each
    anti-diagonal i + j is summed one base-p digit at a time with
    np.bincount and taken mod p, the same code for every p."""
    f, g = np.asarray(f, dtype=np.int64), np.asarray(g, dtype=np.int64)
    if not (f.size and g.size):
        return f[:0]
    rest = ctx.vmul(f[:, None], g).ravel()
    diagonals = (np.arange(f.size)[:, None] + np.arange(g.size)).ravel()
    out = np.zeros(f.size + g.size - 1, dtype=np.int64)
    power = 1
    for _ in range(ctx.k):
        rest, digits = np.divmod(rest, ctx.p)
        sums = np.bincount(diagonals, digits, out.size).astype(np.int64)
        out += sums % ctx.p * power
        power *= ctx.p
    return trim(out)


def rem(ctx, f, g):
    """f mod a nonzero g, by long division on one array.  -g / lead(g) is
    formed once; each quotient coefficient c, the top entry of the
    remainder so far, then clears that entry with one vadd_scalar of c
    times its low terms, so no Q x Q table is built."""
    g = trim(g)
    if not g.size:
        raise ZeroDivisionError("polynomial division by zero")
    lead_inv = ctx.exp_np[ctx.order - 1 - ctx.log_np[g[-1]]]
    low = ctx.vneg(ctx.vscale(lead_inv, g[:-1]))
    r, d = np.array(f, dtype=np.int64), low.size
    for top in range(r.size - 1, d - 1, -1):
        if r[top]:
            r[top - d:top] = ctx.vadd_scalar(r[top - d:top],
                                             ctx.vscale(r[top], low))
    return trim(r[:d])


def powmod(ctx, f, e, m):
    """f^e mod m by square-and-multiply, from the top bit of e down."""
    f = rem(ctx, f, m)
    out = f if e else rem(ctx, [1], m)
    for bit in bin(e)[3:]:
        out = rem(ctx, mul(ctx, out, out), m)
        if bit == "1":
            out = rem(ctx, mul(ctx, out, f), m)
    return out


def shifted_power(ctx, c, s, m):
    """The coefficients of c (X + s)^m for a nonzero c, by the binomial
    theorem on arrays: the X^i coefficient is c C(m, i) s^(m - i).  By
    Lucas' theorem C(m, i) mod p is the product over the base-p digits t
    of C(m_t, i_t), zero where some i_t > m_t; each digit's row
    C(m_t, 0..m_t) is a running sum of the logs of (m_t - e) / (e + 1),
    and s^(m - i) is one log product.  Linear in m, where
    square-and-multiply (tests/oracles.py's poly_power) is quadratic."""
    if s == 0:
        out = np.zeros(m + 1, dtype=np.int64)
        out[m] = c
        return out
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
    return ctx.exp_np[np.where(zero, log[0], logs % n)]


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
                         np.asarray(f[j:], dtype=np.int64)))
