"""Dense polynomials over a FieldCtx: little-endian lists of element
indices with a nonzero last entry ([] is zero).  Over FieldCtx(p, 1) an
index is the coefficient itself, so GF(p) moduli pass in directly.
Only the context's methods are used, so this module never imports gf.
"""

from __future__ import annotations

from math import comb


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


def evaluate(ctx, f, x):
    out = 0
    for a in reversed(f):
        out = ctx.add(ctx.mul(out, x), a)
    return out


def evaluate_array(ctx, f, xs):
    """f at every index of the array xs, by Horner on arrays: ctx.vmul
    for the products and ctx.vadd_scalar for each coefficient, so no
    table over the field is built and the cost follows len(xs)."""
    out = ctx.vscale(0, xs)
    for a in reversed(f):
        out = ctx.vadd_scalar(ctx.vmul(out, xs), a)
    return out


def hasse_derivative(ctx, f, j):
    """The j-th Hasse derivative sum_{i >= j} C(i, j) f_i X^{i - j}, with
    the integer C(i, j) read as a prime-field element: the coefficient of
    X^j in f(b X + t) is b^j times its value at t."""
    return trim([ctx.mul(comb(i, j) % ctx.p, f[i]) for i in range(j, len(f))])


def compose_linear(ctx, f, b, c0):
    """f(b*X + c0) by Horner."""
    out = []
    lin = [c0, b]
    for a in reversed(f):
        out = add(ctx, mul(ctx, out, lin), [a])
    return trim(out)


def frobenius(ctx, f, e):
    """f(X)^{p^e} = sum a_i^{p^e} X^{i p^e} (freshman's dream)."""
    pe = ctx.p ** e
    out = [0] * (pe * (len(f) - 1) + 1) if f else []
    for i, a in enumerate(f):
        if a:
            out[i * pe] = ctx.pow(a, pe)
    return trim(out)


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
