"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's own code paths: the lattice
count enumerates pairs directly, irreducibility is tested by trial
factorization, and semigroup membership and the monomial bases by
double loop, where the library marks the semigroup's runs on one
array and reads the bases off it.  The code
action, fixed places and row reduction are computed one place or one
entry at a time with the scalar field operations, where the library
works on whole arrays; field addition and negation digit by digit, where
the library uses Zech logarithms.  The minimum distance is found over
every nonzero message, where the library enumerates one message per
line through 0 in packed words, and each row's multiples are formed one
scalar product at a time and packed by np.packbits, where the library
gathers them from the log matrix and, in characteristic 2, XORs packed
words by doubling.  The exp table is built one product per
element and the generator by a scalar search, both with a table-free
product on bit masks or digit lists, where the library doubles whole
blocks by a GF(p)-linear map and searches batches of digit matrices,
and the rational places by testing every (x, y) with the scalar norm and
trace, where the library forms all traces and norms as arrays.  A
separated curve's A is evaluated element by element, and a field is
embedded digit by digit, where the library applies each as one
GF(p)-linear map or evaluates A on whole arrays.  The stabilizer search tries every (a, b, c0) with
the exact identity, where the library filters all c0 at once by the
Hasse derivatives of B and solves every survivor's Q at once on index
arrays, and the group check composes every pair of maps, where the
library closes the set from generators, one generator with all maps in
one array pass.  The curve
group's closure is checked one scalar composition at a time, where the
library composes every pair or sampled triple as index arrays.  Both
groups' laws are kept here only as scalar references on plain tuples:
(a, b) pairs for the curve group and (a, b, c0, Q) for the stabilizer
maps, composed and inverted by the scalar field operations and the
polynomial helpers, where the library's one law per group runs on index
arrays (autgroup.ab_product and ab_inverse, sepcurve._compose and
_inverses), and each map acts on one point (apply_place,
affine_apply).  Code
invariance is decided for every map of a family by row-space
membership, where the library checks generators by transfer matrices,
and a curve automorphism's inverse is found by scanning, where the
library solves for it.  The transfer-matrix check itself is formed
here on the whole int64 matrix and its whole image, by one scaled pass
per binomial term from Pascal's triangle mod p, where the library
streams it a column block of the code's log matrix at a time in base-p
digit steps.  The group's orbits are walked one image place
at a time, where the library moves each place by every element at once
on the (a, b) arrays.  The
roots of B are found element by element and their multiplicities by
repeated division by X - e, and the standard model's constants by a
nested scan of every delta and gamma, where the library evaluates B,
its Hasse derivatives and the powers over whole arrays.  Two codes are
compared column by column with scalar divisions, where the library
forms every ratio as one array.  A code's rank is found by eliminating
its whole matrix, or its class blocks in lockstep once one log-domain
pass has checked the split, where the library proves it from the basis
keys alone; and the matrix's entries by scalar evaluation at each
place, where the library gathers them from the exp table.  A function,
a list of (coeff, i, j) terms of sum coeff x^i y^j, is evaluated one
place and one term at a time (evaluate_at), where rrspace.evaluate
forms its whole word over Theta on arrays.

Some helpers live here because only the tests use them: the prime
powers up to a bound, the local parameter at P_inf and the extended
evaluation through it, which the library replaces by a valuation rule,
the images of one place under a curve automorphism and under the
Frobenius, which the library forms for whole arrays of places or maps,
and a polynomial's value at one point and its composition with b X + c0
by scalar Horner, where the library evaluates at whole arrays of points
(poly.evaluate_array) and reads the Taylor coefficients off the Hasse
derivatives.  So do the polynomial kernels on coefficient lists through
scalar methods, where poly works on index arrays: trim, scale, sum,
difference, product, division with remainder, power and power mod m
(poly_trim .. poly_powmod; poly_power by square-and-multiply, where
poly.shifted_power expands c (X + s)^m by Lucas' theorem), the scalar
test that a point lies on the curve (on_curve), and the record of a
spec that the tests write as a spec file (spec_to_dict).
"""

import dataclasses
from functools import cache, partial

import numpy as np

from normtrace import codes
from normtrace.autgroup import CodeAut, CurveAut, ab_inverse, code_action
from normtrace.codes import BudgetExceeded
from normtrace.curve import AFFINE, P_INFINITY, Place
from normtrace.gf import build_field
from normtrace.sepcurve import (AffineMaps, SearchFieldTooSmall,
                                monomial_shift, mu_fixers, validate)


def lattice_dimension(q: int, r: int, ell: int) -> int:
    """#{(i, j) : i >= 0, 0 <= j < q^{r-1}, i q^{r-1} + j c <= ell q^{r-1}}."""
    h = q ** (r - 1)
    c = (q ** r - 1) // (q - 1)
    s = ell * h
    count = 0
    for j in range(h):
        for i in range(s // h + 1):
            if i * h + j * c <= s:
                count += 1
    return count


def semigroup_by_force(h: int, c: int, bound: int) -> list[int]:
    out = set()
    for a in range(bound // h + 1):
        for b in range(bound // c + 1):
            v = a * h + b * c
            if v <= bound:
                out.add(v)
    return sorted(out)


def basis_by_box(h: int, c: int, s: int) -> np.ndarray:
    """The exponents [i; j] of the monomials x^i y^j with i >= 0,
    0 <= j < h and i*h + j*c <= s, found by a loop over the whole box
    and sorted by pole order, as a (2, k) array."""
    terms = sorted((i * h + j * c, i, j) for j in range(h)
                   for i in range(s // h + 1) if i * h + j * c <= s)
    return np.array([(i, j) for _, i, j in terms],
                    dtype=np.int64).reshape(-1, 2).T


def mul_by_digits(ctx, a, b):
    """a b in GF(p^k) without tables, by shift and add: r += digit * a,
    then a *= X, reducing X^k by the monic modulus.  In characteristic 2
    on bit masks, else on lists of base-p digits."""
    p, k = ctx.p, ctx.k
    if p == 2:
        mask = sum(c << i for i, c in enumerate(ctx.modulus))
        r = 0
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            if a >> k:
                a ^= mask
            b >>= 1
        return r
    low = ctx.modulus[:k]
    fa = [a // p ** i % p for i in range(k)]
    r = [0] * k
    while b:
        b, d = divmod(b, p)
        if d:
            r = [(x + d * y) % p for x, y in zip(r, fa)]
        if b:
            top = fa.pop()
            fa.insert(0, 0)
            if top:
                fa = [(x - top * y) % p for x, y in zip(fa, low)]
    return sum(c * p ** i for i, c in enumerate(r))


def pow_by_digits(ctx, a, e):
    """a^e by square-and-multiply with mul_by_digits."""
    r = 1
    while e:
        if e & 1:
            r = mul_by_digits(ctx, r, a)
        a = mul_by_digits(ctx, a, a)
        e >>= 1
    return r


def generator_by_search(ctx):
    """The smallest nonzero index of full multiplicative order under
    mul_by_digits: c^(n / l) != 1 for every prime l dividing n = Q - 1,
    the primes found by trial division."""
    n = ctx.order - 1
    primes, m, d = [], n, 2
    while d * d <= m:
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        primes.append(m)
    return next(c for c in range(1, ctx.order)
                if all(pow_by_digits(ctx, c, n // ell) != 1 for ell in primes))


def exp_log_by_powers(ctx):
    """exp and log tables from sequential powers of the generator, one
    mul_by_digits product per element."""
    n = ctx.order - 1
    exp, log = [0] * n, [-1] * ctx.order
    v = 1
    for i in range(n):
        exp[i] = v
        log[v] = i
        v = mul_by_digits(ctx, v, ctx.generator)
    return exp, log


def places_by_search(curve):
    """The rational places, infinity first, by testing every (x, y) in
    GF(Q)^2 for norm(x) = trace(y) with the scalar relative norm and
    trace."""
    ctx, q, r = curve.ctx, curve.q, curve.r
    norms = [ctx.norm_rel(x, q, r) for x in ctx.elements()]
    traces = [ctx.trace_rel(y, q, r) for y in ctx.elements()]
    return [P_INFINITY] + [Place(AFFINE, x, y) for x in ctx.elements()
                           for y in ctx.elements() if norms[x] == traces[y]]


def on_curve(curve, x, y):
    """Whether norm(x) = trace(y), by the scalar relative norm and
    trace."""
    return (curve.ctx.norm_rel(x, curve.q, curve.r)
            == curve.ctx.trace_rel(y, curve.q, curve.r))


def poly_eval_mod(coeffs, x, p):
    out = 0
    for a in reversed(coeffs):
        out = (out * x + a) % p
    return out


def irreducible_by_trial(coeffs, p: int) -> bool:
    """Monic polynomial irreducibility by brute trial division over
    GF(p), via enumeration of all monic factors of degree <= deg/2."""
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    if deg <= 3:
        # a quadratic or cubic is reducible iff it has a root
        return all(poly_eval_mod(coeffs, x, p) for x in range(p))
    for d in range(1, deg // 2 + 1):
        for enc in range(p ** d):
            factor = []
            e = enc
            for _ in range(d):
                e, digit = divmod(e, p)
                factor.append(digit)
            factor.append(1)
            if _poly_divides(factor, coeffs, p):
                return False
    return True


@cache
def prime_powers(limit: int) -> tuple[tuple[int, int], ...]:
    """(p, k) for every prime power p^k <= limit, ascending in p^k; the
    primes by a sieve, not by the library's trial division."""
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for d in range(2, int(limit ** 0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = False
    out = []
    for p in np.flatnonzero(sieve).tolist():
        q, k = p, 1
        while q <= limit:
            out.append((q, p, k))
            q, k = q * p, k + 1
    return tuple((p, k) for _, p, k in sorted(out))


def _poly_divides(g, f, p):
    f = list(f)
    dg = len(g) - 1
    while len(f) - 1 >= dg and any(f):
        lead = f[-1]
        shift = len(f) - 1 - dg
        for i in range(dg + 1):
            f[shift + i] = (f[shift + i] - lead * g[i]) % p
        while f and f[-1] == 0:
            f.pop()
    return not any(f)


def apply_place(s, P):
    """The image of one place under s: P_inf is fixed, and (x, y) goes to
    (b x, b^c y + a)."""
    if P.is_infinity:
        return P_INFINITY
    ctx = s.curve.ctx
    return Place(AFFINE, ctx.mul(s.b, P.x),
                 ctx.add(ctx.mul(ctx.pow(s.b, s.curve.c), P.y), s.a))


def frobenius_place(curve, P, e):
    """The image of P under the coordinate Frobenius x -> x^{p^e}."""
    if P.is_infinity:
        return P_INFINITY
    ctx = curve.ctx
    return Place(AFFINE, ctx.frobenius(P.x, e), ctx.frobenius(P.y, e))


def code_action_by_places(code, g, word):
    """The code action on one word, place by place: the image place of
    each coordinate, and the scaled Frobenius of each entry."""
    curve = code.curve
    ctx = curve.ctx
    pos = {P: i for i, P in enumerate(curve.theta)}
    out = np.zeros_like(word)
    for i, P in enumerate(curve.theta):
        img = frobenius_place(curve, apply_place(g.aut, P), g.frob)
        out[pos[img]] = ctx.mul(g.scalar,
                                ctx.frobenius(int(word[i]), g.frob))
    return out


def is_code_automorphism_by_membership(code, g):
    """The code-automorphism verdict by row-space membership of the
    whole transformed generator matrix, with no transfer matrix."""
    return code.contains(code_action(code, g, code.matrix))


def pascal_passes(p, basis):
    """For each d, the pass (d, rows, src, binom) naming the rows
    x^i y^j of basis with C(j, d) nonzero mod p, the rows src of
    x^i y^{j-d} and C(j, d) mod p, from Pascal's triangle mod p; pass
    d = 0 covers every row in order.  None if some such x^i y^{j-d} is
    not in the basis."""
    i, j = basis
    index = {key: row for row, key in enumerate(zip(i.tolist(), j.tolist()))}
    top = int(j.max(initial=0)) + 1
    binom = np.zeros((top, top), dtype=np.int64)
    binom[:, 0] = 1
    for jj in range(1, top):
        binom[jj, 1:] = (binom[jj - 1, 1:] + binom[jj - 1, :-1]) % p
    passes = []
    for d in range(top):
        rows = np.flatnonzero(binom[j, d])
        src = [index.get(key) for key in zip(i[rows].tolist(),
                                             (j[rows] - d).tolist())]
        if None in src:
            return None
        passes.append((d, rows, np.array(src, dtype=np.int64),
                       binom[j[rows], d]))
    return passes


def transfer_image_whole(code, g):
    """T M on the whole int64 matrix, for the transfer matrix T that
    sends the row of x^i y^j to its image under g read in the basis, or
    None if some lowered monomial is missing from the basis: row (i, j)
    is the sum over d of s C(j, d) beta^{i + c (j - d)} alpha^d times
    row (i, j - d), one scaled pass of pascal_passes per d, where
    autgroup._transfer_blocks takes digit steps.  Only the basis and
    the matrix are read from the code."""
    passes = pascal_passes(code.curve.p, code.basis)
    if passes is None:
        return None
    curve = code.curve
    ctx, c = curve.ctx, curve.c
    n1 = ctx.order - 1
    inv = ab_inverse(curve, np.array([g.aut.a]), np.array([g.aut.b]))
    alpha, beta = (ctx.frobenius(int(v), g.frob) for v in inv[:, 0])
    log, exp = ctx.log_np, ctx.exp_np
    logs = log[code.matrix]
    weights = (code.basis[0] + c * code.basis[1]) * log[beta] + log[g.scalar]
    out = None
    for d, rows, src, binom in passes:
        if d and not alpha:
            break
        scale = (weights[src] + log[binom] + d * log[alpha]) % n1
        term = exp[logs[src] + scale[:, None]]
        if out is None:
            out = term
        else:
            out[rows] = ctx.vadd(out[rows], term)
    return out


def certified_whole(code, g):
    """True iff T M equals the whole image of the matrix under g."""
    moved = transfer_image_whole(code, g)
    return moved is not None and np.array_equal(
        moved, code_action(code, g, code.matrix))


def is_code_automorphism_whole(code, g):
    """The code-automorphism verdict of the whole-matrix check: T M
    equals the image of the whole matrix, or else the image stack lies
    in the row space."""
    return certified_whole(code, g) or code.contains(
        code_action(code, g, code.matrix))


def evaluation_matrix(curve, basis, n_inf):
    """The generator matrix of the monomials of basis over Theta,
    gathered from codes._log_matrix as AGCode.matrix gathers it."""
    return curve.ctx.exp_np[codes._log_matrix(curve, basis, n_inf)]


def with_matrix(code, matrix, **changes):
    """The code with the given generator matrix (and any other fields
    changed), stored as its one cached form, the log matrix, with no
    cached RREF."""
    logs = code.curve.ctx.log_np[matrix].astype(np.uint16)
    return dataclasses.replace(code, _log_matrix=logs, _rref=None, **changes)


def code_checks_by_elements(code, group):
    """code_checks' records with every map of each family tested by
    membership, where the library tests generators by their transfer
    matrices."""
    ctx = code.curve.ctx
    ident = CurveAut(code.curve, 0, 1)
    families = [
        (f"code invariance: {len(group)} curve automorphisms",
         (CodeAut(s) for s in group), f"ell={code.ell}"),
        (f"code invariance: {ctx.k} Frobenius powers",
         (CodeAut(ident, frob=e) for e in range(ctx.k)), ""),
        (f"code invariance: {ctx.order - 1} scalars",
         (CodeAut(ident, scalar=c) for c in ctx.nonzero()), ""),
    ]
    return [(name, all(is_code_automorphism_by_membership(code, g)
                       for g in maps), detail)
            for name, maps, detail in families]


def inverse_by_search(s):
    """The inverse of s found by scanning, where the library solves for
    it: b' is the nonzero element with b b' = 1, and a' the trace-zero
    element for which (a', b') sends the image of the place (0, 0)
    under s back to (0, 0)."""
    curve, ctx = s.curve, s.curve.ctx
    b = next(v for v in ctx.nonzero() if ctx.mul(s.b, v) == 1)
    origin = Place(AFFINE, 0, 0)
    image = apply_place(s, origin)
    a = next(t for t in sorted(curve.trace_zero)
             if apply_place(CurveAut(curve, t, b), image) == origin)
    return CurveAut(curve, a, b)


def fixed_places_by_places(s):
    return [P for P in s.curve.places if apply_place(s, P) == P]


def orbits_by_places(curve, group):
    """The orbits of the places under group, walked one apply_place
    image at a time: each place not yet seen, in canonical order, gives
    the sorted set of its images."""
    seen, out = set(), []
    for P in curve.places:
        if P in seen:
            continue
        orb = {apply_place(s, P) for s in group}
        seen |= orb
        out.append(sorted(orb, key=lambda img: (img.x, img.y)))
    return out


def compose_pair(curve, u, v):
    """The (a, b) pair of u after v, by the scalar field operations:
    (x, y) goes to (b2 x, b2^c y + a2), then to (b1 b2 x,
    b1^c (b2^c y + a2) + a1)."""
    ctx = curve.ctx
    (a1, b1), (a2, b2) = u, v
    return ctx.add(ctx.mul(ctx.pow(b1, curve.c), a2), a1), ctx.mul(b1, b2)


def inverse_pair(curve, u):
    """The (a, b) pair of u's inverse, by the scalar field operations:
    (x, y) = (b x', b^c y' + a) gives x' = x / b, y' = (y - a) / b^c."""
    ctx = curve.ctx
    a, b = u
    return ctx.neg(ctx.div(a, ctx.pow(b, curve.c))), ctx.inv(b)


def closure_by_compositions(curve, pairs, seed):
    """group_checks' closure verdict with the scalar law: every product
    of two (a, b) pairs up to 64 of them, else the 10,000 triples that
    group_checks draws, each product in the set and associative."""
    law = partial(compose_pair, curve)
    elems = set(pairs)
    if len(pairs) <= 64:
        return all(law(u, v) in elems for u in pairs for v in pairs)
    draws = np.random.default_rng(seed).integers(len(pairs), size=(3, 10_000))
    triples = ([pairs[i] for i in col] for col in draws.T.tolist())
    return all((uv := law(u, v)) in elems
               and law(uv, w) == law(u, law(v, w)) for u, v, w in triples)


def reduce_row_by_entries(ctx, R, pivots, vec):
    """Residual of one vector against unit-pivot RREF rows, entry by
    entry with the scalar field operations."""
    v = [int(c) for c in vec]
    for r, col in enumerate(pivots):
        f = v[col]
        if f:
            v = [ctx.sub(c, ctx.mul(f, int(rc))) for c, rc in zip(v, R[r])]
    return v


def add_by_digits(ctx, a, b):
    """a + b in GF(p^k), adding the base-p digits of the indices mod p."""
    p = ctx.p
    out, mult = 0, 1
    while a or b:
        a, da = divmod(a, p)
        b, db = divmod(b, p)
        out += (da + db) % p * mult
        mult *= p
    return out


def neg_by_digits(ctx, a):
    """-a in GF(p^k), negating the base-p digits of the index mod p."""
    p = ctx.p
    out, mult = 0, 1
    while a:
        a, da = divmod(a, p)
        out += -da % p * mult
        mult *= p
    return out


def rref_by_entries(ctx, mat):
    """Gauss-Jordan elimination entry by entry with ctx.add, ctx.mul and
    ctx.inv only: unit pivots found in index order, eliminated above and
    below.  Returns (rows as lists, pivot columns)."""
    M = [[int(c) for c in row] for row in mat]
    m, n = len(M), len(M[0]) if M else 0
    pivots = []
    for col in range(n):
        r = len(pivots)
        pr = next((i for i in range(r, m) if M[i][col]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        s = ctx.inv(M[r][col])
        M[r] = [ctx.mul(s, c) for c in M[r]]
        for i in range(m):
            if i != r and M[i][col]:
                f = ctx.mul(ctx.p - 1, M[i][col])  # index p - 1 is -1
                M[i] = [ctx.add(a, ctx.mul(f, c)) for a, c in zip(M[i], M[r])]
        pivots.append(col)
        if len(pivots) == m:
            break
    return M, tuple(pivots)


def rank(ctx, mat):
    """Rank by forward elimination on whole rows: each pivot clears its
    column in the rows below it only."""
    R = np.array(mat, dtype=ctx.dtype)
    row = 0
    for col in range(R.shape[1]):
        if row == len(R):
            break
        nz = np.flatnonzero(R[row:, col])
        if len(nz) == 0:
            continue
        pr = row + int(nz[0])
        R[[row, pr]] = R[[pr, row]]
        unit = ctx.vscale(ctx.inv(int(R[row, col])), R[row, col:])
        below = row + 1 + np.flatnonzero(R[row + 1:, col])
        R[below, col:] = ctx.vadd(
            R[below, col:], ctx.vmul_outer(ctx.vneg(R[below, col]), unit))
        row += 1
    return row


def ranks(ctx, stack):
    """The rank of each matrix of a 3-D stack, by forward elimination
    on all of them at once: column by column, each matrix takes as
    pivot its first row that is nonzero there and not yet a pivot row,
    and clears the column in its other such rows.  Zero rows, such as
    the padding of a shorter matrix, add no rank."""
    R = np.array(stack, dtype=ctx.dtype)
    if R.ndim != 3:
        raise ValueError("stack must be 3-dimensional")
    count, m, n = R.shape
    free = R.any(axis=2)  # nonzero and not yet a pivot row
    out = np.zeros(count, dtype=np.int64)
    at = np.arange(count)
    log, exp = ctx.log_np, ctx.exp_np
    inv = exp[-log % (ctx.order - 1)]  # 1/a by index
    for col in range(n):
        if not free.any():
            break
        hit = free & (R[:, :, col] != 0)
        has = hit.any(axis=1)
        row = hit.argmax(axis=1)
        free[at[has], row[has]] = False
        out += has
        # a matrix with no pivot here gets a junk unit row, but it is
        # zero at col on its free rows, so every factor is zero
        unit = exp[log[inv[R[at, row, col]]][:, None]
                   + log[R[at, row, col + 1:]]]
        factor = ctx.vneg(np.where(free, R[:, :, col], 0))
        R[:, :, col + 1:] = ctx.vadd(
            R[:, :, col + 1:], exp[log[factor][:, :, None] + log[unit][:, None]])
    return out


def theta_orbits(curve):
    """The affine places of curve.theta_coords as orbits of the
    scalings (x, y) -> (bx, b^c y), by index into its arrays: row u of
    the (h', Q - 1) array runs through (1, y_u) at x = g^0, ...,
    g^{Q-2}, g the field's generator.  The orbit of (x, y) meets the
    fibre x = 1 at y_u = y x^{-c}, wherever that fibre lies in the
    layout.  None unless the affine places are exactly such orbits,
    each place once."""
    _, xs, ys = curve.theta_coords
    ctx, q1 = curve.ctx, curve.ctx.order - 1
    lx, ly = ctx.log_np[xs], ctx.log_np[ys]
    if max(lx.max(), ly.max()) >= q1:
        return None  # a zero coordinate, at the zero slot of log_np
    fibre = np.flatnonzero(xs == 1)
    slot = np.full(ctx.order, -1)
    slot[ys[fibre]] = np.arange(len(fibre))
    inv_norm = (-curve.c * np.arange(q1)) % q1  # log x^{-c} by log x
    u = slot[ctx.exp_np[ly + inv_norm[lx]]]
    if u.min() < 0 or len(xs) != len(fibre) * q1:
        return None
    orbits = np.full(len(xs), -1)
    orbits[u * q1 + lx] = np.arange(len(xs))
    return None if orbits.min() < 0 else orbits.reshape(-1, q1)


# Entries of the split check's log-domain pass per chunk of rows.
SPLIT_CHUNK = 1 << 20


def rank_by_classes(curve, basis, matrix):
    """True if matrix, the evaluation of basis in the column layout of
    curve.theta_coords, has full row rank by the class blocks of the
    DFT split (see codes._evaluation_code); False if a class block
    falls short; None if the split does not hold.  It holds if
    - the affine columns are whole orbits, each column once
      (theta_orbits lists orbit u at x = g^0, ..., g^{Q-2});
    - every affine entry is nonzero and, along each orbit, log M[r, .]
      steps by e_r mod Q - 1: one log-domain pass over the matrix;
    - the P_inf column is nonzero in the rows of one class at most.
    The layout only proposes the orbits: the proof reads the entries.
    ranks eliminates all the blocks, P_inf and the fibre x = 1, in
    lockstep."""
    ctx, orbits = curve.ctx, theta_orbits(curve)
    q1 = ctx.order - 1
    e = (basis[0] + curve.c * basis[1]) % q1
    at_inf = e[matrix[:, 0] != 0]
    if orbits is None or (at_inf != at_inf[:1]).any():
        return None
    # (Q - 1, h) matrix columns: row l is the fibre x = g^l
    cols = curve.theta_coords[0][orbits.T]
    logs = ctx.log_np.astype(np.int32)  # log 0 is past Q - 2
    step = max(1, SPLIT_CHUNK // cols.size)
    for lo in range(0, len(e), step):
        log_m = logs[matrix[lo:lo + step].take(cols, axis=1)]
        steps = np.diff(log_m, axis=1)
        e_r = e[lo:lo + step, None, None].astype(np.int32)
        if log_m.max() >= q1 or not ((steps == e_r) | (steps == e_r - q1)).all():
            return None
    cols = np.append(cols[0], 0)  # the fibre, then P_inf
    order = np.argsort(e, kind="stable")
    counts = np.bincount(e)
    counts = counts[counts > 0]  # rows per class, by ascending e
    block = np.repeat(np.arange(len(counts)), counts)
    at = np.arange(len(e)) - np.repeat(np.cumsum(counts) - counts, counts)
    blocks = np.zeros((len(counts), counts.max(), len(cols)), ctx.dtype)
    blocks[block, at] = matrix[order][:, cols]
    return bool((ranks(ctx, blocks) == counts).all())


def evaluation_by_places(curve, basis, cols):
    """The affine columns cols of the code of basis (column layout of
    curve.theta_coords), by scalar evaluate_at at each place."""
    _, xs, ys = curve.theta_coords
    places = [Place(AFFINE, int(xs[c - 1]), int(ys[c - 1])) for c in cols]
    monomials = basis.T.tolist()
    return np.array([[evaluate_at(curve, [(1, i, j)], P) for P in places]
                     for i, j in monomials],
                    dtype=np.int64).reshape(len(monomials), len(cols))


def evaluate_at(curve, terms, P):
    """Value at the place P of sum coeff x^i y^j over the (coeff, i, j)
    of terms, in scalar arithmetic.  At an affine place the coordinates
    are substituted term by term; a negative exponent at a vanishing
    coordinate is a pole.  At P_inf a term of valuation 0 contributes
    its coefficient (it is a power of x^c y^{-h}, equal to 1 on the
    curve), one of positive valuation 0, and one of negative valuation
    is a pole.  ValueError at a pole."""
    ctx = curve.ctx
    out = 0
    for coeff, i, j in terms:
        if P.is_infinity:
            v = curve.val_infinity(i, j)
            if v < 0:
                raise ValueError(f"x^{i} y^{j} has a pole at P_inf")
            value = int(v == 0)
        elif (P.x == 0 and i < 0) or (P.y == 0 and j < 0):
            raise ValueError(f"x^{i} y^{j} has a pole at {P}")
        else:
            value = ctx.mul(ctx.pow(P.x, i), ctx.pow(P.y, j))
        out = ctx.add(out, ctx.mul(coeff, value))
    return out


def min_distance_full_enumeration(code, budget, stop_at=None,
                                  table_limit=1 << 16):
    """Minimum weight over all Q^k - 1 nonzero messages in element-index
    arrays: the trailing rows are tabulated up to table_limit words and
    every prefix, the zero one included, sweeps the table.  Same budget
    and stop_at contract as codes.min_distance_exhaustive."""
    ctx = code.curve.ctx
    Q = ctx.order
    k, n = code.k, code.n
    if Q ** k > budget:
        raise BudgetExceeded(
            f"message space {Q}^{k} exceeds budget {budget}")
    rows = [code.matrix[i] for i in range(k)]
    k2 = 1
    while k2 < k and Q ** (k2 + 1) <= table_limit:
        k2 += 1
    k2 = min(k2, k)
    k1 = k - k2
    table = np.zeros((1, n), dtype=np.int64)
    for row in rows[k1:]:
        blocks = [ctx.vadd(table, ctx.vscale(s, row)[None, :])
                  for s in range(Q)]
        table = np.vstack(blocks)
    best = n + 1
    for m in range(Q ** k1):
        prefix = np.zeros(n, dtype=np.int64)
        mm = m
        for i in range(k1):
            mm, digit = divmod(mm, Q)
            if digit:
                prefix = ctx.vadd(prefix, ctx.vscale(digit, rows[i]))
        block = ctx.vadd(table, prefix[None, :])
        weights = (block != 0).sum(axis=1)
        if m == 0:
            weights[0] = n + 1  # exclude the zero message
        w = int(weights.min())
        if w < best:
            best = w
            if stop_at is not None and best <= stop_at:
                break
    return best


def multiples_by_entries(ctx, row):
    """The words s * row for s = 0 .. Q - 1, as codes._word_kernel's
    multiples lays out one row: each entry by the scalar ctx.mul; in
    characteristic 2 the (k, Q, words) stack of bit plane j of every
    word, packed little-endian by np.packbits into uint64 words, in odd
    characteristic the (1, Q, n) element indices in the field's dtype."""
    n = len(row)
    words = np.array([[ctx.mul(s, a) for a in row.tolist()]
                      for s in range(ctx.order)], dtype=np.int64)
    if ctx.p != 2:
        return words[None].astype(ctx.dtype)
    planes = np.zeros((ctx.k, ctx.order, -(-n // 64) * 8), np.uint8)
    for j, plane in enumerate(planes):
        plane[:, :-(-n // 8)] = np.packbits(words >> j & 1, axis=-1,
                                            bitorder="little")
    return planes.view(np.uint64)


def naive_min_weight(code):
    """Scalar-arithmetic walk over the full message space."""
    ctx = code.curve.ctx
    Q, k, n = ctx.order, code.k, code.n
    best = n + 1
    for m in range(1, Q ** k):
        word = [0] * n
        mm = m
        for i in range(k):
            mm, digit = divmod(mm, Q)
            if digit:
                row = code.matrix[i]
                word = [ctx.add(w, ctx.mul(digit, int(r)))
                        for w, r in zip(word, row)]
        best = min(best, sum(1 for w in word if w))
    return best


def spec_to_dict(spec):
    """The record of a spec in the spec-file format that
    sepcurve.spec_from_dict reads, for the tests' spec files."""
    return {"p": spec.p, "field": spec.ctx.to_dict(),
            "A": [{"j": j, "a_j_index": c}
                  for j, c in sorted(spec.a_coeffs.items())],
            "B": list(spec.b_coeffs)}


def a_eval(spec, v):
    """A(v) for one element v of the spec's field, by the scalar field
    operations: the sum of a_j v^{p^j}."""
    ctx = spec.ctx
    out = 0
    for j, c in spec.a_coeffs.items():
        out = ctx.add(out, ctx.mul(c, ctx.pow(v, ctx.p ** j)))
    return out


def a_values_by_eval(spec):
    """A at every element of the spec's field, one scalar evaluation
    each."""
    return [a_eval(spec, w) for w in spec.ctx.elements()]


def embedding_by_digits(src, dst):
    """The embedding of src into dst sending X to the smallest root rho
    of src's modulus, one element at a time: the base-p digits of each
    index times the powers of rho."""
    def modulus_at(e):
        acc = 0
        for i, c in enumerate(src.modulus):
            acc = dst.add(acc, dst.mul(c, dst.pow(e, i)))
        return acc

    rho = next(e for e in dst.elements() if modulus_at(e) == 0)
    table = []
    for idx in range(src.order):
        acc, power = 0, 1
        while idx:
            idx, digit = divmod(idx, src.p)
            acc = dst.add(acc, dst.mul(digit, power))
            power = dst.mul(power, rho)
        table.append(acc)
    return table


def poly_trim(c):
    """The coefficient list c without its zero top entries ([] is zero)."""
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_scale(ctx, s, f):
    return poly_trim([ctx.mul(s, a) for a in f])


def poly_add(ctx, f, g):
    """f + g on coefficient lists."""
    out = [0] * max(len(f), len(g))
    for i, a in enumerate(f):
        out[i] = a
    for i, b in enumerate(g):
        out[i] = ctx.add(out[i], b)
    return poly_trim(out)


def poly_mul(ctx, f, g):
    """f g by the schoolbook double loop on scalars, the oracle of
    poly.mul."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = ctx.add(out[i + j], ctx.mul(a, b))
    return poly_trim(out)


def poly_div_rem(ctx, f, g):
    """Quotient and remainder of f by a nonzero g, by scalar long
    division; the remainder is the oracle of poly.rem."""
    g = poly_trim(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    dg = len(g) - 1
    lead_inv = ctx.inv(g[-1])
    r = poly_trim(f)
    q = [0] * max(len(r) - dg, 0)
    while len(r) > dg:
        c = ctx.mul(r[-1], lead_inv)
        if c:
            shift = len(r) - 1 - dg
            q[shift] = c
            for i in range(dg):
                r[shift + i] = ctx.sub(r[shift + i], ctx.mul(c, g[i]))
        r.pop()
    return q, poly_trim(r)


def poly_powmod(ctx, f, e, m):
    """f^e mod m by square-and-multiply on lists, the oracle of
    poly.powmod."""
    out = poly_div_rem(ctx, [1], m)[1]
    f = poly_div_rem(ctx, f, m)[1]
    while e:
        if e & 1:
            out = poly_div_rem(ctx, poly_mul(ctx, out, f), m)[1]
        f = poly_div_rem(ctx, poly_mul(ctx, f, f), m)[1]
        e >>= 1
    return out


def poly_neg(ctx, f):
    return [ctx.neg(a) for a in f]


def poly_sub(ctx, f, g):
    return poly_add(ctx, f, poly_neg(ctx, g))


def poly_power(ctx, f, e):
    """f^e by square-and-multiply, the oracle of poly.shifted_power."""
    out = [1]
    while e:
        if e & 1:
            out = poly_mul(ctx, out, f)
        f = poly_mul(ctx, f, f)
        e >>= 1
    return out


def evaluate_poly(ctx, f, x):
    """f(x) by scalar Horner."""
    out = 0
    for a in reversed(f):
        out = ctx.add(ctx.mul(out, x), a)
    return out


def compose_linear(ctx, f, b, c0):
    """f(b X + c0) by Horner on polynomials."""
    out = []
    for a in reversed(f):
        out = poly_add(ctx, poly_mul(ctx, out, [c0, b]), [a])
    return out


def a_apply_poly(spec, Q):
    """A(Q(X)) as a polynomial, via additivity of A: the term c Y^(p^j)
    sends Q to c sum_i Q_i^(p^j) X^(i p^j) (freshman's dream)."""
    ctx, out = spec.ctx, []
    for j, c in spec.a_coeffs.items():
        pj = ctx.p ** j
        term = [0] * (pj * (len(Q) - 1) + 1)
        for i, a in enumerate(Q):
            term[i * pj] = ctx.mul(c, ctx.pow(a, pj))
        out = poly_add(ctx, out, term)
    return out


def _solve_additive_preimage(spec_f, R, max_qdeg, a_values):
    """All polynomials Q with A(Q(X)) = R(X) and deg Q <= max_qdeg.

    Nonconstant coefficients are forced one by one from the top degree
    (the leading term of A(q X^e) is a_n q^{p^n} X^{e p^n} and the
    Frobenius is bijective); the constant term ranges over the
    A-preimages of what remains in a_values (A at every element).
    """
    ctx = spec_f.ctx
    p, n = ctx.p, spec_f.n
    pn = p ** n
    an = spec_f.a_coeffs[n]
    rest = list(R)
    coeffs = [0] * (max_qdeg + 1)
    while len(rest) - 1 >= 1:
        deg = len(rest) - 1
        if deg % pn or deg // pn > max_qdeg:
            return []
        e = deg // pn
        # q_e^{p^n} = lead / a_n, inverted through the Frobenius
        target = ctx.div(rest[-1], an)
        q_e = ctx.pow(target, p ** ((ctx.k - n) % ctx.k))
        if ctx.pow(q_e, pn) != target:
            return []
        coeffs[e] = q_e
        mono = [0] * e + [q_e]
        rest = poly_sub(ctx, rest, a_apply_poly(spec_f, mono))
        if len(rest) - 1 >= 1 and len(rest) - 1 >= deg:
            return []
    r0 = rest[0] if rest else 0
    out = []
    for w in np.flatnonzero(a_values == r0).tolist():
        q = list(coeffs)
        q[0] = w
        out.append(tuple(poly_trim(q)))
    return out


# An affine map x -> b x + c0, y -> a y + Q(x) of a stabilizer search, as
# the plain tuple (a, b, c0, Q) with Q's coefficients little-endian and
# trimmed: tuples sort like the rows of AffineMaps.
AFFINE_IDENTITY = (1, 1, 0, ())


def affine_tuples(maps):
    """The rows of an AffineMaps as (a, b, c0, Q) tuples, in row order."""
    return [(a, b, c0, tuple(poly_trim(q))) for a, b, c0, q in zip(
        maps.a.tolist(), maps.b.tolist(), maps.c0.tolist(), maps.q.tolist())]


def affine_rows(ctx, maps, width=None):
    """The AffineMaps rows of a list of (a, b, c0, Q) tuples over ctx, in
    list order, Q zero-padded to width columns (default: the widest Q)."""
    width = width or max([len(s[3]) for s in maps] + [1])
    q = np.zeros((len(maps), width), dtype=np.int64)
    for row, s in zip(q, maps):
        row[:len(s[3])] = s[3]
    abc = np.array([s[:3] for s in maps], dtype=np.int64).reshape(-1, 3)
    return AffineMaps(ctx, *abc.T, q)


def affine_apply(ctx, s, x, y):
    """The image of the point (x, y) under the map s."""
    a, b, c0, q = s
    return (ctx.add(ctx.mul(b, x), c0),
            ctx.add(ctx.mul(a, y), evaluate_poly(ctx, list(q), x)))


def affine_compose(ctx, s1, s2):
    """s1 after s2, by substitution: y -> a2 y + Q2(x) then
    a1 (a2 y + Q2(x)) + Q1(b2 x + c02)."""
    (a1, b1, c01, q1), (a2, b2, c02, q2) = s1, s2
    q = poly_add(ctx, poly_scale(ctx, a1, list(q2)),
                 compose_linear(ctx, list(q1), b2, c02))
    return (ctx.mul(a1, a2), ctx.mul(b1, b2),
            ctx.add(ctx.mul(b1, c02), c01), tuple(q))


def affine_inverse(ctx, s):
    """The inverse of s, solving x = b x' + c0 and y = a y' + Q(x') for
    x' = (x - c0) / b and y' = (y - Q(x')) / a."""
    a, b, c0, q = s
    b_inv, a_inv = ctx.inv(b), ctx.inv(a)
    c0_inv = ctx.neg(ctx.div(c0, b))
    q_inv = poly_scale(ctx, ctx.neg(a_inv),
                       compose_linear(ctx, list(q), b_inv, c0_inv))
    return a_inv, b_inv, c0_inv, tuple(q_inv)


def stabilizer_maps_by_loop(spec, search_field, budget=None):
    """The stabilizer search with no filter, sorted and unchecked: every
    (a, b, c0) with b^m = a composes B(b X + c0) one at a time and
    solves A(Q) for the rest."""
    validate(spec)
    ctx = search_field
    spec_f = spec.map_coefficients(ctx)
    m = spec_f.m
    max_qdeg = (m - 1) // (spec_f.p ** spec_f.n)
    survivors = mu_fixers(spec_f)
    cost = len(survivors) * (ctx.order - 1) * ctx.order
    if budget is not None and cost > budget:
        raise BudgetExceeded(f"search loop size {cost} exceeds budget {budget}")
    a_values = np.array(a_values_by_eval(spec_f))
    b_poly = list(spec_f.b_coeffs)
    found = []
    for a in survivors:
        a_b = poly_scale(ctx, a, b_poly)
        for b in ctx.nonzero():
            if ctx.pow(b, m) != a:
                continue
            for c0 in ctx.elements():
                R = poly_sub(ctx, compose_linear(ctx, b_poly, b, c0), a_b)
                for q in _solve_additive_preimage(spec_f, R, max_qdeg,
                                                  a_values):
                    found.append((a, b, c0, q))
    return sorted(found)


def stabilizer_search_by_loop(spec, search_field, budget=None):
    """The scalar loop's maps, checked by composing every pair."""
    found = stabilizer_maps_by_loop(spec, search_field, budget)
    closed_by_pairs(search_field, found)
    return found


def closed_by_pairs(ctx, maps):
    """Raise SearchFieldTooSmall unless the (a, b, c0, Q) maps over ctx
    are closed under inversion and under the composition of every pair."""
    elems = set(maps)
    for s in maps:
        if affine_inverse(ctx, s) not in elems:
            raise SearchFieldTooSmall(
                "found maps are not closed under inversion")
    for s1 in maps:
        for s2 in maps:
            if affine_compose(ctx, s1, s2) not in elems:
                raise SearchFieldTooSmall(
                    "found maps are not closed under composition")


def _extensions(ctx, max_order):
    """(t, GF(Q^t), the digit embedding into it) for t = 1, 2, ... while
    the order stays within max_order."""
    t = 1
    while ctx.order ** t <= max_order:
        E = build_field(ctx.p, ctx.k * t)
        yield t, E, embedding_by_digits(ctx, E)
        t += 1


def b_roots_by_division(spec, max_order=1 << 12):
    """(field, [(root, multiplicity), ...]) in the first extension where
    the multiplicities of B's roots sum to m: each element is tested by a
    scalar evaluation, and a root's multiplicity is the number of times
    X - e divides B.  None when no extension within max_order splits B."""
    for _, E, emb in _extensions(spec.ctx, max_order):
        b_poly = [emb[c] for c in spec.b_coeffs]
        roots = []
        for e in E.elements():
            mult, rest = 0, b_poly
            while evaluate_poly(E, rest, e) == 0:
                rest = poly_div_rem(E, rest, [E.neg(e), 1])[0]
                mult += 1
            if mult:
                roots.append((e, mult))
        if sum(mult for _, mult in roots) == spec.m:
            return E, roots
    return None


def standardization_by_scan(spec, max_order=1 << 10):
    """(field, gamma, delta, shift, extension degree) of the standard
    model by a nested scan: in each extension, the first delta with
    delta^{p^n - 1} = a_n / a_0 for which some gamma has
    gamma^m = delta b_m / a_0, and the first such gamma.  None when no
    extension within max_order has one."""
    p, n, m = spec.p, spec.n, spec.m
    for t, E, emb in _extensions(spec.ctx, max_order):
        a0, an = emb[spec.a_coeffs[0]], emb[spec.a_coeffs[n]]
        bm = emb[spec.b_coeffs[-1]]
        for delta in E.nonzero():
            if E.pow(delta, p ** n - 1) != E.div(an, a0):
                continue
            target = E.div(E.mul(delta, bm), a0)
            gamma = next((g for g in E.nonzero() if E.pow(g, m) == target),
                         None)
            if gamma is not None:
                return E, gamma, delta, emb[monomial_shift(spec)], t
    return None


def entrywise_diagonal_by_columns(ctx, A, B):
    """The column scaling carrying A onto B entry by entry, or None, one
    column at a time: every nonzero entry's ratio B / A by a scalar
    division, 1 for a column of zeros."""
    if not np.array_equal(A == 0, B == 0):
        return None
    n = A.shape[1]
    diag = np.ones(n, dtype=np.int64)
    for col in range(n):
        rows = np.nonzero(A[:, col])[0]
        if len(rows) == 0:
            continue
        ratios = {ctx.div(int(B[r, col]), int(A[r, col])) for r in rows}
        if len(ratios) != 1:
            return None
        diag[col] = ratios.pop()
    return diag


def _ext_gcd(a, b):
    if b == 0:
        return a, 1, 0
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def local_parameter_at_infinity(curve):
    """The exponents (u, v) of a monomial x^u y^v with valuation exactly
    1 at P_inf, from the extended Euclid relation u*h + v*c = -1; the
    (u, v) with minimal |u| + |v| is chosen, ties broken by smaller u."""
    h, c = curve.h, curve.c
    g, u0, v0 = _ext_gcd(h, c)
    assert g == 1
    u0, v0 = -u0, -v0  # now u0*h + v0*c = -1
    # All solutions are (u0 + t*c, v0 - t*h); |u| + |v| is convex in t
    # with its real minimum at t = -u0/c, so scanning around the floor
    # covers the integer minimum and its ties.
    t0 = -u0 // c
    best = None
    for t in range(t0 - 1, t0 + 3):
        u, v = u0 + t * c, v0 - t * h
        key = (abs(u) + abs(v), u)
        if best is None or key < best[0]:
            best = (key, (u, v))
    return best[1]


def extended_evaluate(curve, terms, P, n_P, t):
    """Value of t^{n_P} * f at P, f the (coeff, i, j) terms of
    evaluate_at and t = x^u y^v, (u, v) = t, a local parameter at P.

    This realizes evaluation codes whose divisor has weight n_P at an
    evaluation place: multiplying by t^{n_P} cancels the pole there.
    The product is formed exactly by exponent addition (the y exponent
    is kept unreduced) and evaluated with the same valuation rule."""
    u, v = t
    return evaluate_at(curve, [(c, i + n_P * u, j + n_P * v)
                               for c, i, j in terms], P)
