"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's own code paths: the lattice
count enumerates pairs directly, irreducibility is tested by trial
factorization, and semigroup membership by double loop.  The code
action, fixed places and row reduction are computed one place or one
entry at a time with the scalar field operations, where the library
works on whole arrays; field addition and negation digit by digit, where
the library uses Zech logarithms.  The minimum distance is found over
every nonzero message, where the library enumerates one message per
line through 0 in packed words.  The exp table is built one product per
element, where the library doubles whole blocks by a GF(p)-linear map,
and the rational places by testing every (x, y) with the scalar norm and
trace, where the library forms all traces and norms as arrays.  A
separated curve's A is evaluated element by element, and a field is
embedded digit by digit, where the library applies each as one
GF(p)-linear map.  The stabilizer search tries every (a, b, c0) with
the exact identity, where the library filters all c0 at once by the
Hasse derivatives of B, and the group check composes every pair of
maps, where the library closes the set from generators.  The roots of B
are found element by element and their multiplicities by repeated
division by X - e, and the standard model's constants by a nested scan
of every delta and gamma, where the library evaluates B, its Hasse
derivatives and the powers over whole arrays.
"""

import numpy as np

from normtrace import poly
from normtrace.autgroup import apply_place, frobenius_place
from normtrace.codes import BudgetExceeded
from normtrace.curve import AFFINE, P_INFINITY, Place
from normtrace.gf import build_field
from normtrace.sepcurve import (AffineAut, SearchFieldTooSmall,
                                _solve_additive_preimage, compose_affine,
                                inverse_affine, monomial_shift, mu_fixers,
                                validate)


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


def exp_log_by_powers(ctx):
    """exp and log tables from sequential powers of the generator, one
    table-free product per element."""
    n = ctx.order - 1
    exp, log = [0] * n, [-1] * ctx.order
    v = 1
    for i in range(n):
        exp[i] = v
        log[v] = i
        v = ctx._mul_raw(v, ctx.generator)
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


def code_action_by_places(code, g, word):
    """The code action on one word, place by place: the image place of
    each coordinate, and the scaled Frobenius of each entry."""
    curve = code.curve
    ctx = curve.ctx
    pos = {P: i for i, P in enumerate(code.places)}
    out = np.zeros_like(word)
    for i, P in enumerate(code.places):
        img = frobenius_place(curve, apply_place(g.aut, P), g.frob)
        out[pos[img]] = ctx.mul(g.scalar,
                                ctx.frobenius(int(word[i]), g.frob))
    return out


def fixed_places_by_places(s):
    return [P for P in s.curve.rational_places() if apply_place(s, P) == P]


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


def a_values_by_eval(spec):
    """A at every element of the spec's field, one scalar evaluation
    each."""
    return [spec.a_eval(w) for w in spec.ctx.elements()]


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
    a_values = np.array([spec_f.a_eval(w) for w in ctx.elements()])
    b_poly = list(spec_f.b_coeffs)
    found = []
    for a in survivors:
        a_b = poly.scale(ctx, a, b_poly)
        for b in ctx.nonzero():
            if ctx.pow(b, m) != a:
                continue
            for c0 in ctx.elements():
                R = poly.sub(ctx, poly.compose_linear(ctx, b_poly, b, c0), a_b)
                for q in _solve_additive_preimage(spec_f, R, max_qdeg,
                                                  a_values):
                    found.append(AffineAut(ctx, a, b, c0, q))
    return sorted(found, key=AffineAut.sort_key)


def stabilizer_search_by_loop(spec, search_field, budget=None):
    """The scalar loop's maps, checked by composing every pair."""
    found = stabilizer_maps_by_loop(spec, search_field, budget)
    closed_by_pairs(found)
    return found


def closed_by_pairs(maps):
    """Raise SearchFieldTooSmall unless the maps are closed under
    inversion and under the composition of every pair."""
    elems = set(maps)
    for s in maps:
        if inverse_affine(s) not in elems:
            raise SearchFieldTooSmall(
                "found maps are not closed under inversion")
    for s1 in maps:
        for s2 in maps:
            if compose_affine(s1, s2) not in elems:
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
            while poly.evaluate(E, rest, e) == 0:
                rest = poly.div_rem(E, rest, [E.neg(e), 1])[0]
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
