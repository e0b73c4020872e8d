"""The automorphism group of the norm-trace curve and its code action.

For r >= 3 the full group has order q^{r-1} (q^r - 1): an elementary
abelian normal subgroup of translations (x, y) -> (x, y + a) with
trace(a) = 0, extended by the cyclic scalings (x, y) -> (b x, b^c y).
Every element factors uniquely as scaling-then-translate, which is the
(a, b) normal form stored here:

    (x, y)  ->  (b x, b^c y + a).

The group fixes the place at infinity, permutes the zeros of x, and
stabilizes the code divisors, so it lifts to code automorphisms once
combined with field Frobenius twists and nonzero scalar multiplications
of codewords.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .codes import BLOCK_ENTRIES, AGCode
from .curve import AFFINE, NormTraceCurve, P_INFINITY, Place


@dataclass(frozen=True)
class CurveAut:
    """The curve automorphism (x, y) -> (b x, b^c y + a), with
    trace(a) = 0 and b nonzero (indices into the curve's field)."""

    curve: NormTraceCurve
    a: int
    b: int

    def __post_init__(self):
        if not 0 < self.b < self.curve.ctx.order:
            raise ValueError(f"scaling part {self.b} is not a nonzero "
                             f"element of GF({self.curve.ctx.order})")
        if self.a not in self.curve.trace_zero:
            raise ValueError(f"translation part {self.a} has nonzero trace")

    @property
    def is_identity(self) -> bool:
        return self.a == 0 and self.b == 1


def ab_product(curve: NormTraceCurve, a1, b1, a2, b2) -> np.ndarray:
    """The (a, b) rows of each (a1, b1) after (a2, b2), as int64 arrays:
    b = b1 b2, a = a1 + b1^c a2, with b1^c read from the curve's table
    of the norms x^c."""
    ctx = curve.ctx
    return np.stack([ctx.vadd(a1, ctx.vmul(curve.norms[b1], a2)),
                     ctx.vmul(b1, b2)]).astype(np.int64)


def ab_inverse(curve: NormTraceCurve, a, b) -> np.ndarray:
    """The (a, b) rows of each inverse, (-b^{-c} a, b^{-1}), as int64
    arrays; b^{-1} is b^{Q-2}, by the negated log, so 0 stays 0."""
    ctx = curve.ctx
    b_inv = ctx.vpow(b, ctx.order - 2)
    return np.stack([ctx.vneg(ctx.vmul(curve.norms[b_inv], a)),
                     b_inv]).astype(np.int64)


def group_arrays(curve: NormTraceCurve) -> tuple[np.ndarray, np.ndarray]:
    """The whole group as (a, b) index arrays, sorted by (a, b): the h
    sorted y over x = 0, each repeated Q - 1 times, paired with
    b = 1, ..., Q - 1 tiled h times.  Pair i has _slots i."""
    n1 = curve.ctx.order - 1
    return (np.repeat(curve.affine_xy[1][:curve.h], n1),
            np.tile(np.arange(1, n1 + 1), curve.h))


def enumerate_group(curve: NormTraceCurve) -> list[CurveAut]:
    """All q^{r-1} (q^r - 1) automorphisms, sorted by (a, b)."""
    a, b = group_arrays(curve)
    return [CurveAut(curve, u, v) for u, v in zip(a.tolist(), b.tolist())]


def short_orbits(curve: NormTraceCurve) -> list[list[Place]]:
    """Orbits strictly smaller than the full automorphism group: the
    fixed place at infinity and the q^{r-1} zeros of x."""
    return _orbits(curve, *group_arrays(curve))


def _slots(curve: NormTraceCurve, a, b) -> np.ndarray:
    """The dense slot of each pair (a, b) in a table of h (Q - 1) + 1
    entries: rank(a) (Q - 1) + b - 1, where rank(a) is the position of
    a among the trace-zero elements (curve._fibre(0)), read from
    NormTraceCurve.fibre_offsets over x = 0.  A pair outside the group,
    with b = 0 or a of nonzero trace, takes the last slot."""
    n1, h = curve.ctx.order - 1, curve.h
    rank = curve.fibre_offsets(0, a)
    return np.where((rank < h) & (b > 0), rank * n1 + b - 1, h * n1)


def _members(curve: NormTraceCurve, a, b) -> np.ndarray:
    """The table over _slots marking the pairs (a, b); the last slot,
    that of every pair outside the group, stays False."""
    marked = np.zeros(curve.h * (curve.ctx.order - 1) + 1, dtype=bool)
    marked[_slots(curve, a, b)] = True
    marked[-1] = False
    return marked


def _positions(curve: NormTraceCurve, x, y) -> np.ndarray | None:
    """The positions in curve.affine_xy of the points (x, y), index
    arrays, or None if one is off the curve, read from their offsets in
    the fibres (NormTraceCurve.fibre_offsets)."""
    offset = curve.fibre_offsets(x, y)
    if not ((0 <= offset) & (offset < curve.h)).all():
        return None
    return x * curve.h + offset


def _orbits(curve: NormTraceCurve, a: np.ndarray, b: np.ndarray
            ) -> list[list[Place]]:
    """The orbits of fewer than len(a) places under the pairs (a, b), in
    canonical order: each unseen affine place (x, y) goes to
    (b x, b^c y + a) under every pair at once, each image found at its
    position in affine_xy by _positions."""
    ctx, below = curve.ctx, len(a)
    xs, ys = curve.affine_xy
    bc = curve.norms[b]
    seen = np.zeros(len(xs) + 1, dtype=bool)  # a last False stops argmin
    out, i = [[P_INFINITY]] if below > 1 else [], 0
    while i < len(xs):
        at = _positions(curve, ctx.vscale(int(xs[i]), b),
                        ctx.vadd_scalar(ctx.vscale(int(ys[i]), bc), a))
        if at is None:
            raise ValueError("a map sends a place off the curve")
        at = np.sort(at)
        at = at[np.diff(at, prepend=-1) != 0]  # distinct places
        seen[at] = True
        if len(at) < below:
            out.append([Place(AFFINE, u, v) for u, v
                        in zip(xs[at].tolist(), ys[at].tolist())])
        i += 1 + int(seen[i + 1:].argmin())
    return out


def _coordinate_maps(s: CurveAut, frob: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Tables over all Q elements of the coordinate maps of s followed
    by the Frobenius x -> x^{p^frob}: x -> (b x)^{p^frob} and
    y -> (b^c y + a)^{p^frob}."""
    curve = s.curve
    ctx = curve.ctx
    elems = np.arange(ctx.order, dtype=np.int64)
    frob_map = ctx.vpow(elems, ctx.p ** frob)
    x_map = frob_map[ctx.vscale(s.b, elems)]
    y_map = frob_map[ctx.vadd_scalar(
        ctx.vscale(ctx.pow(s.b, curve.c), elems), s.a)]
    return x_map, y_map


def fixed_places(s: CurveAut) -> list[Place]:
    """The places s fixes in canonical order: P_inf, then the affine
    solutions of (b - 1) x = 0 and (1 - b^c) y = a.  Unless s is the
    identity, x = 0 and y = a / (1 - b^c), of trace zero since the norm
    b^c puts 1 - b^c in GF(q); if b^c = 1, every y if a = 0, else none."""
    curve, ctx = s.curve, s.curve.ctx
    if s.is_identity:
        return [P_INFINITY] + [P for x in ctx.elements()
                               for P in curve.x_fiber(x)]
    unit = ctx.sub(1, ctx.pow(s.b, curve.c))
    if unit:
        return [P_INFINITY, Place(AFFINE, 0, ctx.div(s.a, unit))]
    return [P_INFINITY] + ([] if s.a else list(curve.omega))


def _fixed_counts(curve: NormTraceCurve, a: np.ndarray, b: np.ndarray
                  ) -> np.ndarray:
    """len(fixed_places) of each non-identity (a, b), by its cases:
    2 if b^c != 1, else h + 1 if a = 0, else 1."""
    return np.where(curve.ctx.vpow(b, curve.c) != 1, 2,
                    np.where(a == 0, curve.h + 1, 1))


def group_checks(curve: NormTraceCurve, a: np.ndarray, b: np.ndarray,
                 seed: int
                 ) -> tuple[list[tuple[str, bool, str]], list[list[Place]]]:
    """(name, passed, detail) records for the group as int64 (a, b)
    arrays, and its short orbits: the order; closure and associativity
    (every pair up to 64 elements, else 10,000 triples drawn by
    numpy.random.default_rng(seed)); the inverses (-b^{-c} a, b^{-1});
    the short orbits; and the fixed-place bound.  Products and inverses
    are looked up by their _slots in the table of the given pairs
    (_members), where a pair outside the group is never found.  Odd
    characteristic needs the order in gf.TABLE_MAX_ORDER; a of nonzero
    trace raises ValueError."""
    n = len(a)
    want = curve.h * (curve.q ** curve.r - 1)
    checks = [("group order", n == want, f"{n} (expected {want})")]
    if n <= 64:
        (u, v), w, how = np.divmod(np.arange(n * n), n), None, "exhaustive"
    else:
        u, v, w = np.random.default_rng(seed).integers(n, size=(3, 10_000))
        how = "sampled 10000 triples"
    law = partial(ab_product, curve)
    members = _members(curve, a, b)
    x, y = (a[u], b[u]), (a[v], b[v])
    xy = law(*x, *y)
    closed = bool(members[_slots(curve, *xy)].all())
    if closed and w is not None:
        z = a[w], b[w]
        closed = np.array_equal(law(*xy, *z), law(*x, *law(*y, *z)))
    checks.append(("closure/associativity", closed, how))
    inverses = members[_slots(curve, *ab_inverse(curve, a, b))].all()
    checks.append(("inverses", bool(inverses), ""))
    short = _orbits(curve, a, b)
    sizes = sorted(len(o) for o in short)
    checks.append(("short orbits", sizes == [1, curve.h], f"sizes {sizes}"))
    bound = curve.h + 1
    moved = (a != 0) | (b != 1)
    worst = int(_fixed_counts(curve, a, b)[moved].max(initial=0))
    checks.append((f"fixed places <= {bound}", worst <= bound, f"max {worst}"))
    return checks, short


# ----------------------------------------------------------------------
# Code automorphisms
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CodeAut:
    """A candidate code automorphism: a curve automorphism, a Frobenius
    exponent e (entrywise x -> x^{p^e}), and a nonzero scalar."""

    aut: CurveAut
    frob: int = 0
    scalar: int = 1

    def __post_init__(self):
        ctx = self.aut.curve.ctx
        if not 0 <= self.frob < ctx.k:
            raise ValueError(f"Frobenius exponent must lie in 0..{ctx.k - 1}")
        if not 0 < self.scalar < ctx.order:
            raise ValueError(f"scalar {self.scalar} is not a nonzero "
                             f"element of GF({ctx.order})")


def _place_permutation(code: AGCode, g: CodeAut) -> np.ndarray:
    """perm[i] is the column of the image of the code's i-th place
    under the curve automorphism then the coordinate Frobenius, read by
    _positions: affine place h - 1 + j is column j.

    Raises ValueError if an image is not a place of the code (only a
    map doctored past CurveAut's checks can do that).
    """
    curve = code.curve
    if g.aut.curve != curve:
        raise ValueError("automorphism curve does not match the code")
    _, xs, ys = curve.theta_coords
    x_map, y_map = _coordinate_maps(g.aut, g.frob)
    at = _positions(curve, x_map[xs], y_map[ys])
    if at is None or at.min() < curve.h:  # off the curve, or x = 0
        raise ValueError("the map sends a place outside the code's places")
    perm = np.zeros(code.n, dtype=np.int64)  # P_inf is fixed
    perm[1:] = at - (curve.h - 1)
    return perm


def code_action(code: AGCode, g: CodeAut, word: np.ndarray) -> np.ndarray:
    """Transform one codeword, or every row of a stack of them: push
    coordinates forward along the place permutation (curve automorphism
    then coordinate Frobenius), apply the Frobenius to every entry, and
    scale."""
    perm = _place_permutation(code, g)
    ctx = code.curve.ctx
    elems = np.arange(ctx.order, dtype=np.int64)
    entry_map = ctx.vscale(g.scalar, ctx.vpow(elems, ctx.p ** g.frob))
    word = np.asarray(word)
    out = np.empty_like(word)
    out[..., perm] = entry_map[word]
    return out


def is_code_automorphism(code: AGCode, g: CodeAut, inverse=None) -> bool:
    """True iff the transform maps the code onto itself.  inverse is the
    (a, b) pair of g's curve automorphism's inverse, from ab_inverse
    when None.

    The image of the generator matrix M is compared with T M, for the
    transfer matrix T of _transfer_blocks, one block of at most
    BLOCK_ENTRIES entries (at least one column) at a time, reading only
    the code's log matrix: image column j is entry[L[:, src[j]]], for
    the log matrix L, the inverse src of the place permutation and the
    image entry of each log (_image_entries).  If every block agrees,
    each image row is a combination of rows of M, so the map sends the
    code into itself, and onto it, being a bijective semilinear
    monomial map.  Otherwise membership of the whole image stack
    decides."""
    perm = _place_permutation(code, g)
    if inverse is None:
        inverse = ab_inverse(code.curve, np.array([g.aut.a]),
                             np.array([g.aut.b]))[:, 0]
    src = np.empty_like(perm)
    src[perm] = np.arange(len(perm))
    entry, logs = _image_entries(code.curve.ctx, g), code.log_matrix
    if code.lowering() is not None and all(
            np.array_equal(entry.take(logs.take(src[cols], axis=1)), moved)
            for cols, moved in _transfer_blocks(code, g, inverse)):
        return True
    return code.contains(entry[logs.take(src, axis=1)])


def _image_entries(ctx, g: CodeAut) -> np.ndarray:
    """The entry map x -> s x^{p^frob} of g at the element exp_np[e] of
    each log e in 0..2(Q - 1), the zero slot last, in the element dtype:
    2Q - 1 entries, so a log matrix indexes it directly."""
    elems = ctx.exp_np[:2 * ctx.order - 1]
    return ctx.vscale(g.scalar, ctx.vpow(elems, ctx.p ** g.frob)).astype(
        ctx.dtype)


def _transfer_blocks(code: AGCode, g: CodeAut, inverse):
    """T M one block of columns at a time, as (cols, block) pairs, where
    T sends the row of x^i y^j to its image under g read in the basis;
    the code must have a lowering table.  inverse is the (a, b) pair of
    the inverse of g's curve automorphism.

    With (alpha, beta) that pair raised to p^frob and s the scalar, g
    turns x^i y^j into s (beta x)^i (beta^c y + alpha)^j, so
    T = s diag(beta^i) L diag(beta^{c m}) for the Pascal matrix
    L[j, m] = C(j, m) alpha^{j - m} in y, within each i.  A block is
    first the code's log matrix scaled by s beta^{i + c j} in one gather
    (a uint16 log scale, with no mask: a zero's slot plus a scale reads
    exp_np's zero tail), then multiplied by L.  By Lucas' theorem L is
    the Kronecker product over the base-p digits t of j of the Pascal
    matrices of alpha^{p^t}, each the product of p - 1 unit bidiagonal
    steps (the Taylor shift of von zur Gathen and Gerhard): the steps
    of AGCode.lowering, in order, where step (w, rows, src) adds
    alpha^w times rows src, as they were before the step, to rows rows.
    A step's product is the log-domain product exp[log e + w log alpha],
    tabulated once over the Q elements e, so that a block pays one
    gather for it.  A pure scaling (alpha = 0) takes no step.  The
    blocks are gathered in the element dtype, a quarter of int64's
    bytes or less."""
    curve = code.curve
    ctx, c = curve.ctx, curve.c
    n1 = ctx.order - 1
    alpha, beta = (ctx.frobenius(int(v), g.frob) for v in inverse)
    log, exp = ctx.log_np, ctx.exp_np.astype(ctx.dtype)
    i, j = code.basis
    scale = ((i + c * j) * log[beta] + log[g.scalar]) % n1
    scale = scale.astype(np.uint16)[:, None]
    steps = [(rows, src, exp.take(log + w * log[alpha] % n1))
             for w, rows, src in code.lowering()] if alpha else []
    logs = code.log_matrix
    width = max(1, BLOCK_ENTRIES // code.k)
    for lo in range(0, code.n, width):
        out = exp.take(logs[:, lo:lo + width] + scale)
        for rows, src, times in steps:
            out[rows] = ctx.vadd(out[rows], times.take(out[src]))
        yield slice(lo, lo + width), out


def generators(curve: NormTraceCurve) -> list[CurveAut]:
    """The primitive scaling (0, g), then the translations by the GF(p)-
    basis of the trace-zero elements taken greedily in ascending order."""
    ctx = curve.ctx
    basis, span = [], {0}
    for a in sorted(curve.trace_zero):
        if a not in span:
            basis.append(a)
            span = {ctx.add(u, ctx.mul(m, a)) for u in span
                    for m in range(ctx.p)}
    return ([CurveAut(curve, 0, ctx.generator)]
            + [CurveAut(curve, a, 1) for a in basis])


def _primitive(ctx, b: int) -> bool:
    """True iff b has multiplicative order Q - 1."""
    return math.gcd(int(ctx.log_np[b]), ctx.order - 1) == 1


def generates(curve: NormTraceCurve, gens: list[CurveAut]) -> bool:
    """True iff gens, a scaling (0, b) then e(r - 1) translations
    (q = p^e), generate the whole group.  b must have order Q - 1, so
    (0, b) generates the scalings.  The translation parts must span h
    elements over GF(p), counted by one FieldCtx.linear_map over all
    p^{e(r-1)} digit vectors; the trace-zero elements are a GF(p)-space
    of h elements, so the translations then give all of them.  Every
    (a, b) is the translation (a, 1) after the scaling (0, b)."""
    ctx = curve.ctx
    m = curve.e * (curve.r - 1)
    if not gens or gens[0].a != 0 or not _primitive(ctx, gens[0].b):
        return False
    parts = [t.a for t in gens[1:] if t.b == 1]
    if len(parts) != m or len(gens) != m + 1:
        return False
    span = np.sort(ctx.linear_map(parts + [0] * (ctx.k - m),
                                  np.arange(ctx.p ** m)))
    return 1 + np.count_nonzero(span[1:] != span[:-1]) == curve.h


def code_checks(code: AGCode) -> list[tuple[str, bool, str]]:
    """(name, passed, detail) records for the invariance of the code
    under all h (Q - 1) curve automorphisms, every Frobenius power and
    every nonzero scalar.

    Code automorphisms form a group, so each family is checked on
    generators: the maps of generators(curve); Frobenius^1, whose e-th
    power is Frobenius^e by the definition of code_action; and the
    primitive scalar.  A family passes only if its generators pass and
    they generate it (generates, and the scalar's order).  One
    ab_inverse call inverts every map's curve automorphism, and each
    check is handed its inverse."""
    curve, ctx = code.curve, code.curve.ctx
    gens = generators(curve)
    ident = CurveAut(curve, 0, 1)
    families = [
        (f"code invariance: {curve.h * (ctx.order - 1)} curve automorphisms",
         generates(curve, gens), [CodeAut(s) for s in gens],
         f"ell={code.ell}"),
        (f"code invariance: {ctx.k} Frobenius powers",
         True, [CodeAut(ident, frob=1)], ""),
        (f"code invariance: {ctx.order - 1} scalars",
         _primitive(ctx, ctx.generator),
         [CodeAut(ident, scalar=ctx.generator)], ""),
    ]
    a, b = np.array([(g.aut.a, g.aut.b) for _, _, maps, _ in families
                     for g in maps]).T
    inverse = dict(zip(zip(a.tolist(), b.tolist()),
                       ab_inverse(curve, a, b).T.tolist()))
    return [(name, proof and all(
        is_code_automorphism(code, g, inverse[g.aut.a, g.aut.b])
        for g in maps), detail) for name, proof, maps, detail in families]
