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

import random
from dataclasses import dataclass

import numpy as np

from .codes import AGCode
from .curve import NormTraceCurve, P_INFINITY, Place


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

    def to_dict(self) -> dict:
        return {"a_index": self.a, "b_index": self.b}


def identity_aut(curve: NormTraceCurve) -> CurveAut:
    return CurveAut(curve, 0, 1)


def _compose_ab(curve: NormTraceCurve, ab1: tuple[int, int],
                ab2: tuple[int, int]) -> tuple[int, int]:
    """The (a, b) pair of ab1 after ab2: b = b1 b2, a = a1 + b1^c a2."""
    ctx = curve.ctx
    (a1, b1), (a2, b2) = ab1, ab2
    return ctx.add(a1, ctx.mul(ctx.pow(b1, curve.c), a2)), ctx.mul(b1, b2)


def compose(s1: CurveAut, s2: CurveAut) -> CurveAut:
    """Apply s2 first, then s1."""
    if s1.curve != s2.curve:
        raise ValueError("automorphisms of different curves")
    return CurveAut(s1.curve, *_compose_ab(s1.curve, (s1.a, s1.b),
                                           (s2.a, s2.b)))


def inverse(s: CurveAut) -> CurveAut:
    curve = s.curve
    ctx = curve.ctx
    b_inv = ctx.inv(s.b)
    a_inv = ctx.neg(ctx.mul(ctx.pow(b_inv, curve.c), s.a))
    return CurveAut(curve, a_inv, b_inv)


def apply_place(s: CurveAut, P: Place) -> Place:
    """Image of a place; fixes P_inf and stays on the curve."""
    if P.is_infinity:
        return P_INFINITY
    ctx = s.curve.ctx
    return Place("affine", ctx.mul(s.b, P.x),
                 ctx.add(ctx.mul(ctx.pow(s.b, s.curve.c), P.y), s.a))


def enumerate_group(curve: NormTraceCurve) -> list[CurveAut]:
    """All q^{r-1} (q^r - 1) automorphisms, sorted by (a, b)."""
    return [CurveAut(curve, a, b) for a in sorted(curve.trace_zero)
            for b in curve.ctx.nonzero()]


def orbits(curve: NormTraceCurve, group=None) -> list[list[Place]]:
    """Orbit decomposition of the rational places under the group
    (default: the full automorphism group), in canonical order."""
    if group is None:
        group = enumerate_group(curve)
    seen: set[Place] = set()
    out = []
    for P in curve.places:
        if P in seen:
            continue
        orb = {apply_place(s, P) for s in group}
        seen |= orb
        out.append(sorted(orb, key=Place.sort_key))
    return out


def short_orbits(curve: NormTraceCurve, group=None) -> list[list[Place]]:
    """Orbits strictly smaller than the group (default: the full
    automorphism group): the fixed place at infinity and the q^{r-1}
    zeros of x."""
    if group is None:
        group = enumerate_group(curve)
    return [orb for orb in orbits(curve, group) if len(orb) < len(group)]


def orbit_report(orbit_list: list[list[Place]]) -> list[list[dict]]:
    """Orbits as JSON-ready lists of place records."""
    return [[P.to_dict() for P in orb] for orb in orbit_list]


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
    places picked from curve.affine_xy; only these become Place objects."""
    xs, ys = s.curve.affine_xy
    x_map, y_map = _coordinate_maps(s)
    fixed = (x_map[xs] == xs) & (y_map[ys] == ys)
    return [P_INFINITY] + [Place("affine", x, y) for x, y
                           in zip(xs[fixed].tolist(), ys[fixed].tolist())]


def group_checks(curve: NormTraceCurve, group: list[CurveAut], seed: int
                 ) -> tuple[list[tuple[str, bool, str]], list[list[Place]]]:
    """(name, passed, detail) records for the group: its order, closure
    and associativity (every pair up to 64 elements, else 10,000 triples
    drawn by random.Random(seed)), inverses, the short orbits and the
    fixed-place bound.  Also returns the short orbits it computed."""
    want = curve.h * (curve.q ** curve.r - 1)
    checks = [("group order", len(group) == want,
               f"{len(group)} (expected {want})")]
    pairs = [(s.a, s.b) for s in group]
    closed, how = _closure(curve, pairs, seed)
    checks.append(("closure/associativity", closed, how))
    elems = set(pairs)
    checks.append(("inverses", all((t.a, t.b) in elems
                                   for t in map(inverse, group)), ""))
    short = short_orbits(curve, group)
    sizes = sorted(len(o) for o in short)
    checks.append(("short orbits", sizes == [1, curve.h], f"sizes {sizes}"))
    bound = curve.h + 1
    worst = max(len(fixed_places(s)) for s in group if not s.is_identity)
    checks.append((f"fixed places <= {bound}", worst <= bound, f"max {worst}"))
    return checks, short


def _closure(curve: NormTraceCurve, pairs: list[tuple[int, int]], seed: int
             ) -> tuple[bool, str]:
    """(passed, detail) for the closure of the (a, b) pairs: every
    product of two up to 64 pairs, else 10,000 triples drawn by
    random.Random(seed) (randrange reads the stream of rng.choice), each
    product in the set and associative.  Pairs are composed as index
    arrays and looked up among the sorted keys a * Q + b; odd
    characteristic needs the order within gf.TABLE_MAX_ORDER."""
    ctx, n = curve.ctx, len(pairs)
    elems = np.array(pairs, dtype=np.int64).T
    if n <= 64:
        (u, v), w, how = np.divmod(np.arange(n * n), n), None, "exhaustive"
    else:
        rng = random.Random(seed)
        u, v, w = np.array([rng.randrange(n) for _ in range(30_000)]
                           ).reshape(-1, 3).T
        how = "sampled 10000 triples"

    def law(ab1, ab2):  # _compose_ab on arrays
        (a1, b1), (a2, b2) = ab1, ab2
        return np.stack([ctx.vadd(a1, ctx.vmul(ctx.vpow(b1, curve.c), a2)),
                         ctx.vmul(b1, b2)]).astype(np.int64)

    x, y = elems[:, u], elems[:, v]
    xy = law(x, y)
    keys = np.sort(elems[0] * ctx.order + elems[1])
    key = xy[0] * ctx.order + xy[1]
    at = np.minimum(np.searchsorted(keys, key), n - 1)
    closed = bool((keys[at] == key).all())
    if closed and w is not None:
        z = elems[:, w]
        closed = np.array_equal(law(xy, z), law(x, law(y, z)))
    return closed, how


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

    def to_dict(self) -> dict:
        return {"a_index": self.aut.a, "b_index": self.aut.b,
                "frob": self.frob, "scalar_index": self.scalar}


def _place_permutation(code: AGCode, g: CodeAut) -> np.ndarray:
    """perm[i] is the column of the image of the code's i-th place
    under the curve automorphism then the coordinate Frobenius.

    Raises ValueError if an image is not a place of the code (only a
    map doctored past CurveAut's checks can do that).
    """
    if g.aut.curve != code.curve:
        raise ValueError("automorphism curve does not match the code")
    order = code.curve.ctx.order
    pos, xs, ys = code.curve.theta_coords
    x_map, y_map = _coordinate_maps(g.aut, g.frob)
    keys = xs * order + ys  # ascending, as affine_xy is sorted by (x, y)
    img = x_map[xs] * order + y_map[ys]
    at = np.minimum(np.searchsorted(keys, img), len(keys) - 1)
    if not np.array_equal(keys[at], img):
        raise ValueError("the map sends a place outside the code's places")
    perm = np.arange(code.n)  # P_inf is fixed
    perm[pos] = pos[at]
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


def is_code_automorphism(code: AGCode, g: CodeAut) -> bool:
    """True iff the transform maps the code onto itself: the whole
    generator matrix is transformed at once and tested as one stack."""
    return code.contains(code_action(code, g, code.matrix))


def code_checks(code: AGCode, group: list[CurveAut]
                ) -> list[tuple[str, bool, str]]:
    """(name, passed, detail) records for the invariance of the code
    under every curve automorphism in the group, every Frobenius power
    and every nonzero scalar."""
    ctx = code.curve.ctx
    ident = identity_aut(code.curve)
    families = [
        (f"code invariance: {len(group)} curve automorphisms",
         (CodeAut(s) for s in group), f"ell={code.ell}"),
        (f"code invariance: {ctx.k} Frobenius powers",
         (CodeAut(ident, frob=e) for e in range(ctx.k)), ""),
        (f"code invariance: {ctx.order - 1} scalars",
         (CodeAut(ident, scalar=c) for c in ctx.nonzero()), ""),
    ]
    return [(name, all(is_code_automorphism(code, g) for g in maps), detail)
            for name, maps, detail in families]
