"""Separated-polynomial plane curves A(y) = B(x) and their automorphisms.

A spec holds an additive polynomial A(Y) = a_n Y^{p^n} + ... + a_0 Y
(a_0, a_n nonzero) and a polynomial B(X) of degree m coprime to p, with
deg >= 4, n >= 1, m >= 2.  The norm-trace curve is the special case
A = trace, B = X^c.

Provided here:
  * validation of the defining conditions and the genus formula;
  * the largest d with A(Y) p^d-linearized (gcd of the exponents);
  * classification when m is not 1 mod p^n; when B has a single root:
    either the curve straightens to X^m = Y^{p^n} + Y (small m dividing
    p^n + 1, A two-term), or the automorphism group is the explicit
    translations-by-kernel extended by m(p^d - 1) scalings;
  * an exhaustive search for the stabilizer of the infinite place as
    affine maps x -> b x + c0, y -> a y + Q(x), checked against the
    exact polynomial identity the automorphism condition imposes, and
    the checks of what it found against the classification;
  * divisibility bounds on the prime-to-p stabilizer part read off the
    root multiplicities of B;
  * the explicit substitution carrying a two-term curve with monomial
    B onto the standard X^m = Y^{p^n} + Y model.

All coefficients are integer-encoded field elements of a FieldCtx.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from itertools import count
from math import gcd, lcm

import numpy as np

from . import poly
from .gf import (BudgetExceeded, FieldCtx, build_field, check_order,
                 field_from_dict, prime_power)


class SearchFieldTooSmall(ValueError):
    """The found map set is not closed under composition, so the search
    field misses roots of unity or kernel elements."""


# ----------------------------------------------------------------------
# Spec
# ----------------------------------------------------------------------

@dataclass
class SeparatedCurveSpec:
    """Defining data of the curve A(Y) = B(X) over a host field.

    a_coeffs maps the exponent index j to the coefficient of Y^{p^j};
    b_coeffs lists b_0 .. b_m.  Coefficients are element indices of ctx.
    """

    ctx: FieldCtx
    a_coeffs: dict[int, int]
    b_coeffs: tuple[int, ...]

    def __post_init__(self):
        self.a_coeffs = {j: c for j, c in self.a_coeffs.items() if c}
        self.b_coeffs = tuple(self.b_coeffs)

    @property
    def p(self) -> int:
        return self.ctx.p

    @property
    def n(self) -> int:
        return max(self.a_coeffs)

    @property
    def m(self) -> int:
        return len(self.b_coeffs) - 1

    @property
    def degree(self) -> int:
        return max(self.p ** self.n, self.m)

    @property
    def two_term(self) -> bool:
        """A(Y) = a_n Y^{p^n} + a_0 Y."""
        return set(self.a_coeffs) == {0, self.n}

    def a_eval(self, v: int) -> int:
        ctx = self.ctx
        out = 0
        for j, c in self.a_coeffs.items():
            out = ctx.add(out, ctx.mul(c, ctx.pow(v, ctx.p ** j)))
        return out

    def a_values(self) -> np.ndarray:
        """A at every element of the field: A is GF(p)-linear, so this is
        one linear map of its values at the basis X^j."""
        ctx = self.ctx
        return ctx.linear_map([self.a_eval(ctx.p ** j) for j in range(ctx.k)],
                              np.arange(ctx.order))

    def a_apply_poly(self, Q) -> list[int]:
        """A(Q(X)) as a polynomial, via additivity of A."""
        ctx = self.ctx
        out = []
        for j, c in self.a_coeffs.items():
            out = poly.add(ctx, out,
                           poly.scale(ctx, c, poly.frobenius(ctx, Q, j)))
        return out

    def map_coefficients(self, dst: FieldCtx) -> "SeparatedCurveSpec":
        """The spec over dst, its coefficients carried by embed_field;
        the spec itself when dst is already its field."""
        if dst == self.ctx:
            return self
        emb = embed_field(self.ctx, dst)
        return SeparatedCurveSpec(dst,
                                  {j: emb[c] for j, c in self.a_coeffs.items()},
                                  tuple(emb[c] for c in self.b_coeffs))

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "field": self.ctx.to_dict(),
            "A": [{"j": j, "a_j_index": c}
                  for j, c in sorted(self.a_coeffs.items())],
            "B": list(self.b_coeffs),
        }


_JSON_KINDS = {dict: "an object", list: "an array", int: "an integer"}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)  # JSON true is no integer


def _entry(d, key, kind, where="spec"):
    """d[key], which must be present and of the JSON kind given;
    ValueError otherwise."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be an object")
    if key not in d:
        raise ValueError(f"{where} has no {key!r} entry")
    v = d[key]
    if not (_is_int(v) if kind is int else isinstance(v, kind)):
        raise ValueError(f"{where} entry {key!r} must be {_JSON_KINDS[kind]}")
    return v


def _element(ctx: FieldCtx, v, where: str) -> int:
    if not _is_int(v) or not 0 <= v < ctx.order:
        raise ValueError(f"{where} {v!r} is not an element index of "
                         f"GF({ctx.order})")
    return v


def spec_from_dict(d) -> SeparatedCurveSpec:
    """The spec of a record in the form to_dict writes.  Every malformed
    record raises ValueError: not an object, a missing key, a value of
    the wrong type, an index outside the field, or a repeated A term j."""
    field = _entry(d, "field", dict)
    _entry(field, "p", int, "field")
    _entry(field, "k", int, "field")
    if field.get("modulus") is not None:
        if not all(map(_is_int, _entry(field, "modulus", list, "field"))):
            raise ValueError("field modulus must list integers")
    if field.get("generator_index") is not None:
        _entry(field, "generator_index", int, "field")
    ctx = field_from_dict(field)
    if ctx.p != _entry(d, "p", int):
        raise ValueError("spec p does not match field characteristic")
    a = {}
    for e in _entry(d, "A", list):
        j = _entry(e, "j", int, "A term")
        if j in a:
            raise ValueError(f"A term j = {j} is listed twice")
        a[j] = _element(ctx, _entry(e, "a_j_index", int, "A term"), "a_j_index")
    return SeparatedCurveSpec(ctx, a, tuple(_element(ctx, b, "B coefficient")
                                            for b in _entry(d, "B", list)))


def norm_trace_spec(q: int, r: int, ctx: FieldCtx | None = None) -> SeparatedCurveSpec:
    """The norm-trace curve as a separated-polynomial spec:
    A = Y^{q^{r-1}} + ... + Y, B = X^{(q^r-1)/(q-1)} over GF(q^r)."""
    p, e = prime_power(q)
    if ctx is None:
        ctx = build_field(p, e * r)
    c = (q ** r - 1) // (q - 1)
    return SeparatedCurveSpec(ctx, {i * e: 1 for i in range(r)},
                              tuple([0] * c + [1]))


def validate(spec: SeparatedCurveSpec) -> SeparatedCurveSpec:
    """Check the five defining conditions; report each violation
    distinctly.  Additivity of A is structural (only p^j exponents can
    be stored) and is re-checked on sampled pairs.  A degree p^n above
    gf.MAX_ORDER is refused before p^n is formed."""
    ctx = spec.ctx
    if not spec.a_coeffs:
        raise ValueError("A(Y) is zero")
    if any(j < 0 for j in spec.a_coeffs):
        raise ValueError("A(Y) exponent indices must be >= 0")
    if spec.a_coeffs.get(0, 0) == 0:
        raise ValueError("a_0 must be nonzero (A separable)")
    n = spec.n
    if n < 1:
        raise ValueError("A(Y) must have degree p^n with n >= 1")
    check_order(ctx.p, n, "A(Y) degree")
    if not spec.b_coeffs or spec.b_coeffs[-1] == 0:
        raise ValueError("b_m must be nonzero")
    m = spec.m
    if m < 2:
        raise ValueError(f"deg B = {m} must be >= 2")
    if m % ctx.p == 0:
        raise ValueError(f"deg B = {m} is divisible by p = {ctx.p}")
    if spec.degree < 4:
        raise ValueError(f"curve degree {spec.degree} must be >= 4")
    # sampled additivity: A(u + v) = A(u) + A(v)
    if ctx.order <= 64:
        pairs = [(u, v) for u in ctx.elements() for v in ctx.elements()]
    else:
        rng = random.Random(0)
        pairs = [(rng.randrange(ctx.order), rng.randrange(ctx.order))
                 for _ in range(200)]
    for u, v in pairs:
        if spec.a_eval(ctx.add(u, v)) != ctx.add(spec.a_eval(u), spec.a_eval(v)):
            raise AssertionError("A(Y) failed the additivity identity")
    return spec


def genus(spec: SeparatedCurveSpec) -> int:
    return (spec.p ** spec.n - 1) * (spec.m - 1) // 2


def linearization_gcd(spec: SeparatedCurveSpec) -> int:
    """Largest d such that A(Y) is p^d-linearized: the gcd of the
    exponent indices j >= 1 with a_j nonzero."""
    js = [j for j in spec.a_coeffs if j >= 1]
    if not js:
        raise ValueError("A(Y) has no term of positive degree")
    return gcd(*js)


def kernel_elements(spec: SeparatedCurveSpec, ctx: FieldCtx | None = None) -> list[int]:
    """Roots of A in the given field (all translations (x, y+a))."""
    target = spec.map_coefficients(ctx or spec.ctx)
    return np.flatnonzero(target.a_values() == 0).tolist()


def mu_fixers(spec: SeparatedCurveSpec) -> list[int]:
    """All mu with A(mu Y) = mu A(Y) as polynomials, i.e. mu fixed by
    every x -> x^{p^j} of A: the nonzero part of the host field's
    subfield of order p^gcd(k, j's)."""
    return spec.ctx.subfield_indices(gcd(spec.ctx.k, *spec.a_coeffs))[1:]


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------

MONOMIAL_CASE_I = "monomial-case-i"
MONOMIAL_CASE_II = "monomial-case-ii"
NON_MONOMIAL = "non-monomial"


@dataclass(frozen=True)
class GeneratorFamily:
    kind: str
    count: int
    description: str


@dataclass
class ClassificationResult:
    case: str
    d: int
    predicted_full_order: int | None
    predicted_stabilizer_order: int
    generators: tuple[GeneratorFamily, ...]
    h_bound: "HBound | None" = None
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return asdict(self)


def monomial_shift(spec: SeparatedCurveSpec) -> int | None:
    """If B(X) = b_m (X + s)^m for s = b_{m-1} / (m b_m), return the
    index of s; otherwise None.  Checked by binomial expansion."""
    ctx = spec.ctx
    m = spec.m
    bm = spec.b_coeffs[-1]
    s = ctx.div(spec.b_coeffs[-2], ctx.mul(m % ctx.p, bm))
    expanded = poly.scale(ctx, bm, poly.power(ctx, [s, 1], m))
    expanded += [0] * (m + 1 - len(expanded))
    return s if tuple(expanded) == spec.b_coeffs else None


def classify(spec: SeparatedCurveSpec) -> ClassificationResult:
    """Classification of the stabilizer of the infinite place; requires
    m != 1 mod p^n.

    When B = b_m (X + s)^m has a single root: case (i), m | p^n + 1 and
    A two-term, straightens to X^m = Y^{p^n} + Y, whose full group has
    the m-fold cover of PGL(2, p^n) above the stabilizer; in case (ii)
    the stabilizer is the whole group, of order p^n * m * (p^d - 1).
    When B has several roots the report is bounds only: the translations
    are the only predicted subgroup and the prime-to-p part is
    constrained by the root multiplicities of B.
    """
    validate(spec)
    p, n, m = spec.p, spec.n, spec.m
    pn = p ** n
    if m % pn == 1:
        raise ValueError(
            f"m = {m} is 1 mod p^n = {pn}: outside the classification")
    d = linearization_gcd(spec)
    shift = monomial_shift(spec)
    families = (GeneratorFamily(
        "translation", pn, "(x, y) -> (x, y + a) for the p^n roots a of A"),)
    if shift is None:
        return ClassificationResult(
            NON_MONOMIAL, d, None, pn, families, h_bound_from_roots(spec),
            ("stabilizer order counts the guaranteed translations only; "
             "the prime-to-p part is bounded, not predicted",))
    order_c = m * (p ** d - 1)
    families += (GeneratorFamily(
        "scaling", order_c,
        f"(x, y) -> (b x + (b - 1)*s, b^m y) with s = element {shift} "
        f"and b ranging over the roots of unity of order dividing {order_c}"),)
    if (pn + 1) % m == 0 and spec.two_term:
        return ClassificationResult(
            MONOMIAL_CASE_I, d, m * pn * (pn * pn - 1), pn * m * (pn - 1),
            families, notes=("full order composes the m-fold central quotient "
                             "with |PGL(2,p^n)| = p^n (p^{2n} - 1); inferred, "
                             "flagged",))
    return ClassificationResult(MONOMIAL_CASE_II, d, pn * order_c,
                                pn * order_c, families)


# ----------------------------------------------------------------------
# Stabilizer search
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AffineAut:
    """An affine map x -> b x + c0, y -> a y + Q(x) over a search field;
    q_coeffs lists Q little-endian."""

    ctx: FieldCtx
    a: int
    b: int
    c0: int
    q_coeffs: tuple[int, ...]

    @property
    def is_identity(self) -> bool:
        return (self.a, self.b, self.c0) == (1, 1, 0) and not self.q_coeffs

    def apply_xy(self, x: int, y: int) -> tuple[int, int]:
        ctx = self.ctx
        return (ctx.add(ctx.mul(self.b, x), self.c0),
                ctx.add(ctx.mul(self.a, y),
                        poly.evaluate(ctx, list(self.q_coeffs), x)))

    def sort_key(self):
        return (self.a, self.b, self.c0, self.q_coeffs)


def compose_affine(s1: AffineAut, s2: AffineAut) -> AffineAut:
    """Apply s2 first, then s1."""
    if s1.ctx != s2.ctx:
        raise ValueError("maps over different fields")
    ctx = s1.ctx
    b = ctx.mul(s1.b, s2.b)
    c0 = ctx.add(ctx.mul(s1.b, s2.c0), s1.c0)
    a = ctx.mul(s1.a, s2.a)
    q = poly.add(ctx, poly.scale(ctx, s1.a, list(s2.q_coeffs)),
                 poly.compose_linear(ctx, list(s1.q_coeffs), s2.b, s2.c0))
    return AffineAut(ctx, a, b, c0, tuple(q))


def inverse_affine(s: AffineAut) -> AffineAut:
    ctx = s.ctx
    b = ctx.inv(s.b)
    c0 = ctx.neg(ctx.mul(b, s.c0))
    a = ctx.inv(s.a)
    q = poly.scale(ctx, ctx.neg(a),
                   poly.compose_linear(ctx, list(s.q_coeffs), b, c0))
    return AffineAut(ctx, a, b, c0, tuple(q))


def _solve_additive_preimage(spec_f: SeparatedCurveSpec, R, max_qdeg,
                             a_values) -> list[tuple[int, ...]]:
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
        rest = poly.sub(ctx, rest, spec_f.a_apply_poly(mono))
        if len(rest) - 1 >= 1 and len(rest) - 1 >= deg:
            return []
    r0 = rest[0] if rest else 0
    out = []
    for w in np.flatnonzero(a_values == r0).tolist():
        q = list(coeffs)
        q[0] = w
        out.append(tuple(poly.trim(q)))
    return out


def brute_force_stabilizer_search(spec: SeparatedCurveSpec,
                                  search_field: FieldCtx,
                                  budget: int | None = None) -> list[AffineAut]:
    """All affine maps x -> b x + c0, y -> a y + Q(x) (deg Q * p^n < m)
    whose pullback of A(Y) - B(X) is a constant multiple of itself.

    The identity is tested exactly: additivity splits it into
    A(a Y) = k1 A(Y) (forcing k1 = a and a in the p^d-subfield) and
    B(b X + c0) = a B(X) + A(Q(X)), solved coefficientwise for Q.  Every
    c0 is first filtered at once: at a degree j that A(Q(X)) cannot
    reach, the X^j coefficients force b^j H_j(c0) = a b_j, with H_j the
    j-th Hasse derivative of B evaluated over the whole field.  Only the
    c0 that pass are solved exactly.  The found set must form a group;
    if it is not closed, the search field is missing conjugates and
    SearchFieldTooSmall is raised.  The budget counts the (a, b, c0)
    triples the filter covers.
    """
    validate(spec)
    spec_f = spec.map_coefficients(search_field)
    ctx = search_field
    p, n, m = spec_f.p, spec_f.n, spec_f.m
    max_qdeg = (m - 1) // (p ** n)
    # a must scale every A-term the same way: a^{p^j} = a for all j
    survivors = mu_fixers(spec_f)
    cost = len(survivors) * (ctx.order - 1) * ctx.order
    if budget is not None and cost > budget:
        raise BudgetExceeded(f"search loop size {cost} exceeds budget {budget}")
    a_values = spec_f.a_values()
    b_poly = list(spec_f.b_coeffs)
    # A(Q(X)) = sum a_t Q^{p^t} only reaches the degrees e p^t
    reachable = {e * p ** t for t in spec_f.a_coeffs
                 for e in range(max_qdeg + 1)}
    free = [j for j in range(m - 1, 0, -1) if j not in reachable]
    elements = np.arange(ctx.order)
    hasse = [poly.evaluate_array(ctx, poly.hasse_derivative(ctx, b_poly, j),
                                 elements) for j in free]
    # the X^m coefficients force b^m = a
    bs = np.arange(1, ctx.order)
    b_pow_m = ctx.vpow(bs, m)
    keep = np.isin(b_pow_m, survivors)
    found = []
    for b, a in zip(bs[keep].tolist(), b_pow_m[keep].tolist()):
        c0s = elements
        for j, h in zip(free, hasse):
            c0s = c0s[h[c0s] == ctx.div(ctx.mul(a, b_poly[j]), ctx.pow(b, j))]
        a_b = poly.scale(ctx, a, b_poly)
        for c0 in c0s.tolist():
            R = poly.sub(ctx, poly.compose_linear(ctx, b_poly, b, c0), a_b)
            for q in _solve_additive_preimage(spec_f, R, max_qdeg, a_values):
                found.append(AffineAut(ctx, a, b, c0, q))
    found.sort(key=AffineAut.sort_key)
    assert_group(found)
    return found


def assert_group(maps: list[AffineAut]):
    """Raise SearchFieldTooSmall unless the maps are closed under
    inversion and composition.

    Closure is proved from generators: walking the maps in order, each
    one not yet reached becomes a generator, and the reached set (the
    identity at first) is closed under right multiplication by every
    generator; a product outside the maps raises.  In the end every map
    is reached, so the maps are the group the generators generate.  Each
    new generator at least doubles the reached subgroup, so there are at
    most log2 N of them and at most N log2 N compositions, not N^2.
    """
    def not_closed(under):
        return SearchFieldTooSmall(f"found maps are not closed under {under}")

    elems = set(maps)
    if any(inverse_affine(s) not in elems for s in maps):
        raise not_closed("inversion")
    if not maps:
        return
    identity = AffineAut(maps[0].ctx, 1, 1, 0, ())
    if identity not in elems:  # s composed with its inverse
        raise not_closed("composition")
    reached, seen, gens = [identity], {identity}, []
    for s in maps:
        if s in seen:
            continue
        gens.append(s)
        # the elements reached before s have met every earlier generator
        old = len(reached)
        for i, x in enumerate(reached):  # also visits the y appended below
            for g in (gens[-1:] if i < old else gens):
                y = compose_affine(x, g)
                if y not in seen:
                    if y not in elems:
                        raise not_closed("composition")
                    seen.add(y)
                    reached.append(y)


def checks(spec: SeparatedCurveSpec, result: ClassificationResult,
           maps: list[AffineAut]) -> list[tuple[str, bool, str]]:
    """(name, passed, detail) records for the maps a stabilizer search
    found, read against classify's result: the p^n translations
    (a, b, c0) = (1, 1, 0); when B has one root, the predicted order and
    the scaling law B(b X + c0) = a B(X) with a in the p^d-subfield;
    when B has several roots, |H| = (maps / translations) dividing one
    of the h_bound divisors."""
    pn = spec.p ** spec.n
    found = len(maps)
    t = sum((s.a, s.b, s.c0) == (1, 1, 0) for s in maps)
    records = [("translations", t == pn, f"{t} (expected {pn})")]
    if result.case != NON_MONOMIAL:
        want = result.predicted_stabilizer_order
        records.append(("stabilizer order", found == want,
                        f"{found} (expected {want})"))
        spec_f = spec.map_coefficients(maps[0].ctx) if maps else spec
        ctx, b_poly = spec_f.ctx, list(spec_f.b_coeffs)
        fixers = set(mu_fixers(spec_f))
        # maps differing only in Q share (a, b, c0): compose B once each
        law = {(a, b, c0): a in fixers and poly.scale(ctx, a, b_poly)
               == poly.compose_linear(ctx, b_poly, b, c0)
               for a, b, c0 in {(s.a, s.b, s.c0) for s in maps}}
        bad = sum(not law[s.a, s.b, s.c0] for s in maps)
        records.append(("scaling law", not bad, f"{bad} of {found} maps fail"))
        return records
    divisors = result.h_bound.divisors
    h, rem = divmod(found, max(t, 1))
    records.append((f"|H| divides one of {list(divisors)}",
                    t > 0 and rem == 0 and any(d % h == 0 for d in divisors),
                    f"|H| = {h}" if rem == 0 else f"|H| = {found}/{t}"))
    return records


# ----------------------------------------------------------------------
# Root multiplicities of B and the induced bounds
# ----------------------------------------------------------------------

def embed_field(src: FieldCtx, dst: FieldCtx) -> list[int]:
    """Index map of the canonical embedding GF(p^k) -> GF(p^{k t}),
    sending the residue class of X to the smallest root of the source
    modulus in the destination field."""
    if src == dst:
        return list(range(src.order))
    if dst.p != src.p or dst.k % src.k != 0:
        raise ValueError(f"no embedding of GF({src.p}^{src.k}) "
                         f"into GF({dst.p}^{dst.k})")
    # every root of the modulus lies in the subfield of order p^k
    sub = np.array(dst.subfield_indices(src.k))
    rho = int(sub[poly.evaluate_array(dst, src.modulus, sub) == 0][0])
    # the embedding is GF(p)-linear: X^j goes to rho^j
    images = [dst.pow(rho, j) for j in range(src.k)] + [0] * (dst.k - src.k)
    return dst.linear_map(images, np.arange(src.order)).tolist()


def _extension_degrees(ctx: FieldCtx):
    """t = 1, 2, ... for the extensions GF(Q^t) of the field; raises
    gf.check_order's ValueError once p^{k t} passes gf.MAX_ORDER."""
    for t in count(1):
        check_order(ctx.p, ctx.k * t)
        yield t


def b_roots(spec: SeparatedCurveSpec):
    """Roots of B with multiplicities over its splitting field.

    Returns (field, [(root_index, multiplicity), ...]); the field is the
    smallest extension of the host field where B splits completely:
    the first t where poly.radical(B) divides X^{Q^t} - X, decided in
    the host field, so only that one GF(Q^t) is built and scanned.
    B is evaluated over the whole field at once; a root's multiplicity is
    the number of leading Hasse derivatives H_0, H_1, .. of B vanishing
    there, each H_j evaluated only where H_0 .. H_{j-1} vanish.
    """
    ctx = spec.ctx
    rad = poly.radical(ctx, spec.b_coeffs)
    x_power = x = poly.rem(ctx, [0, 1], rad)  # X^{Q^t} mod rad, at t = 0
    for t in _extension_degrees(ctx):
        x_power = poly.powmod(ctx, x_power, ctx.order, rad)
        if x_power != x:
            continue
        E = build_field(ctx.p, ctx.k * t)
        b_poly = list(spec.map_coefficients(E).b_coeffs)
        mult = np.zeros(E.order, dtype=np.int64)
        alive, j = np.arange(E.order), 0
        while alive.size:  # H_m = b_m is never zero, so this ends by j = m
            h = poly.hasse_derivative(E, b_poly, j)
            alive = alive[poly.evaluate_array(E, h, alive) == 0]
            mult[alive] += 1
            j += 1
        if mult.sum() != spec.m:
            raise AssertionError("B does not split where its radical does")
        roots = np.flatnonzero(mult)
        return E, list(zip(roots.tolist(), mult[roots].tolist()))


@dataclass(frozen=True)
class HBound:
    """Divisibility constraint on the order of the prime-to-p stabilizer
    part H: |H| must divide one of the listed integers."""

    kind: str
    divisors: tuple[int, ...]


def h_bound_from_roots(spec: SeparatedCurveSpec) -> HBound:
    """Read the constraint on |H| off the root multiplicities of B:
    a single root reproduces the classification order m (p^d - 1); a
    unique repeated root of multiplicity M gives M or M - 1; several
    roots of one common multiplicity force H trivial; anything else
    only keeps the generic divisibility by m (p^n - 1)."""
    _, roots = b_roots(spec)
    d = linearization_gcd(spec)
    if len(roots) == 1:
        return HBound("monomial", (spec.m * (spec.p ** d - 1),))
    mults = sorted(mult for _, mult in roots)
    if mults[0] == mults[-1] and mults[0] > 1:
        return HBound("all-equal-multiplicity", (1,))
    repeated = [mult for mult in mults if mult > 1]
    if len(repeated) == 1:
        M = repeated[0]
        return HBound("unique-multiple-root", (M, M - 1))
    return HBound("generic", (spec.m * (spec.p ** spec.n - 1),))


def recommended_search_field(spec: SeparatedCurveSpec) -> FieldCtx:
    """Compositum of the splitting field of A and the field of the
    m(p^d - 1)-th (or m(p^n - 1)-th in the two-term case) roots of
    unity, by lcm of extension degrees over the host field."""
    p, n, m = spec.p, spec.n, spec.m
    d = linearization_gcd(spec)
    unity = m * (p ** (n if spec.two_term else d) - 1)
    t_a = next(t for t in _extension_degrees(spec.ctx)
               if len(kernel_elements(
                   spec, build_field(p, spec.ctx.k * t))) == p ** n)
    t_u = next(t for t in _extension_degrees(spec.ctx)
               if (spec.ctx.order ** t - 1) % unity == 0)
    return build_field(p, spec.ctx.k * lcm(t_a, t_u))


# ----------------------------------------------------------------------
# Standard model
# ----------------------------------------------------------------------

@dataclass
class StandardizationResult:
    """Substitution (x, y) -> (gamma*(x + shift), delta*y) carrying the
    two-term curve b_m (X + shift)^m = a_n Y^{p^n} + a_0 Y onto the
    standard model X^m = Y^{p^n} + Y, verified by expansion."""

    field: FieldCtx
    gamma: int
    delta: int
    shift: int
    extension_degree: int


def to_standard_qm(spec: SeparatedCurveSpec) -> StandardizationResult:
    """Solve delta^{p^n - 1} = a_n / a_0 and gamma^m = delta b_m / a_0
    in the smallest extension containing both, then verify symbolically
    that the substitution lands exactly on X^m = Y^{p^n} + Y.  Each
    extension is scanned as arrays; the pair taken is the smallest delta
    whose delta b_m / a_0 is an m-th power, with its smallest gamma."""
    validate(spec)
    if not spec.two_term:
        raise ValueError("A(Y) is not two-term a_n Y^{p^n} + a_0 Y")
    if monomial_shift(spec) is None:
        raise ValueError("B(X) is not b_m (X + s)^m")
    p, n, m = spec.p, spec.n, spec.m
    for t in _extension_degrees(spec.ctx):
        E = build_field(spec.ctx.p, spec.ctx.k * t)
        spec_e = spec.map_coefficients(E)
        a0, an = spec_e.a_coeffs[0], spec_e.a_coeffs[n]
        units = np.arange(1, E.order)
        deltas = units[E.vpow(units, p ** n - 1) == E.div(an, a0)]
        targets = E.vscale(E.div(spec_e.b_coeffs[-1], a0), deltas)
        gamma_m = E.vpow(units, m)
        solvable = np.flatnonzero(np.isin(targets, gamma_m))
        if not solvable.size:
            continue
        i = solvable[0]
        gamma = int(units[np.argmax(gamma_m == targets[i])])
        delta, shift = int(deltas[i]), monomial_shift(spec_e)
        _verify_standardization(spec_e, gamma, delta, shift)
        return StandardizationResult(E, gamma, delta, shift, t)


def _verify_standardization(spec, gamma, delta, shift):
    """Expand both sides over the spec's field E: gamma^m (X + shift)^m
    must equal (gamma^m / b_m) B(X), and the Y-coefficients must match
    delta^{p^n} = k a_n, delta = k a_0 with k = gamma^m / b_m."""
    E, p, n, m = spec.ctx, spec.p, spec.n, spec.m
    a0, an = spec.a_coeffs[0], spec.a_coeffs[n]
    bm = spec.b_coeffs[-1]
    k = E.div(E.pow(gamma, m), bm)
    lhs_x = poly.scale(E, E.pow(gamma, m), poly.power(E, [shift, 1], m))
    rhs_x = poly.scale(E, k, list(spec.b_coeffs))
    if lhs_x != rhs_x:
        raise AssertionError("x-side of the standardization failed")
    if E.pow(delta, p ** n) != E.mul(k, an) or delta != E.mul(k, a0):
        raise AssertionError("y-side of the standardization failed")
