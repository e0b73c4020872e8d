"""Separated-polynomial plane curves A(y) = B(x) and their automorphisms.

A spec holds an additive polynomial A(Y) = a_n Y^{p^n} + ... + a_0 Y
(a_0, a_n nonzero) and a polynomial B(X) of degree m coprime to p, with
deg >= 4, n >= 1, m >= 2.  The norm-trace curve is the special case
A = trace, B = X^c.

Provided here:
  * validation of the defining conditions and the genus formula;
  * the largest d with A(Y) p^d-linearized (gcd of the exponents);
  * classification when B has a single root and m is not 1 mod p^n:
    either the curve straightens to X^m = Y^{p^n} + Y (small m dividing
    p^n + 1, A two-term), or the automorphism group is the explicit
    translations-by-kernel extended by m(p^d - 1) scalings;
  * an exhaustive search for the stabilizer of the infinite place as
    affine maps x -> b x + c0, y -> a y + Q(x), checked against the
    exact polynomial identity the automorphism condition imposes;
  * divisibility bounds on the prime-to-p stabilizer part read off the
    root multiplicities of B;
  * the explicit substitution carrying a two-term curve with monomial
    B onto the standard X^m = Y^{p^n} + Y model.

All coefficients are integer-encoded field elements of a FieldCtx.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

from .codes import BudgetExceeded
from .gf import FieldCtx, build_field, field_from_dict

MAX_EXTENSION_ORDER = 1 << 20


class SearchFieldTooSmall(ValueError):
    """The found map set is not closed under composition, so the search
    field misses roots of unity or kernel elements."""


# ----------------------------------------------------------------------
# Dense polynomials over a FieldCtx (little-endian index lists)
# ----------------------------------------------------------------------

def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_add(ctx, f, g):
    out = [0] * max(len(f), len(g))
    for i, a in enumerate(f):
        out[i] = a
    for i, b in enumerate(g):
        out[i] = ctx.add(out[i], b)
    return _trim(out)


def poly_neg(ctx, f):
    return [ctx.neg(a) for a in f]


def poly_sub(ctx, f, g):
    return poly_add(ctx, f, poly_neg(ctx, g))


def poly_scale(ctx, s, f):
    return _trim([ctx.mul(s, a) for a in f])


def poly_mul(ctx, f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = ctx.add(out[i + j], ctx.mul(a, b))
    return _trim(out)


def poly_pow(ctx, f, e):
    out = [1]
    while e:
        if e & 1:
            out = poly_mul(ctx, out, f)
        f = poly_mul(ctx, f, f)
        e >>= 1
    return out


def poly_eval(ctx, f, x):
    out = 0
    for a in reversed(f):
        out = ctx.add(ctx.mul(out, x), a)
    return out


def compose_linear(ctx, f, b, c0):
    """f(b*X + c0) by Horner."""
    out = []
    lin = [c0, b]
    for a in reversed(f):
        out = poly_add(ctx, poly_mul(ctx, out, lin), [a])
    return _trim(out)


def poly_frobenius(ctx, f, e):
    """f(X)^{p^e} = sum a_i^{p^e} X^{i p^e} (freshman's dream)."""
    pe = ctx.p ** e
    out = [0] * (pe * (len(f) - 1) + 1) if f else []
    for i, a in enumerate(f):
        if a:
            out[i * pe] = ctx.pow(a, pe)
    return _trim(out)


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

    def a_eval(self, v: int) -> int:
        ctx = self.ctx
        out = 0
        for j, c in self.a_coeffs.items():
            out = ctx.add(out, ctx.mul(c, ctx.pow(v, ctx.p ** j)))
        return out

    def a_apply_poly(self, Q) -> list[int]:
        """A(Q(X)) as a polynomial, via additivity of A."""
        ctx = self.ctx
        out = []
        for j, c in self.a_coeffs.items():
            out = poly_add(ctx, out, poly_scale(ctx, c, poly_frobenius(ctx, Q, j)))
        return out

    def map_coefficients(self, dst: FieldCtx) -> "SeparatedCurveSpec":
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


def spec_from_dict(d: dict) -> SeparatedCurveSpec:
    ctx = field_from_dict(d["field"])
    if ctx.p != d["p"]:
        raise ValueError("spec p does not match field characteristic")
    a = {int(e["j"]): int(e["a_j_index"]) for e in d["A"]}
    return SeparatedCurveSpec(ctx, a, tuple(int(b) for b in d["B"]))


def norm_trace_spec(q: int, r: int, ctx: FieldCtx | None = None) -> SeparatedCurveSpec:
    """The norm-trace curve as a separated-polynomial spec:
    A = Y^{q^{r-1}} + ... + Y, B = X^{(q^r-1)/(q-1)} over GF(q^r)."""
    from .gf import prime_power
    p, e = prime_power(q)
    if ctx is None:
        ctx = build_field(p, e * r)
    c = (q ** r - 1) // (q - 1)
    return SeparatedCurveSpec(ctx, {i * e: 1 for i in range(r)},
                              tuple([0] * c + [1]))


def validate(spec: SeparatedCurveSpec) -> SeparatedCurveSpec:
    """Check the five defining conditions; report each violation
    distinctly.  Additivity of A is structural (only p^j exponents can
    be stored) and is re-checked on sampled pairs."""
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
    out = 0
    for j in js:
        out = gcd(out, j)
    return out


def kernel_elements(spec: SeparatedCurveSpec, ctx: FieldCtx | None = None) -> list[int]:
    """Roots of A in the given field (all translations (x, y+a))."""
    target = spec if ctx is None or ctx == spec.ctx else spec.map_coefficients(ctx)
    return [w for w in target.ctx.elements() if target.a_eval(w) == 0]


def mu_fixers(spec: SeparatedCurveSpec) -> list[int]:
    """All mu with A(mu Y) = mu A(Y) as polynomials, i.e. mu preserving
    the kernel of A; equals the nonzero part of the subfield of order
    p^d (intersected with the host field)."""
    ctx = spec.ctx
    out = []
    for mu in ctx.nonzero():
        if all(ctx.pow(mu, ctx.p ** j) == mu for j in spec.a_coeffs):
            out.append(mu)
    return out


# ----------------------------------------------------------------------
# Classification (single-root B)
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
        return {
            "case": self.case,
            "d": self.d,
            "predicted_full_order": self.predicted_full_order,
            "predicted_stabilizer_order": self.predicted_stabilizer_order,
            "generators": [{"kind": g.kind, "count": g.count,
                            "description": g.description}
                           for g in self.generators],
            "h_bound": self.h_bound.to_dict() if self.h_bound else None,
            "notes": list(self.notes),
        }


def monomial_shift(spec: SeparatedCurveSpec) -> int | None:
    """If B(X) = b_m (X + s)^m for s = b_{m-1} / (m b_m), return the
    index of s; otherwise None.  Checked by binomial expansion."""
    ctx = spec.ctx
    m = spec.m
    bm = spec.b_coeffs[-1]
    bm1 = spec.b_coeffs[-2] if m >= 1 else 0
    s = ctx.div(bm1, ctx.mul(m % ctx.p, bm))
    expanded = poly_scale(ctx, bm, poly_pow(ctx, [s, 1], m))
    expanded += [0] * (m + 1 - len(expanded))
    return s if tuple(expanded) == spec.b_coeffs else None


def _generator_families(spec, d, shift):
    p, n, m = spec.p, spec.n, spec.m
    order_c = m * (p ** d - 1)
    return (
        GeneratorFamily(
            "translation", p ** n,
            "(x, y) -> (x, y + a) for the p^n roots a of A"),
        GeneratorFamily(
            "scaling", order_c,
            f"(x, y) -> (b x + (b - 1)*s, b^m y) with s = element {shift} "
            f"and b ranging over the roots of unity of order dividing {order_c}"),
    )


def classify_monomial(spec: SeparatedCurveSpec) -> ClassificationResult:
    """Classification when B has a single root; requires m != 1 mod p^n.

    Case (i): m | p^n + 1 and A two-term; the curve straightens to
    X^m = Y^{p^n} + Y, whose full group has the m-fold cover of
    PGL(2, p^n) above the stabilizer.  Case (ii): the stabilizer is the
    whole group, of order p^n * m * (p^d - 1).
    """
    validate(spec)
    p, n, m = spec.p, spec.n, spec.m
    if m % (p ** n) == 1:
        raise ValueError(
            f"m = {m} is 1 mod p^n = {p ** n}: outside the classification")
    shift = monomial_shift(spec)
    if shift is None:
        raise ValueError("B(X) is not b_m (X + s)^m: no single root")
    d = linearization_gcd(spec)
    two_term = set(spec.a_coeffs) == {0, n}
    if (p ** n + 1) % m == 0 and two_term:
        pn = p ** n
        return ClassificationResult(
            case=MONOMIAL_CASE_I,
            d=d,
            predicted_full_order=m * pn * (pn * pn - 1),
            predicted_stabilizer_order=pn * m * (pn - 1),
            generators=_generator_families(spec, d, shift),
            notes=(
                "full order composes the m-fold central quotient with "
                "|PGL(2,p^n)| = p^n (p^{2n} - 1); inferred, flagged",
            ),
        )
    return ClassificationResult(
        case=MONOMIAL_CASE_II,
        d=d,
        predicted_full_order=p ** n * m * (p ** d - 1),
        predicted_stabilizer_order=p ** n * m * (p ** d - 1),
        generators=_generator_families(spec, d, shift),
    )


def classify(spec: SeparatedCurveSpec) -> ClassificationResult:
    """Like classify_monomial, but falls back to a bounds-only report
    when B has several roots: the translations are the only predicted
    subgroup and the prime-to-p part is constrained by the root
    multiplicities of B."""
    validate(spec)
    if monomial_shift(spec) is not None:
        return classify_monomial(spec)
    d = linearization_gcd(spec)
    bound = h_bound_from_roots(spec)
    return ClassificationResult(
        case=NON_MONOMIAL,
        d=d,
        predicted_full_order=None,
        predicted_stabilizer_order=spec.p ** spec.n,
        generators=(GeneratorFamily(
            "translation", spec.p ** spec.n,
            "(x, y) -> (x, y + a) for the p^n roots a of A"),),
        h_bound=bound,
        notes=("stabilizer order counts the guaranteed translations only; "
               "the prime-to-p part is bounded, not predicted",),
    )


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
                        poly_eval(ctx, list(self.q_coeffs), x)))

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
    q = poly_add(ctx, poly_scale(ctx, s1.a, list(s2.q_coeffs)),
                 compose_linear(ctx, list(s1.q_coeffs), s2.b, s2.c0))
    return AffineAut(ctx, a, b, c0, tuple(q))


def inverse_affine(s: AffineAut) -> AffineAut:
    ctx = s.ctx
    b = ctx.inv(s.b)
    c0 = ctx.neg(ctx.mul(b, s.c0))
    a = ctx.inv(s.a)
    q = poly_scale(ctx, ctx.neg(a), compose_linear(ctx, list(s.q_coeffs), b, c0))
    return AffineAut(ctx, a, b, c0, tuple(q))


def _solve_additive_preimage(spec_f: SeparatedCurveSpec, R, max_qdeg,
                             preimages) -> list[tuple[int, ...]]:
    """All polynomials Q with A(Q(X)) = R(X) and deg Q <= max_qdeg.

    Nonconstant coefficients are forced one by one from the top degree
    (the leading term of A(q X^e) is a_n q^{p^n} X^{e p^n} and the
    Frobenius is bijective); the constant term ranges over the
    A-preimages of what remains.
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
        rest = poly_sub(ctx, rest, spec_f.a_apply_poly(mono))
        if len(rest) - 1 >= 1 and len(rest) - 1 >= deg:
            return []
    r0 = rest[0] if rest else 0
    out = []
    for w in preimages.get(r0, ()):
        q = list(coeffs)
        q[0] = w
        out.append(tuple(_trim(q)))
    return out


def brute_force_stabilizer_search(spec: SeparatedCurveSpec,
                                  search_field: FieldCtx,
                                  budget: int | None = None) -> list[AffineAut]:
    """All affine maps x -> b x + c0, y -> a y + Q(x) (deg Q * p^n < m)
    whose pullback of A(Y) - B(X) is a constant multiple of itself.

    The identity is tested exactly: additivity splits it into
    A(a Y) = k1 A(Y) (forcing k1 = a and a in the p^d-subfield) and
    B(b X + c0) = a B(X) + A(Q(X)), solved coefficientwise for Q.  The
    found set must form a group; if it is not closed, the search field
    is missing conjugates and SearchFieldTooSmall is raised.
    """
    validate(spec)
    F = search_field
    spec_f = spec if F == spec.ctx else spec.map_coefficients(F)
    ctx = F
    p, n, m = spec_f.p, spec_f.n, spec_f.m
    max_qdeg = (m - 1) // (p ** n)
    # a must scale every A-term the same way: a^{p^j} = a for all j
    survivors = mu_fixers(spec_f)
    cost = len(survivors) * (ctx.order - 1) * ctx.order
    if budget is not None and cost > budget:
        raise BudgetExceeded(f"search loop size {cost} exceeds budget {budget}")
    preimages: dict[int, list[int]] = {}
    for w in ctx.elements():
        preimages.setdefault(spec_f.a_eval(w), []).append(w)
    b_poly = list(spec_f.b_coeffs)
    found = []
    for a in survivors:
        a_b = poly_scale(ctx, a, b_poly)
        for b in ctx.nonzero():
            if ctx.pow(b, m) != a:  # X^m coefficients force k1 = b^m
                continue
            for c0 in ctx.elements():
                R = poly_sub(ctx, compose_linear(ctx, b_poly, b, c0), a_b)
                for q in _solve_additive_preimage(spec_f, R, max_qdeg,
                                                  preimages):
                    found.append(AffineAut(ctx, a, b, c0, q))
    found.sort(key=AffineAut.sort_key)
    assert_group(found)
    return found


def assert_group(maps: list[AffineAut]):
    """Raise SearchFieldTooSmall unless the maps are closed under
    inversion and composition (the identity then comes for free)."""
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


def condiz_check(spec: SeparatedCurveSpec, aut: AffineAut) -> bool:
    """True iff B(b X + c0) = a B(X) with a in the p^d-subfield, the
    scaling law every stabilizer complement generator satisfies."""
    ctx = aut.ctx
    spec_f = spec if ctx == spec.ctx else spec.map_coefficients(ctx)
    b_poly = list(spec_f.b_coeffs)
    lhs = compose_linear(ctx, b_poly, aut.b, aut.c0)
    d = linearization_gcd(spec)
    for a in ctx.nonzero():
        if ctx.pow(a, ctx.p ** d - 1) != 1:
            continue
        if lhs == poly_scale(ctx, a, b_poly):
            return True
    return False


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
    modulus = list(src.modulus)  # prime-field coefficients
    rho = next(e for e in dst.elements() if poly_eval(dst, modulus, e) == 0)
    table = []
    p = src.p
    for idx in range(src.order):
        acc = 0
        power = 1
        rem = idx
        while rem:
            rem, digit = divmod(rem, p)
            acc = dst.add(acc, dst.mul(digit, power))
            power = dst.mul(power, rho)
        table.append(acc)
    return table


def extension_field(ctx: FieldCtx, t: int) -> FieldCtx:
    order = ctx.p ** (ctx.k * t)
    if order > MAX_EXTENSION_ORDER:
        raise ValueError(f"extension order {order} exceeds desk bounds")
    return build_field(ctx.p, ctx.k * t)


def b_roots(spec: SeparatedCurveSpec):
    """Roots of B with multiplicities over its splitting field.

    Returns (field, [(root_index, multiplicity), ...]); the field is the
    smallest extension of the host field where B splits completely.
    """
    for t in range(1, 64):
        E = extension_field(spec.ctx, t)
        emb = embed_field(spec.ctx, E)
        poly = [emb[c] for c in spec.b_coeffs]
        roots = []
        total = 0
        for e in E.elements():
            if poly_eval(E, poly, e) != 0:
                continue
            mult = 0
            rest = poly
            while poly_eval(E, rest, e) == 0:
                rest = _synth_div(E, rest, e)
                mult += 1
            roots.append((e, mult))
            total += mult
        if total == spec.m:
            return E, roots
    raise ValueError("B does not split within desk-scale extensions")


def _synth_div(ctx, f, e):
    """f / (X - e) for a known root e."""
    out = [0] * (len(f) - 1)
    acc = 0
    for i in range(len(f) - 1, 0, -1):
        acc = ctx.add(ctx.mul(acc, e), f[i])
        out[i - 1] = acc
    return out


@dataclass(frozen=True)
class HBound:
    """Divisibility constraint on the order of the prime-to-p stabilizer
    part H: |H| must divide one of the listed integers."""

    kind: str
    divisors: tuple[int, ...]

    def satisfied_by(self, h_order: int) -> bool:
        return any(d % h_order == 0 for d in self.divisors)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "divisors": list(self.divisors)}


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
    two_term = set(spec.a_coeffs) == {0, n}
    unity = m * (p ** (n if two_term else d) - 1)
    t_a = None
    for t in range(1, 64):
        E = extension_field(spec.ctx, t)
        if len(kernel_elements(spec, E)) == p ** n:
            t_a = t
            break
    if t_a is None:
        raise ValueError("A does not split within desk-scale extensions")
    t_u = next(t for t in range(1, 64)
               if (spec.ctx.order ** t - 1) % unity == 0)
    t = t_a * t_u // gcd(t_a, t_u)
    return extension_field(spec.ctx, t)


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
    that the substitution lands exactly on X^m = Y^{p^n} + Y."""
    validate(spec)
    if set(spec.a_coeffs) != {0, spec.n}:
        raise ValueError("A(Y) is not two-term a_n Y^{p^n} + a_0 Y")
    shift = monomial_shift(spec)
    if shift is None:
        raise ValueError("B(X) is not b_m (X + s)^m")
    p, n, m = spec.p, spec.n, spec.m
    for t in range(1, 64):
        E = extension_field(spec.ctx, t)
        emb = embed_field(spec.ctx, E)
        a0, an = emb[spec.a_coeffs[0]], emb[spec.a_coeffs[n]]
        bm = emb[spec.b_coeffs[-1]]
        target_d = E.div(an, a0)
        for delta in E.nonzero():
            if E.pow(delta, p ** n - 1) != target_d:
                continue
            target_g = E.div(E.mul(delta, bm), a0)
            gamma = next((g for g in E.nonzero()
                          if E.pow(g, m) == target_g), None)
            if gamma is None:
                continue
            _verify_standardization(spec, E, emb, gamma, delta, emb[shift])
            return StandardizationResult(E, gamma, delta, emb[shift], t)
    raise ValueError("no substitution constants within desk-scale extensions")


def _verify_standardization(spec, E, emb, gamma, delta, shift):
    """Expand both sides: gamma^m (X + shift)^m must equal
    (gamma^m / b_m) B(X), and the Y-coefficients must match
    delta^{p^n} = k a_n, delta = k a_0 with k = gamma^m / b_m."""
    p, n, m = spec.p, spec.n, spec.m
    a0, an = emb[spec.a_coeffs[0]], emb[spec.a_coeffs[n]]
    bm = emb[spec.b_coeffs[-1]]
    k = E.div(E.pow(gamma, m), bm)
    lhs_x = poly_scale(E, E.pow(gamma, m), poly_pow(E, [shift, 1], m))
    rhs_x = poly_scale(E, k, [emb[c] for c in spec.b_coeffs])
    if lhs_x != rhs_x:
        raise AssertionError("x-side of the standardization failed")
    if E.pow(delta, p ** n) != E.mul(k, an) or delta != E.mul(k, a0):
        raise AssertionError("y-side of the standardization failed")
