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

from dataclasses import asdict, dataclass
from itertools import count
from math import gcd, lcm

import numpy as np

from . import poly
from .gf import (BudgetExceeded, FieldCtx, build_field, check_order,
                 field_from_dict, prime_power)


class SearchFieldTooSmall(ValueError):
    """The found map set is not closed under inversion or composition:
    a self-check of the search failed.  Over every search field the
    affine maps that keep A(Y) - B(X) up to a constant are closed under
    composition, so a correct search never raises it, whatever the
    field's size."""


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

    def a_at(self, v: np.ndarray) -> np.ndarray:
        """A at each element of the int64 index array v, the sum of
        a_j v^{p^j} formed on arrays (vpow, vmul, vadd_scalar), so that
        no scalar method runs and no Q x Q table is built."""
        ctx = self.ctx
        out = np.zeros_like(v)
        for j, c in self.a_coeffs.items():
            out = ctx.vadd_scalar(out, ctx.vmul(c, ctx.vpow(v, ctx.p ** j)))
        return out

    def a_values(self) -> np.ndarray:
        """A at every element of the field: A is GF(p)-linear, so this is
        one linear map of its values at the basis X^j (a_at)."""
        ctx = self.ctx
        return ctx.linear_map(self.a_at(ctx.p ** np.arange(ctx.k)).tolist(),
                              np.arange(ctx.order))

    def map_coefficients(self, dst: FieldCtx) -> "SeparatedCurveSpec":
        """The spec over dst, its coefficients carried by embed_field;
        the spec itself when dst is already its field."""
        if dst == self.ctx:
            return self
        emb = embed_field(self.ctx, dst)
        return SeparatedCurveSpec(dst,
                                  {j: emb[c] for j, c in self.a_coeffs.items()},
                                  tuple(emb[c] for c in self.b_coeffs))


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
    """The spec of a record in the spec-file format of README's classify
    section.  Every malformed record raises ValueError: not an object, a
    missing key, a value of the wrong type, an index outside the field,
    or a repeated A term j."""
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
    # sampled additivity, A(u + v) = A(u) + A(v), in one array pass
    if ctx.order <= 64:
        u, v = np.divmod(np.arange(ctx.order ** 2), ctx.order)
    else:
        u, v = np.random.default_rng(0).integers(ctx.order, size=(2, 200))
    total, a_u, a_v = spec.a_at(
        np.concatenate([ctx.vadd_scalar(u, v), u, v])).reshape(3, -1)
    if not np.array_equal(total, ctx.vadd_scalar(a_u, a_v)):
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
    index of s; otherwise None.  Checked by binomial expansion
    (poly.shifted_power), linear in m."""
    ctx = spec.ctx
    m = spec.m
    bm = spec.b_coeffs[-1]
    s = ctx.div(spec.b_coeffs[-2], ctx.mul(m % ctx.p, bm))
    expanded = poly.shifted_power(ctx, bm, s, m)
    return s if expanded.tolist() == list(spec.b_coeffs) else None


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

@dataclass(frozen=True, eq=False)
class AffineMaps:
    """Affine maps x -> b x + c0, y -> a y + Q(x) over a field as rows:
    int64 columns a, b, c0 and the matrix q of Q's coefficients,
    little-endian and zero-padded to one width.  A search returns its
    rows sorted by (a, b, c0, q_0, q_1, ...)."""

    field: FieldCtx
    a: np.ndarray
    b: np.ndarray
    c0: np.ndarray
    q: np.ndarray

    def __len__(self) -> int:
        return len(self.a)

    def __getitem__(self, rows) -> "AffineMaps":
        """The maps at rows: a slice, an index array or a boolean mask."""
        return AffineMaps(self.field, self.a[rows], self.b[rows],
                          self.c0[rows], self.q[rows])

    def keys(self) -> np.ndarray:
        """One byte string per row, (a, b, c0, q_0, ...) as big-endian
        uint32: byte order is row order, and indices stay below 2^20."""
        rows = np.empty((len(self), 3 + self.q.shape[1]), dtype=">u4")
        rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3:] = (self.a, self.b,
                                                           self.c0, self.q)
        return rows.view(f"S{rows.itemsize * rows.shape[1]}").ravel()


def _substitute(ctx: FieldCtx, q: np.ndarray, b, c0) -> np.ndarray:
    """The coefficient rows of Q(b X + c0) for the rows q of Q, by Horner
    on the columns; b and c0 are one element or one per row."""
    b, c0 = np.asarray(b)[..., None], np.asarray(c0)[..., None]
    out = np.zeros_like(q)
    out[:, 0] = q[:, -1]
    for col in q.T[-2::-1]:  # out = (b X + c0) out + col
        x_out = ctx.vmul(b, out[:, :-1])
        out = ctx.vmul(c0, out)
        out[:, 1:] = ctx.vadd_scalar(out[:, 1:], x_out)
        out[:, 0] = ctx.vadd_scalar(out[:, 0], col)
    return out


def brute_force_stabilizer_search(spec: SeparatedCurveSpec,
                                  search_field: FieldCtx,
                                  budget: int | None = None,
                                  validated: bool = False) -> AffineMaps:
    """All affine maps x -> b x + c0, y -> a y + Q(x) (deg Q * p^n < m)
    whose pullback of A(Y) - B(X) is a constant multiple of itself.

    The identity is tested exactly: additivity splits it into
    A(a Y) = k1 A(Y) (forcing k1 = a and a in the p^d-subfield) and
    B(b X + c0) = a B(X) + A(Q(X)), solved coefficientwise for Q, on
    every (a, b, c0) at once.  The X^j coefficient of R = B(b X + c0) -
    a B(X) is b^j H_j(c0) - a b_j, with H_j the j-th Hasse derivative of
    B.  At a degree j that A(Q(X)) cannot reach it must vanish, which
    filters the c0 by H_j over the whole field.  On the rows that pass,
    each q_e is forced from the top, at degree e p^n, and A(q_e X^e) is
    subtracted; R must then vanish at every j >= 1, and q_0 ranges over
    the A-preimages of R_0.  The found set is checked to be a group
    (assert_group), a self-check of the search: the maps over any field
    that keep A(Y) - B(X) up to a constant compose to another such map,
    so only a faulty search raises SearchFieldTooSmall.  The budget counts
    the (a, b, c0) triples the filter covers; the filter's marks take one
    byte per (b, c0), never more than that count.  validated=True skips
    validate for a spec the caller has already validated (classify
    does).
    """
    if not validated:
        validate(spec)
    spec_f = spec.map_coefficients(search_field)
    ctx = search_field
    p, n, m = spec_f.p, spec_f.n, spec_f.m
    pn = p ** n
    max_qdeg = (m - 1) // pn
    # a must scale every A-term the same way: a^{p^j} = a for all j
    survivors = mu_fixers(spec_f)
    cost = len(survivors) * (ctx.order - 1) * ctx.order
    if budget is not None and cost > budget:
        raise BudgetExceeded(f"search loop size {cost} exceeds budget {budget}")
    b_poly = np.array(spec_f.b_coeffs)
    # A(Q(X)) = sum a_t Q^{p^t} only reaches the degrees e p^t
    reachable = {e * p ** t for t in spec_f.a_coeffs
                 for e in range(max_qdeg + 1)}
    # the X^m coefficients force b^m = a, read off marks on the field
    fixes = np.zeros(ctx.order, dtype=bool)
    fixes[survivors] = True
    bs = np.arange(1, ctx.order)
    bs = bs[fixes[ctx.vpow(bs, m)]]
    elements = np.arange(ctx.order)
    keep = np.ones((len(bs), ctx.order), dtype=bool)  # (b, c0)
    for j in range(m - 1, 0, -1):
        if j not in reachable:  # H_j(c0) = a b_j / b^j = b^(m - j) b_j
            h_j = poly.hasse_derivative(ctx, spec_f.b_coeffs, j)
            keep &= (poly.evaluate_array(ctx, h_j, elements)
                     == ctx.vmul(b_poly[j], ctx.vpow(bs, m - j))[:, None])
    bi, c0 = np.nonzero(keep)
    b = bs[bi]
    a = ctx.vpow(b, m)
    R = {}
    for j in reachable:
        h_j = poly.hasse_derivative(ctx, spec_f.b_coeffs, j)
        R[j] = ctx.vadd_scalar(
            ctx.vmul(ctx.vpow(b, j), poly.evaluate_array(ctx, h_j, c0)),
            ctx.vneg(ctx.vmul(a, b_poly[j])))
    q = np.zeros((len(b), max_qdeg + 1), dtype=np.int64)
    an_inv = ctx.vpow(np.array([spec_f.a_coeffs[n]]), -1)
    for e in range(max_qdeg, 0, -1):
        # q_e^{p^n} = R_{e p^n} / a_n, inverted through the Frobenius
        q[:, e] = ctx.vpow(ctx.vmul(an_inv, R[e * pn]),
                           p ** ((ctx.k - n) % ctx.k))
        for t, a_t in spec_f.a_coeffs.items():
            R[e * p ** t] = ctx.vadd_scalar(
                R[e * p ** t], ctx.vneg(ctx.vmul(a_t, ctx.vpow(q[:, e], p ** t))))
    # A is additive: the A-preimages of R_0 are one of them plus ker A
    values = spec_f.a_values()
    preimage = np.full(ctx.order, -1)
    preimage[values] = elements
    w = preimage[R[0]]
    solved = w >= 0
    for j in reachable - {0}:
        solved &= R[j] == 0
    kernel = np.flatnonzero(values == 0)
    rows = np.repeat(np.flatnonzero(solved), len(kernel))
    q = q[rows]
    q[:, 0] = ctx.vadd_scalar(w[rows], np.resize(kernel, len(rows)))
    a, b, c0 = a[rows], b[rows], c0[rows]
    order = np.lexsort([*q.T[::-1], c0, b, a])
    found = AffineMaps(ctx, a, b, c0, q)[order]
    assert_group(found)
    return found


def _compose(maps: AffineMaps, g: int) -> AffineMaps:
    """Every map composed with the map at row g, which applies first:
    b b_g, b c0_g + c0, a a_g and a Q_g + Q(b_g X + c0_g)."""
    ctx = maps.field
    b, c0 = maps.b[g], maps.c0[g]
    return AffineMaps(
        ctx, ctx.vmul(maps.a, maps.a[g]), ctx.vmul(maps.b, b),
        ctx.vadd_scalar(ctx.vmul(maps.b, c0), maps.c0),
        ctx.vadd_scalar(ctx.vmul(maps.a[:, None], maps.q[g]),
                        _substitute(ctx, maps.q, b, c0)))


def _inverses(maps: AffineMaps) -> AffineMaps:
    """Every map's inverse: b^-1, -c0 / b, a^-1 and -Q(b^-1 X - c0 / b) / a."""
    ctx = maps.field
    b, a = ctx.vpow(maps.b, -1), ctx.vpow(maps.a, -1)
    c0 = ctx.vneg(ctx.vmul(b, maps.c0))
    q = _substitute(ctx, maps.q, b, c0)
    return AffineMaps(ctx, a, b, c0, ctx.vneg(ctx.vmul(a[:, None], q)))


def assert_group(maps: AffineMaps):
    """Raise SearchFieldTooSmall unless the maps are closed under
    inversion and composition.

    Closure is proved from generators: walking the maps in order, each
    one not yet reached becomes a generator, and the reached set (the
    identity at first) is closed under right multiplication by every
    generator; a product outside the maps raises.  In the end every map
    is reached, so the maps are the group the generators generate.  Each
    new generator at least doubles the reached subgroup, so there are at
    most log2 N of them.  Each is composed with all N maps in one array
    pass (_compose), and every product is looked up among the sorted
    row keys: at most N log2 N product rows, not N^2.
    """
    def not_closed(under):
        return SearchFieldTooSmall(f"found maps are not closed under {under}")

    if not len(maps):
        return
    keys = maps.keys()
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]

    def rows_of(products, under):
        """The row of each product among the maps; raises if one is not."""
        wanted = products.keys()
        pos = np.minimum(np.searchsorted(sorted_keys, wanted), len(keys) - 1)
        if not (sorted_keys[pos] == wanted).all():
            raise not_closed(under)
        return order[pos]

    rows_of(_inverses(maps), "inversion")
    one = np.ones(1, dtype=np.int64)
    identity = rows_of(AffineMaps(maps.field, one, one, 0 * one,
                                  np.zeros((1, maps.q.shape[1]), np.int64)),
                       "composition")  # s composed with its inverse
    reached = np.zeros(len(maps), dtype=bool)
    reached[identity] = True
    generators = []
    while not reached.all():
        g = int(np.argmin(reached))  # the first map not yet reached
        generators.append(rows_of(_compose(maps, g), "composition"))
        # the maps reached before g have met every earlier generator
        new = np.append(generators[-1][reached], g)
        while new.size:
            mark = np.zeros_like(reached)
            mark[new] = True
            new = np.flatnonzero(mark & ~reached)
            reached[new] = True
            new = np.concatenate([prod[new] for prod in generators])


def checks(spec: SeparatedCurveSpec, result: ClassificationResult,
           maps: AffineMaps) -> list[tuple[str, bool, str]]:
    """(name, passed, detail) records for the maps a stabilizer search
    found, read against classify's result: the p^n translations
    (a, b, c0) = (1, 1, 0); when B has one root, the predicted order and
    the scaling law B(b X + c0) = a B(X) with a in the p^d-subfield;
    when B has several roots, |H| = (maps / translations) dividing one
    of the h_bound divisors.  spec may be over the maps' field already
    (as the CLI passes it) or over a subfield of it."""
    pn = spec.p ** spec.n
    found = len(maps)
    t = int(((maps.a == 1) & (maps.b == 1) & (maps.c0 == 0)).sum())
    records = [("translations", t == pn, f"{t} (expected {pn})")]
    if result.case != NON_MONOMIAL:
        want = result.predicted_stabilizer_order
        records.append(("stabilizer order", found == want,
                        f"{found} (expected {want})"))
        spec_f = spec.map_coefficients(maps.field)
        ctx, b_poly = spec_f.ctx, np.array(spec_f.b_coeffs)
        # maps differing only in Q share (a, b, c0), in runs of sorted
        # rows: B(b X + c0) is composed once per run, by Horner on arrays
        abc = np.column_stack([maps.a, maps.b, maps.c0])
        start = np.ones(found, dtype=bool)
        start[1:] = (abc[1:] != abc[:-1]).any(axis=1)
        a, b, c0 = abc[start].T
        composed = _substitute(
            ctx, np.broadcast_to(b_poly, (len(a), len(b_poly))), b, c0)
        fixes = np.zeros(ctx.order, dtype=bool)
        fixes[mu_fixers(spec_f)] = True
        law = fixes[a] & (composed
                          == ctx.vmul(a[:, None], b_poly)).all(axis=1)
        bad = int((~law[np.cumsum(start) - 1]).sum())
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
    # the embedding is GF(p)-linear: X^j goes to rho^j, read off exp
    # (rho = 0 only for k = 1, where j = 0 reads exp[0] = 1)
    powers = dst.log_np[rho] * np.arange(src.k) % (dst.order - 1)
    images = dst.exp_np[powers].tolist() + [0] * (dst.k - src.k)
    return dst.linear_map(images, np.arange(src.order)).tolist()


def _extension_degrees(ctx: FieldCtx):
    """t = 1, 2, ... for the extensions GF(Q^t) of the field; raises
    gf.check_order's ValueError once p^{k t} passes gf.MAX_ORDER."""
    for t in count(1):
        check_order(ctx.p, ctx.k * t)
        yield t


# Largest deg B whose roots b_roots finds; its polynomial steps are array
# passes whose count is quadratic in deg B.  A random monic B of degree
# 511 at p = 2, 509 over GF(3^6) and 512 otherwise (random.Random(1)) is
# refused at the field limit after these seconds of CPU on a 2-core x86-64
# VM, the slower of two runs, the radical test on lists in brackets: GF(2)
# 0.20 [3.5], GF(2^5) 0.42 [4.2], GF(2^10) 0.62 [5.7], GF(2^20) 1.23 [6.7],
# GF(3) 0.45 [6.8], GF(3^4) 1.19 [9.5], GF(3^6) 1.48 [13.4], GF(3^12) 2.46
# [16.2] (median of 5 runs, 2.31-3.60), GF(5^4) 1.28 [11.5], GF(7^3) 0.88
# [9.4], GF(1048573) 1.46 [25.6].  GF(3^12) is bound by the 12 digit passes
# of each vadd_scalar in poly.rem; raising the limit waits (ROADMAP item 22).
# A B that splits costs more, as its Hasse derivatives are evaluated on all
# of E: 511 distinct linear factors over GF(2^20) took 45.3 s in classify,
# 512 over GF(3^12) 28.7 s (random.Random(1) roots; item 22 again).
MAX_B_DEGREE = 512


def b_roots(spec: SeparatedCurveSpec):
    """Roots of B with multiplicities over its splitting field.

    Returns (field, [(root_index, multiplicity), ...]); the field is the
    smallest extension GF(Q^t) of the host field where B splits, the
    only one built.  With p^e the least power of p >= m, B splits there
    iff B | (X^{Q^t} - X)^{p^e} = X^{p^e Q^t} - X^{p^e}, as X^{Q^t} - X
    is the product of the X - a over GF(Q^t) and no root of B has
    multiplicity above m.  So x_0 = X^{p^e} mod B and x_t = x_{t-1}^Q
    mod B are formed in the host field, and B splits over GF(Q^t)
    exactly when x_t = x_0.
    B is evaluated over the whole field at once; a root's multiplicity is
    the number of leading Hasse derivatives H_0, H_1, .. of B vanishing
    there, each H_j evaluated only where H_0 .. H_{j-1} vanish.
    ValueError, before any polynomial step, if deg B passes
    MAX_B_DEGREE.
    """
    if spec.m > MAX_B_DEGREE:
        raise ValueError(f"deg B = {spec.m} exceeds the limit "
                         f"{MAX_B_DEGREE} of the root analysis")
    ctx = spec.ctx
    p_e = next(ctx.p ** e for e in count() if ctx.p ** e >= spec.m)
    x_power = x_0 = poly.powmod(ctx, [0, 1], p_e, spec.b_coeffs)
    for t in _extension_degrees(ctx):
        x_power = poly.powmod(ctx, x_power, ctx.order, spec.b_coeffs)
        if not np.array_equal(x_power, x_0):
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
            raise AssertionError("B does not split where the test says")
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
    lhs_x = poly.shifted_power(E, E.pow(gamma, m), shift, m)
    if not np.array_equal(lhs_x, E.vscale(k, np.array(spec.b_coeffs))):
        raise AssertionError("x-side of the standardization failed")
    if E.pow(delta, p ** n) != E.mul(k, an) or delta != E.mul(k, a0):
        raise AssertionError("y-side of the standardization failed")
