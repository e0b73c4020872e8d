"""Multi-point evaluation codes on the norm-trace curve.

The code C(ell) evaluates L(ell * Omega) at the places of Theta (all
rational places away from the zeros of x, the place at infinity
included).  Its length is n = q^{2r-1} + 1 - q^{r-1}, its designed
minimum distance is d* = n - ell * q^{r-1}, and d* is attained.

The same row space arises, up to a diagonal column scaling, as the
extended one-point code evaluating L(ell*q^{r-1} * P_inf) with a
local-parameter correction at P_inf; both constructions and the
explicit equivalence witness are provided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg
from .curve import P_INFINITY, NormTraceCurve, Place
from .rrspace import (FunctionElem, MonomialTerm, basis_multipoint,
                      basis_one_point, constant_one, evaluate)

MULTIPOINT = "multipoint"
EXTENDED_ONE_POINT = "extended-one-point"


class BudgetExceeded(ValueError):
    """Enumeration would exceed the caller's budget; fall back to the
    witness codeword plus the designed-distance bound."""


def _check_ell(curve: NormTraceCurve, ell: int):
    top = curve.q ** curve.r - 1
    if not 1 <= ell <= top:
        raise ValueError(f"ell = {ell} out of range 1..{top}")


def _check_code(curve: NormTraceCurve, ell: int):
    """Refuse a code before any place is enumerated: ell out of range,
    or a field too large for the linear algebra (the rank check)."""
    _check_ell(curve, ell)
    curve.ctx.check_table_order()


@dataclass(eq=False)
class AGCode:
    """An evaluation code with its generator matrix and parameters.

    The matrix rows are evaluation vectors of the basis elements over
    Theta, in the column layout of curve.theta_coords.  The report's
    d_exact is None: min_distance_exhaustive returns the distance.
    """

    curve: NormTraceCurve
    ell: int
    kind: str
    basis: tuple[MonomialTerm, ...]
    matrix: np.ndarray
    n: int
    k: int
    d_star: int
    _rref: tuple | None = field(default=None, repr=False)

    def row_space(self):
        if self._rref is None:
            self._rref = linalg.rref(self.curve.ctx, self.matrix)
        return self._rref

    def contains(self, word: np.ndarray) -> bool:
        R, pivots = self.row_space()
        return linalg.in_row_space(self.curve.ctx, R, pivots, word)

    @property
    def places(self) -> tuple[Place, ...]:
        """The place of each column, built only when asked for."""
        return self.curve.theta

    def to_report(self, include_matrix: bool = True) -> dict:
        rep = {
            "q": self.curve.q,
            "r": self.curve.r,
            "ell": self.ell,
            "kind": self.kind,
            "n": self.n,
            "k": self.k,
            "d_star": self.d_star,
            "d_exact": None,
            "basis": [t.to_dict() for t in self.basis],
        }
        if include_matrix:
            rep["matrix"] = self.matrix.tolist()
        return rep


def build_code(curve: NormTraceCurve, ell: int) -> AGCode:
    """The multi-point code: evaluate the L(ell * Omega) monomial basis
    over Theta.  The evaluation map is injective (n > deg G), so the
    matrix rank equals the basis size; this is checked."""
    _check_code(curve, ell)
    return _evaluation_code(curve, ell, MULTIPOINT,
                            basis_multipoint(curve, ell), 0)


def extended_one_point_code(curve: NormTraceCurve, ell: int) -> AGCode:
    """The extended one-point code: evaluate the L(ell*h * P_inf) basis
    over Theta, with the P_inf entry taken through t^{ell*h} for the
    canonical local parameter t."""
    _check_code(curve, ell)
    return _evaluation_code(curve, ell, EXTENDED_ONE_POINT,
                            basis_one_point(curve, ell * curve.h),
                            ell * curve.h)


def _evaluation_code(curve: NormTraceCurve, ell: int, kind: str, basis,
                     n_inf: int) -> AGCode:
    """Evaluate the monomials x^i y^j of basis in the column layout of
    curve.theta_coords.  P_inf has weight n_inf in the divisor, and
    t^{n_inf} x^i y^j has valuation n_inf - (i*h + j*c) >= 0 there: the
    entry is 1 at valuation 0 and 0 above, as in rrspace.evaluate."""
    basis = tuple(basis)
    pos, xs, ys = curve.theta_coords
    ctx = curve.ctx
    matrix = np.empty((len(basis), len(pos) + 1), dtype=np.int64)
    for row, t in zip(matrix, basis):
        row[0] = n_inf + curve.val_infinity(t.i, t.j) == 0
        row[pos] = ctx.vmul(ctx.vpow(xs, t.i), ctx.vpow(ys, t.j))
    code = AGCode(curve, ell, kind, basis, matrix, n=matrix.shape[1],
                  k=len(basis), d_star=designed_distance(curve, ell))
    if len(code.row_space()[1]) != code.k:
        raise AssertionError("evaluation matrix rank dropped below basis size")
    return code


def designed_distance(curve: NormTraceCurve, ell: int) -> int:
    """d* = n - deg G = q^{2r-1} + 1 - (ell+1) * q^{r-1}."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    q, r = curve.q, curve.r
    return q ** (2 * r - 1) + 1 - (ell + 1) * q ** (r - 1)


def dimension_closed_form(q: int, r: int, ell: int) -> int:
    """Dimension of the ell-th multi-point code, in closed form.

    Two regimes: for ell >= c - 2 the divisor degree exceeds 2g - 2 and
    Riemann-Roch gives k = ell*h + 1 - g directly; for ell <= c - 3 the
    dimension is the semigroup count worked out into a floor-sum with a
    three-way case split on ell mod q.
    """
    c = (q ** r - 1) // (q - 1)
    h = q ** (r - 1)
    if not 1 <= ell <= q ** r - 1:
        raise ValueError(f"ell = {ell} out of range 1..{q ** r - 1}")
    if ell >= c - 2:
        g = (h - 1) * (c - 1) // 2
        return ell * h + 1 - g
    fl = ell // q
    total = (Fraction(ell + 1)
             + Fraction(q - 1, 2) * fl * (fl + 1)
             + Fraction(q * q - 3 * q + 2, 2)
             + _dimension_delta(q, ell))
    assert total.denominator == 1
    return int(total)


def _dimension_delta(q: int, ell: int) -> Fraction:
    fl = ell // q
    if ell % q == 0:
        t = Fraction(ell, q) - 1
        return (Fraction((q - 1) ** 2, 2) * t * t
                + Fraction((q - 3) * (q - 1), 2) * t
                + Fraction(q * (q - 1), 2) * t)
    if ell % q == q - 1:
        return (Fraction((q - 1) ** 2, 2) * fl * fl
                + Fraction((q - 3) * (q - 1), 2) * fl
                + Fraction(q * (q - 1), 2) * fl)
    rem = ell - fl * q
    part_a = Fraction(q - 1, 2) * (rem * fl * fl
                                   + (q - rem - 1) * (fl - 1) ** 2)
    part_b = Fraction(q - 3, 2) * (rem * fl + (q - rem - 1) * (fl - 1))
    part_c = (Fraction(1, 2) * fl * rem * (rem + 1)
              + Fraction(1, 2) * (fl - 1) * (q - 1 - rem) * (q + rem))
    return part_a + part_b + part_c


# ----------------------------------------------------------------------
# Minimum distance
# ----------------------------------------------------------------------

def witness_function(curve: NormTraceCurve, ell: int,
                     c_list=None) -> FunctionElem:
    """The function prod_i (x - c_i)/x whose evaluation vector has
    weight exactly d*.  Defaults to the first ell nonzero elements."""
    _check_ell(curve, ell)
    if c_list is None:
        c_list = list(range(1, ell + 1))
    if len(c_list) != ell:
        raise ValueError(f"need exactly {ell} elements, got {len(c_list)}")
    if 0 in c_list or len(set(c_list)) != ell:
        raise ValueError("witness elements must be distinct and nonzero")
    ctx = curve.ctx
    f = constant_one(curve)
    for ci in c_list:
        # multiply by (1 - ci * x^{-1})
        f = f + f.mul_term(MonomialTerm(-1, 0), ctx.neg(ci))
    return f


def witness_codeword(code: AGCode, c_list=None) -> np.ndarray:
    """Evaluation vector of the witness function in the column layout
    of curve.theta_coords; its Hamming weight equals d* exactly.  Its
    terms are powers of x, which is nonzero on Theta, so each term is
    one array power; P_inf takes the valuation rule of rrspace.evaluate."""
    curve = code.curve
    ctx = curve.ctx
    f = witness_function(curve, code.ell, c_list)
    pos, xs, ys = curve.theta_coords
    word = np.zeros(code.n, dtype=np.int64)
    word[0] = evaluate(f, P_INFINITY)
    for coeff, t in f.terms:
        term = ctx.vmul(ctx.vpow(xs, t.i), ctx.vpow(ys, t.j))
        word[pos] = ctx.vadd(word[pos], ctx.vscale(coeff, term))
    return word


def min_distance_exhaustive(code: AGCode, budget: int,
                            stop_at: int | None = None,
                            table_limit: int = 1 << 16) -> int:
    """Minimum weight over all nonzero messages, by exhaustive
    enumeration of the projective message space.

    Raises BudgetExceeded when the field-order^k message count exceeds
    the budget.  If stop_at is given (a proven lower bound such as d*),
    the search stops as soon as a word of that weight has been found.

    Every nonzero message is a scalar multiple of exactly one message
    whose highest nonzero digit is 1, and scaling keeps the weight, so
    only those (Q^k - 1)/(Q - 1) messages are enumerated.  All
    combinations of the trailing rows, up to table_limit words and
    leaving the first row out when k > 1, are tabulated.  The zero
    prefix takes the table's leading-one words; every leading-one
    prefix, in increasing order, sweeps the whole table.  The table is
    closed under negation, so the least weight of prefix + table equals
    the least Hamming distance from the prefix word to the table.
    """
    ctx = code.curve.ctx
    Q = ctx.order
    k, n = code.k, code.n
    if Q ** k > budget:
        raise BudgetExceeded(
            f"message space {Q}^{k} exceeds budget {budget}")
    # k2 < k unless k = 1: the zero prefix alone would use only the
    # table's leading-one words, a (Q - 1)-th of it
    k2 = 1
    while k2 + 1 < k and Q ** (k2 + 1) <= table_limit:
        k2 += 1
    k1 = k - k2
    encode, add, distance = _word_kernel(ctx, n)
    # multiples[i][:, s] is the word s * (row i), encoded
    digits = np.arange(Q)
    multiples = [encode(ctx.vmul_outer(digits, row)) for row in code.matrix]
    zero = multiples[0][:, :1]
    table = zero
    for mult in multiples[k1:]:
        table = add(table[:, None], mult[:, :, None]).reshape(
            len(zero), -1, zero.shape[-1])

    def sweeps():
        yield table[:, _leading_one(Q, k2)], zero  # the zero prefix
        for m in _leading_one(Q, k1):
            word = zero
            for mult in multiples[:k1]:
                m, digit = divmod(m, Q)
                if digit:
                    word = add(word, mult[:, digit:digit + 1])
            yield table, word

    best = n + 1
    for words, word in sweeps():
        w = int(distance(words, word).min())
        if w < best:
            best = w
            if stop_at is not None and best <= stop_at:
                break
    return best


def _leading_one(Q: int, digits: int) -> np.ndarray:
    """The numbers below Q^digits whose highest nonzero base-Q digit is
    1, in increasing order."""
    return np.concatenate([np.arange(Q ** i, 2 * Q ** i)
                           for i in range(digits)] + [np.arange(0)])


def _word_kernel(ctx, n: int):
    """(encode, add, distance) for words of length n over ctx.

    A stack of words is a (planes, words, length) array.  In
    characteristic 2 a word is its k bit planes, each packed into
    uint64, and words add by XOR; in odd characteristic it is one plane
    of element indices in the field's narrow dtype, added by
    FieldCtx.vadd.  encode packs a (words, n) array of element indices;
    distance gives the Hamming distance of each word of a stack to one
    word.
    """
    if ctx.p != 2:
        def distance(words, word):
            return np.count_nonzero(words[0] != word[0], axis=-1)
        return ((lambda idx: np.ascontiguousarray(idx[None], ctx.dtype)),
                ctx.vadd, distance)

    planes = np.arange(ctx.k, dtype=ctx.dtype)[:, None, None]

    def encode(idx):
        idx = np.ascontiguousarray(idx, ctx.dtype)
        bits = ((idx >> planes) & 1).astype(np.uint8)
        bits = np.pad(bits, [(0, 0), (0, 0), (0, -n % 64)])
        return np.packbits(bits, axis=-1, bitorder="little").view(np.uint64)

    def distance(words, word):
        return np.bitwise_count(
            np.bitwise_or.reduce(words ^ word, axis=0)).sum(axis=-1)

    return encode, np.bitwise_xor, distance


# ----------------------------------------------------------------------
# Monomial equivalence
# ----------------------------------------------------------------------

@dataclass
class EquivalenceWitness:
    """Witness of a monomial equivalence with identity permutation:
    scaling column p of code_a by diagonal[p] yields code_b's row space."""

    diagonal: np.ndarray
    permutation: tuple[int, ...]


def equivalence_diagonal(curve: NormTraceCurve, ell: int,
                         places) -> np.ndarray:
    """The explicit diagonal tying the multi-point code to the extended
    one-point code: x(P)^ell at affine places, and 1 at P_inf, where
    t^{ell*h} x^ell has valuation 0."""
    ctx = curve.ctx
    return np.array([1 if P.is_infinity else ctx.pow(P.x, ell)
                     for P in places], dtype=np.int64)


def monomial_equivalence_check(code_a: AGCode, code_b: AGCode):
    """Search for a diagonal scaling (identity permutation) carrying
    code_a onto code_b; returns an EquivalenceWitness or None.

    The search first tries entrywise column ratios of the generator
    matrices (which recovers the explicit x(P)^ell diagonal when the
    codes are the canonical multi-point / extended one-point pair), then
    falls back to column ratios of the reduced echelon forms.  Only the
    identity permutation is searched.
    """
    if code_a.n != code_b.n:
        raise ValueError("codes have different lengths")
    if code_a.k != code_b.k:
        return None
    ctx = code_a.curve.ctx
    diag = _entrywise_diagonal(ctx, code_a.matrix, code_b.matrix)
    if diag is None:
        diag = _rref_diagonal(ctx, code_a, code_b)
    if diag is None:
        return None
    scaled = ctx.vmul(code_a.matrix, diag[None, :])
    if not linalg.row_space_equal(ctx, scaled, code_b.matrix):
        return None
    return EquivalenceWitness(diagonal=diag,
                              permutation=tuple(range(code_a.n)))


def _entrywise_diagonal(ctx, A: np.ndarray, B: np.ndarray):
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


def _rref_diagonal(ctx, code_a: AGCode, code_b: AGCode):
    RA, pa = code_a.row_space()
    RB, pb = code_b.row_space()
    if pa != pb:
        return None
    kk = len(pa)
    RA, RB = RA[:kk], RB[:kk]
    if not np.array_equal(RA == 0, RB == 0):
        return None
    n = RA.shape[1]
    col_val = [0] * n   # unknown diagonal entries (0 = unassigned)
    row_val = [0] * kk  # unknown row normalizations
    for seed in range(n):
        if col_val[seed] or not RA[:, seed].any():
            continue
        col_val[seed] = 1
        queue = [("col", seed)]
        while queue:
            kind, idx = queue.pop()
            if kind == "col":
                for r in np.nonzero(RA[:, idx])[0]:
                    ratio = ctx.div(int(RB[r, idx]), int(RA[r, idx]))
                    want = ctx.div(ratio, col_val[idx])
                    if row_val[r] == 0:
                        row_val[r] = want
                        queue.append(("row", int(r)))
                    elif row_val[r] != want:
                        return None
            else:
                for cc in np.nonzero(RA[idx])[0]:
                    ratio = ctx.div(int(RB[idx, cc]), int(RA[idx, cc]))
                    want = ctx.div(ratio, row_val[idx])
                    if col_val[cc] == 0:
                        col_val[cc] = want
                        queue.append(("col", int(cc)))
                    elif col_val[cc] != want:
                        return None
    return np.array([v if v else 1 for v in col_val], dtype=np.int64)
