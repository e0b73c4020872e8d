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
from .curve import P_INFINITY, NormTraceCurve
from .gf import BudgetExceeded
from .rrspace import (FunctionElem, MonomialTerm, basis_multipoint,
                      basis_one_point, constant_one, evaluate)

MULTIPOINT = "multipoint"
EXTENDED_ONE_POINT = "extended-one-point"


# Largest peak, in bytes, that min_distance_exhaustive's word tables may
# reach; larger codes are refused before any table is built.
TABLE_MAX_BYTES = 1 << 30


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
        """The canonical RREF of the matrix, computed on first use."""
        if self._rref is None:
            self._rref = linalg.rref(self.curve.ctx, self.matrix)
        return self._rref

    def contains(self, word: np.ndarray) -> bool:
        """True iff word, one vector or a stack of rows, is in the code."""
        R, pivots = self.row_space()
        return not linalg.reduce_vector(self.curve.ctx, R, pivots, word).any()

    def to_report(self) -> dict:
        """Parameters and basis; code-build prints the matrix after them."""
        return {
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
    entry is 1 at valuation 0 and 0 above, as in rrspace.evaluate.

    The affine entries are one gather from the exp table at
    i log x + j log y mod Q - 1: x is nonzero on Theta, and so is y,
    since y = 0 forces norm(x) = trace(y) = 0.  Both terms stay below
    Q^2 <= 2^24 in absolute value (|i| <= ell < Q, j < h, Q within
    gf.TABLE_MAX_ORDER), so int32 holds the exponents.

    The rank check reads the first W = 1 + h * (most terms sharing one
    j) columns: P_inf and whole x-fibres.  The j = 0 terms alone number
    ell + 1, so these are more than deg G = ell * h places, and a
    nonzero function of L(G) vanishes on at most deg G of them.  Rank
    is at most k, so a prefix of rank k proves it; the full matrix is
    checked only if the prefix falls short."""
    basis = tuple(basis)
    pos, xs, ys = curve.theta_coords
    ctx = curve.ctx
    logs = ctx.log_np.astype(np.int32)
    i, j = np.array([(t.i, t.j) for t in basis], dtype=np.int32).T[:, :, None]
    expo = i * logs[xs]
    expo += j * logs[ys]
    expo %= ctx.order - 1
    matrix = np.empty((len(basis), len(pos) + 1), dtype=np.int64)
    matrix[:, 0] = [n_inf + curve.val_infinity(t.i, t.j) == 0 for t in basis]
    matrix[:, pos] = ctx.exp_np.astype(ctx.dtype)[expo]
    code = AGCode(curve, ell, kind, basis, matrix, n=matrix.shape[1],
                  k=len(basis), d_star=designed_distance(curve, ell))
    width = 1 + curve.h * int(np.bincount(j.ravel()).max())
    if (linalg.rank(ctx, matrix[:, :width]) != code.k
            and linalg.rank(ctx, matrix) != code.k):
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
    ctx = curve.ctx
    if not all(0 < ci < ctx.order for ci in c_list) or len(set(c_list)) != ell:
        raise ValueError(f"witness elements must be distinct nonzero "
                         f"elements of GF({ctx.order})")
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
    the budget, or when the word tables would need more than
    TABLE_MAX_BYTES at their peak, estimated before any is built.  If
    stop_at is given (a proven lower bound such as d*), the search
    stops as soon as a word of that weight has been found.

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
    need = _table_bytes(ctx, k, k2, n)
    if need > TABLE_MAX_BYTES:
        raise BudgetExceeded(f"word tables need about {need} bytes, above "
                             f"the limit {TABLE_MAX_BYTES}")
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


def _table_bytes(ctx, k: int, k2: int, n: int) -> int:
    """Upper estimate of min_distance_exhaustive's peak bytes: k * Q row
    multiples, the Q^k2 table and two sweep copies, plus encode's input
    and one bit plane (p = 2) or FieldCtx.vadd's intp flat index (p odd)."""
    Q, size = ctx.order, ctx.dtype.itemsize
    if ctx.p == 2:  # k bit planes of packed uint64 words
        word, temp = ctx.k * -(-n // 64) * 8, Q * (2 * n * size + -(-n // 8))
    else:  # one plane of element indices
        word, temp = n * size, (Q ** k2 + Q) * n * np.dtype(np.intp).itemsize
    return word * (k * Q + 3 * Q ** k2) + temp


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

    def encode(idx):
        idx = np.ascontiguousarray(idx, ctx.dtype)
        out = np.zeros((ctx.k, len(idx), -(-n // 64) * 8), np.uint8)
        for j, plane in enumerate(out):  # one (Q, n) bit plane at a time
            plane[:, :-(-n // 8)] = np.packbits(idx & (1 << j), axis=-1,
                                                bitorder="little")
        return out.view(np.uint64)

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


def equivalence_diagonal(curve: NormTraceCurve, ell: int) -> np.ndarray:
    """The explicit diagonal tying the multi-point code to the extended
    one-point code, in the column layout of curve.theta_coords: x(P)^ell
    at affine places, and 1 at P_inf, where t^{ell*h} x^ell has
    valuation 0."""
    pos, xs, _ = curve.theta_coords
    diag = np.ones(len(pos) + 1, dtype=np.int64)
    diag[pos] = curve.ctx.vpow(xs, ell)
    return diag


def monomial_equivalence_check(code_a: AGCode, code_b: AGCode):
    """Search for a diagonal scaling (identity permutation) carrying
    code_a onto code_b; returns an EquivalenceWitness or None.

    The diagonal D comes from entrywise column ratios of the generator
    matrices, which recover the explicit x(P)^ell diagonal of the
    canonical multi-point / extended one-point pair and give A D = B
    entry by entry, so no RREF is computed; else from column ratios of
    the reduced echelon forms, with equal pivot lists.  D must have no
    zero entry, and then the fallback's A D must lie in B's cached row
    space: a nonzero column scaling keeps the rank, so that is equality.
    """
    if code_a.n != code_b.n:
        raise ValueError("codes have different lengths")
    if code_a.k != code_b.k:
        return None
    ctx = code_a.curve.ctx
    diag = _entrywise_diagonal(ctx, code_a.matrix, code_b.matrix)
    entrywise = diag is not None
    if not entrywise:
        diag = _rref_diagonal(ctx, code_a, code_b)
    if diag is None or not diag.all():
        return None
    scaled = ctx.vmul(code_a.matrix, diag[None, :])
    if not (np.array_equal(scaled, code_b.matrix) if entrywise
            else code_b.contains(scaled)):
        return None
    return EquivalenceWitness(diagonal=diag,
                              permutation=tuple(range(code_a.n)))


def _entrywise_diagonal(ctx, A: np.ndarray, B: np.ndarray):
    """The column scaling that carries A onto B entry by entry, or None.
    A and B must share their zero pattern, and every nonzero ratio
    B / A in a column must equal the column's first one; a column of
    zeros takes 1."""
    nz = A != 0
    if not np.array_equal(nz, B != 0):
        return None
    ratios = np.zeros(A.shape, dtype=np.int64)
    ratios[nz] = ctx.vmul(B[nz], ctx.vpow(A[nz], -1))
    diag = ratios[nz.argmax(axis=0), np.arange(A.shape[1])]
    if not ((ratios == diag) | ~nz).all():
        return None
    diag[~nz.any(axis=0)] = 1
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
