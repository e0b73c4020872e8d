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
from functools import cached_property

import numpy as np

from . import linalg
from .curve import NormTraceCurve, Place, P_INFINITY, affine_coords
from .rrspace import (FunctionElem, MonomialTerm, basis_multipoint,
                      basis_one_point, constant_one, evaluate,
                      extended_evaluate, local_parameter_at_infinity,
                      monomial)

MULTIPOINT = "multipoint"
EXTENDED_ONE_POINT = "extended-one-point"


class BudgetExceeded(ValueError):
    """Enumeration would exceed the caller's budget; fall back to the
    witness codeword plus the designed-distance bound."""


def _check_ell(curve: NormTraceCurve, ell: int):
    top = curve.q ** curve.r - 1
    if not 1 <= ell <= top:
        raise ValueError(f"ell = {ell} out of range 1..{top}")


@dataclass(eq=False)
class AGCode:
    """An evaluation code with its generator matrix and parameters.

    The matrix rows are evaluation vectors of the basis elements over
    the ordered places; the column order is the canonical place order.
    d_exact stays None until an exhaustive search fills it in.
    """

    curve: NormTraceCurve
    ell: int
    kind: str
    places: tuple[Place, ...]
    basis: tuple[MonomialTerm, ...]
    matrix: np.ndarray
    n: int
    k: int
    d_star: int
    d_exact: int | None = None
    _rref: tuple | None = field(default=None, repr=False)

    def row_space(self):
        if self._rref is None:
            self._rref = linalg.rref(self.curve.ctx, self.matrix)
        return self._rref

    def contains(self, word: np.ndarray) -> bool:
        R, pivots = self.row_space()
        return linalg.in_row_space(self.curve.ctx, R, pivots, word)

    @cached_property
    def place_coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """affine_coords of the code's places (column positions)."""
        return affine_coords(self.places)

    def to_report(self, include_matrix: bool = True) -> dict:
        rep = {
            "q": self.curve.q,
            "r": self.curve.r,
            "ell": self.ell,
            "kind": self.kind,
            "n": self.n,
            "k": self.k,
            "d_star": self.d_star,
            "d_exact": self.d_exact,
            "basis": [t.to_dict() for t in self.basis],
        }
        if include_matrix:
            rep["matrix"] = self.matrix.tolist()
        return rep


def build_code(curve: NormTraceCurve, ell: int) -> AGCode:
    """The multi-point code: evaluate the L(ell * Omega) monomial basis
    over Theta.  The evaluation map is injective (n > deg G), so the
    matrix rank equals the basis size; this is checked."""
    _check_ell(curve, ell)
    return _evaluation_code(curve, ell, MULTIPOINT,
                            basis_multipoint(curve, ell), 0)


def extended_one_point_code(curve: NormTraceCurve, ell: int) -> AGCode:
    """The extended one-point code: evaluate the L(ell*h * P_inf) basis
    over Theta, with the P_inf entry taken through t^{ell*h} for the
    canonical local parameter t."""
    _check_ell(curve, ell)
    return _evaluation_code(curve, ell, EXTENDED_ONE_POINT,
                            basis_one_point(curve, ell * curve.h),
                            ell * curve.h)


def _evaluation_code(curve: NormTraceCurve, ell: int, kind: str, basis,
                     n_inf: int) -> AGCode:
    """Evaluate the monomials x^i y^j of basis over Theta; P_inf carries
    weight n_inf in the divisor, so its entry is the value of
    t^{n_inf} x^i y^j there (plain evaluation at n_inf = 0)."""
    places = curve.theta
    basis = tuple(basis)
    code = AGCode(curve, ell, kind, places, basis,
                  np.empty((len(basis), len(places)), dtype=np.int64),
                  n=len(places), k=len(basis),
                  d_star=designed_distance(curve, ell))
    pos, xs, ys = code.place_coords
    inf = places.index(P_INFINITY)
    t_loc = local_parameter_at_infinity(curve)
    ctx = curve.ctx
    for row, t in zip(code.matrix, basis):
        row[inf] = extended_evaluate(monomial(curve, 1, t.i, t.j),
                                     P_INFINITY, n_inf, t_loc)
        row[pos] = ctx.vmul(ctx.vpow(xs, t.i), ctx.vpow(ys, t.j))
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
    """Evaluation vector of the witness function over the code places;
    its Hamming weight equals d* exactly."""
    f = witness_function(code.curve, code.ell, c_list)
    return np.array([evaluate(f, P) for P in code.places], dtype=np.int64)


def min_distance_exhaustive(code: AGCode, budget: int,
                            stop_at: int | None = None,
                            table_limit: int = 1 << 16) -> int:
    """Minimum weight over all nonzero messages, by exhaustive
    enumeration of the message space.

    Raises BudgetExceeded when the field-order^k message count exceeds
    the budget.  If stop_at is given (a proven lower bound such as d*),
    the search stops as soon as a word of that weight has been found.
    The enumeration tabulates all combinations of the trailing rows up
    to table_limit words and sweeps prefixes over the table.
    """
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
    one-point code: x(P)^ell at affine places, and the extended value of
    t^{ell*h} x^ell at P_inf."""
    at_inf = extended_evaluate(monomial(curve, 1, ell, 0), P_INFINITY,
                               ell * curve.h,
                               local_parameter_at_infinity(curve))
    out = np.full(len(places), at_inf, dtype=np.int64)
    pos, xs, _ = affine_coords(places)
    out[pos] = curve.ctx.vpow(xs, ell)
    return out


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
