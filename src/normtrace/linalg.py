"""Exact dense linear algebra over a finite field.

Matrices are numpy arrays of element indices; every array this module
returns is int64.  Inside, rref and reduce_vector work on a copy in the
field's narrow element dtype, and each row update is one call of
FieldCtx.vmul_outer (a gather from the Q x Q product table) plus
vadd/vneg, so everything is exact.  They therefore need the field order
to be at most gf.TABLE_MAX_ORDER, in every characteristic.

The reduced row echelon form is fully normalized (unit pivots,
eliminated above and below, pivot search in index order), hence
canonical: two matrices have equal row spaces iff their RREFs are equal
arrays.  rank needs no canonical form: it eliminates below each pivot
only, in the same loop.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldCtx


def rref(ctx: FieldCtx, mat: np.ndarray):
    """Reduced row echelon form.

    Returns (R, pivot_cols) where R has the same shape as mat with
    all-zero rows at the bottom, and pivot_cols lists the pivot column
    of each nonzero row (its length is the rank).
    """
    R, pivots = _eliminate(ctx, mat, reduced=True)
    return R.astype(np.int64), pivots


def rank(ctx: FieldCtx, mat: np.ndarray) -> int:
    """Rank by forward elimination: rows below each pivot only, with the
    stored pivot rows left unscaled."""
    return len(_eliminate(ctx, mat, reduced=False)[1])


def _eliminate(ctx: FieldCtx, mat: np.ndarray, reduced: bool):
    """Gaussian elimination on a copy of mat in the element dtype.

    Each pivot clears its column in the rows below it, and with reduced
    also in the rows above, after the pivot row is scaled to a unit
    pivot: the result is then the RREF, else a row echelon form.
    Returns (R, pivot_cols).
    """
    R = np.array(mat, dtype=ctx.dtype)
    if R.ndim != 2:
        raise ValueError("matrix must be 2-dimensional")
    m, n = R.shape
    pivots: list[int] = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        nz = np.nonzero(R[row:, col])[0]
        if len(nz) == 0:
            continue
        pr = row + int(nz[0])
        if pr != row:
            R[[row, pr]] = R[[pr, row]]
        # the pivot row is zero left of col, so only col: onwards changes
        unit = R[row, col:]
        pivot = int(unit[0])
        if pivot != 1:
            unit = ctx.vscale(ctx.inv(pivot), unit)
            if reduced:
                R[row, col:] = unit
        start = 0 if reduced else row + 1
        others = start + np.nonzero(R[start:, col])[0]
        others = others[others != row]
        if len(others):
            R[others, col:] = ctx.vadd(
                R[others, col:],
                ctx.vmul_outer(ctx.vneg(R[others, col]), unit))
        pivots.append(col)
        row += 1
    return R, tuple(pivots)


def reduce_vector(ctx: FieldCtx, R: np.ndarray, pivots, vec: np.ndarray) -> np.ndarray:
    """Residual of vec after elimination against the RREF rows.

    vec is one vector or a stack of rows (2-D); every row is reduced in
    the same pass over the pivots, and the residual has vec's shape.
    """
    out = np.array(vec, dtype=ctx.dtype)
    rows = out.reshape(-1, out.shape[-1])  # a view: rows alias out
    for r, col in enumerate(pivots):
        hit = np.nonzero(rows[:, col])[0]
        if len(hit):
            # RREF row r is zero left of its pivot
            rows[hit, col:] = ctx.vadd(
                rows[hit, col:],
                ctx.vmul_outer(ctx.vneg(rows[hit, col]), R[r, col:]))
    return out.astype(np.int64)


def in_row_space(ctx: FieldCtx, R: np.ndarray, pivots, vec: np.ndarray) -> bool:
    """True iff vec (one vector, or every row of a stack) lies in the
    row space of the RREF rows."""
    return not reduce_vector(ctx, R, pivots, vec).any()


def row_space_equal(ctx: FieldCtx, A: np.ndarray, B: np.ndarray) -> bool:
    RA, pa = rref(ctx, A)
    RB, pb = rref(ctx, B)
    if pa != pb:
        return False
    ra = len(pa)
    return bool(np.array_equal(RA[:ra], RB[:ra]))


def row_space_contains(ctx: FieldCtx, A: np.ndarray, B: np.ndarray) -> bool:
    """True iff every row of B lies in the row space of A."""
    RA, pa = rref(ctx, A)
    return in_row_space(ctx, RA, pa, B)
