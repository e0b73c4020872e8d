"""Exact dense linear algebra over a finite field.

Matrices are numpy arrays of element indices; every array this module
returns is int64.  Inside, rref and reduce_vector work on a copy in the
field's narrow element dtype, and each row update is one call of
FieldCtx.vmul_outer (one gather from the exp table) plus vadd/vneg, so
everything is exact, at any field order.

The reduced row echelon form is fully normalized (unit pivots,
eliminated above and below, pivot search in index order), hence
canonical: two matrices have equal row spaces iff their RREFs are equal
arrays.  Row-space questions such as membership belong to
codes.AGCode, which caches its RREF: this module only eliminates.  No
code build computes a rank: codes._evaluation_code proves it from the
basis.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldCtx


def rref(ctx: FieldCtx, mat: np.ndarray):
    """Reduced row echelon form, by Gaussian elimination on a copy of
    mat in the element dtype: each pivot row is scaled to a unit pivot
    and clears its column in every other row.

    Returns (R, pivot_cols) where R has the same shape as mat with
    all-zero rows at the bottom, and pivot_cols lists the pivot column
    of each nonzero row (its length is the rank).
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
        pivot = int(R[row, col])
        if pivot != 1:
            R[row, col:] = ctx.vscale(ctx.inv(pivot), R[row, col:])
        unit = R[row, col:]
        others = np.nonzero(R[:, col])[0]
        others = others[others != row]
        if len(others):
            R[others, col:] = ctx.vadd(
                R[others, col:],
                ctx.vmul_outer(ctx.vneg(R[others, col]), unit))
        pivots.append(col)
        row += 1
    return R.astype(np.int64), tuple(pivots)


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
