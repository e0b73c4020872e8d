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
only, in the same loop.  Row-space questions such as membership belong
to codes.AGCode, which caches its RREF: this module only eliminates.

ranks eliminates a stack of small matrices in lockstep, one numpy step
per column for the whole stack.  It serves the class-wise rank proof of
codes._evaluation_code: when the scalings (x, y) -> (bx, b^c y) act
freely on the affine columns, an invertible DFT on each orbit turns
the generator matrix into blocks, one per character class
e = (i + c j) mod (Q - 1), each at most h + 1 columns wide, and the
rank of the matrix is the sum of the ranks of the blocks.
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


def ranks(ctx: FieldCtx, stack: np.ndarray) -> np.ndarray:
    """The rank of each matrix of a 3-D stack, by forward elimination
    on all of them at once: column by column, each matrix takes as
    pivot its first row that is nonzero there and not yet a pivot row,
    and clears the column in its other such rows.  Zero rows, such as
    the padding of a shorter matrix, add no rank."""
    R = np.array(stack, dtype=ctx.dtype)
    if R.ndim != 3:
        raise ValueError("stack must be 3-dimensional")
    count, m, n = R.shape
    free = R.any(axis=2)  # nonzero and not yet a pivot row
    out = np.zeros(count, dtype=np.int64)
    at = np.arange(count)
    log, exp = ctx.zero_log
    inv = ctx.exp_np[-ctx.log_np % (ctx.order - 1)]  # 1/a by index
    for col in range(n):
        if not free.any():
            break
        hit = free & (R[:, :, col] != 0)
        has = hit.any(axis=1)
        row = hit.argmax(axis=1)
        free[at[has], row[has]] = False
        out += has
        # a matrix with no pivot here gets a junk unit row, but it is
        # zero at col on its free rows, so every factor is zero
        unit = exp[log[inv[R[at, row, col]]][:, None]
                   + log[R[at, row, col + 1:]]]
        factor = ctx.vneg(np.where(free, R[:, :, col], 0))
        R[:, :, col + 1:] = ctx.vadd(
            R[:, :, col + 1:], exp[log[factor][:, :, None] + log[unit][:, None]])
    return out


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
