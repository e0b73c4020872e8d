"""The entrywise stage of monomial_equivalence_check, which forms every
column's log ratio as one array from the two uint16 log matrices,
against the column-by-column scalar oracle on the element matrices,
over random fields of order at most 2^8."""

from functools import lru_cache

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from normtrace.codes import _entrywise_diagonal  # noqa: E402
from normtrace.gf import build_field, is_prime  # noqa: E402
from oracles import entrywise_diagonal_by_columns  # noqa: E402

FIELDS = [(p, k) for p in range(2, 257) if is_prime(p)
          for k in range(1, 9) if p ** k <= 256]

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)

# how B is made from A: its columns scaled, then nothing else, a random
# B, one entry's zero moved, or one ratio changed
KINDS = ("scaled", "random", "pattern", "ratio")


@lru_cache(maxsize=None)
def field(p, k):
    return build_field(p, k)


@st.composite
def matrix_pairs(draw):
    """(ctx, A, B, diag, kind) with A random, some of its columns zero,
    and B = A diag doctored as kind says."""
    ctx = field(*draw(st.sampled_from(FIELDS)))
    elem = st.integers(0, ctx.order - 1)
    unit = st.integers(1, ctx.order - 1)
    m, n = draw(st.integers(2, 5)), draw(st.integers(1, 8))
    A = np.array([[draw(elem) for _ in range(n)] for _ in range(m)],
                 dtype=np.int64)
    A[:, draw(st.lists(st.integers(0, n - 1), max_size=n))] = 0
    # one column with two nonzero entries
    col = draw(st.integers(0, n - 1))
    A[:2, col] = draw(unit), draw(unit)
    diag = np.array([draw(unit) for _ in range(n)], dtype=np.int64)
    B = ctx.vmul(A, diag[None, :])
    kind = draw(st.sampled_from(KINDS if ctx.order > 2 else KINDS[:3]))
    if kind == "random":
        B = np.array([[draw(elem) for _ in range(n)] for _ in range(m)],
                     dtype=np.int64)
    elif kind == "pattern":
        row, c = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
        B[row, c] = 0 if A[row, c] else draw(unit)
    elif kind == "ratio":
        row = draw(st.integers(0, 1))
        B[row, col] = draw(unit.filter(lambda v: v != B[row, col]))
    return ctx, A, B, diag, kind


@SETTINGS
@given(matrix_pairs())
def test_entrywise_diagonal_equals_column_oracle(case):
    ctx, A, B, diag, kind = case
    log = ctx.log_np.astype(np.uint16)
    got = _entrywise_diagonal(ctx, log[A], log[B])
    want = entrywise_diagonal_by_columns(ctx, A, B)
    if want is None:
        assert got is None
    else:
        assert got is not None and got.dtype == np.int64
        assert got.tolist() == want.tolist()
    if kind == "scaled":
        assert want.tolist() == np.where(A.any(axis=0), diag, 1).tolist()
    elif kind in ("pattern", "ratio"):
        assert want is None

