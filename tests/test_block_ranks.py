"""linalg.ranks, which eliminates a stack of matrices in lockstep,
against linalg.rank on each matrix, over random fields of order at most
2^8: blocks with zero rows, repeated rows, multiples of other rows and
zero padding."""

from functools import lru_cache

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from normtrace import linalg  # noqa: E402
from normtrace.gf import build_field, is_prime  # noqa: E402

FIELDS = [(p, k) for p in range(2, 257) if is_prime(p)
          for k in range(1, 9) if p ** k <= 256]

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)


@lru_cache(maxsize=None)
def field(p, k):
    return build_field(p, k)


@st.composite
def stacks(draw):
    """(ctx, stack, rows) with stack[b] a random block of rows[b] rows,
    padded with zero rows to the tallest; rows are random, zero, a copy
    or a multiple of an earlier row."""
    ctx = field(*draw(st.sampled_from(FIELDS)))
    count = draw(st.integers(1, 6))
    width = draw(st.integers(1, 7))
    rows = draw(st.lists(st.integers(0, 8), min_size=count, max_size=count))
    stack = np.zeros((count, max(rows), width), dtype=np.int64)
    elem = st.integers(0, ctx.order - 1)
    for block, m in zip(stack, rows):
        for r in range(m):
            kind = draw(st.sampled_from(
                ("random", "zero", "copy", "multiple") if r else ("random",)))
            if kind == "random":
                block[r] = draw(st.lists(elem, min_size=width,
                                         max_size=width))
            elif kind in ("copy", "multiple"):
                src = block[draw(st.integers(0, r - 1))]
                block[r] = src if kind == "copy" else ctx.vscale(
                    draw(elem), src)
    return ctx, stack, rows


@SETTINGS
@given(stacks())
def test_ranks_match_rank_per_block(case):
    ctx, stack, rows = case
    got = linalg.ranks(ctx, stack)
    assert got.tolist() == [linalg.rank(ctx, block[:m])
                            for block, m in zip(stack, rows)]
    # the padding adds no rank, and neither does the order of the stack
    assert got.tolist() == [linalg.rank(ctx, block) for block in stack]
    assert linalg.ranks(ctx, stack[::-1]).tolist() == got[::-1].tolist()


def test_ranks_of_known_blocks(f8):
    row = np.array([1, 2, 3])
    stack = np.array([[row, f8.vscale(5, row), [0, 0, 0]],
                      [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                      [[0, 1, 0], [1, 0, 0], [0, 0, 5]]])
    assert linalg.ranks(f8, stack).tolist() == [1, 0, 3]
    assert linalg.ranks(f8, stack[:0]).tolist() == []


def test_ranks_rejects_a_matrix(f8):
    with pytest.raises(ValueError):
        linalg.ranks(f8, np.eye(3, dtype=np.int64))
