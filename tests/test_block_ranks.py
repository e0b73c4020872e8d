"""The oracles of a code's rank and the gather that builds its matrix,
over random fields and curves of order at most 2^8.

oracles.ranks, which eliminates a stack of class blocks in lockstep,
against oracles.rank on each matrix: blocks with zero rows, repeated
rows, multiples of other rows and zero padding.  And
codes._log_matrix, gathered as AGCode.matrix gathers it, against the
scalar evaluator oracles.evaluate_at on random codes of random
curves."""

from functools import lru_cache

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from normtrace.curve import build_curve  # noqa: E402
from normtrace.gf import build_field, is_prime, prime_factors  # noqa: E402
from normtrace.rrspace import basis_multipoint, basis_one_point  # noqa: E402
from oracles import (evaluation_by_places, evaluation_matrix, rank,  # noqa: E402
                     ranks)

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
    got = ranks(ctx, stack)
    assert got.tolist() == [rank(ctx, block[:m])
                            for block, m in zip(stack, rows)]
    # the padding adds no rank, and neither does the order of the stack
    assert got.tolist() == [rank(ctx, block) for block in stack]
    assert ranks(ctx, stack[::-1]).tolist() == got[::-1].tolist()


def test_ranks_of_known_blocks(f8):
    row = np.array([1, 2, 3])
    stack = np.array([[row, f8.vscale(5, row), [0, 0, 0]],
                      [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                      [[0, 1, 0], [1, 0, 0], [0, 0, 5]]])
    assert ranks(f8, stack).tolist() == [1, 0, 3]
    assert ranks(f8, stack[:0]).tolist() == []


def test_ranks_rejects_a_matrix(f8):
    with pytest.raises(ValueError):
        ranks(f8, np.eye(3, dtype=np.int64))


CURVES = [(q, r) for q in range(2, 17) if len(set(prime_factors(q))) == 1
          for r in range(2, 9) if q ** r <= 256]


@lru_cache(maxsize=None)
def curve(q, r):
    return build_curve(q, r)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_gather_equals_scalar_evaluation(data):
    # a few rows and affine columns of each drawn code: the rows of a
    # code with a large k are never all gathered
    cv = curve(*data.draw(st.sampled_from(CURVES)))
    ell = data.draw(st.integers(1, cv.ctx.order - 1))
    n_inf = data.draw(st.sampled_from([0, ell * cv.h]))
    basis = (basis_one_point(cv, n_inf) if n_inf
             else basis_multipoint(cv, ell))
    rows = basis[:, data.draw(st.lists(st.integers(0, basis.shape[1] - 1),
                                       min_size=1, max_size=4))]
    n = len(cv.theta_coords[0]) + 1
    cols = data.draw(st.lists(st.integers(1, n - 1), min_size=1,
                              max_size=12))
    matrix = evaluation_matrix(cv, rows, n_inf)
    assert np.array_equal(matrix[:, cols], evaluation_by_places(cv, rows, cols))
