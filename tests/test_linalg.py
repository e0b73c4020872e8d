import ast
import random
from pathlib import Path

import numpy as np
import pytest

from normtrace import linalg
from normtrace.gf import build_field
from oracles import rank, reduce_row_by_entries


def test_rref_gf2():
    f2 = build_field(2, 1)
    M = np.array([[1, 1, 0, 1],
                  [0, 1, 1, 0],
                  [1, 0, 1, 1]])
    R, pivots = linalg.rref(f2, M)
    assert pivots == (0, 1)
    assert rank(f2, M) == 2
    # reduced form: unit pivots, zeros above and below
    assert R[0].tolist() == [1, 0, 1, 1]
    assert R[1].tolist() == [0, 1, 1, 0]
    assert not R[2].any()


def test_rref_is_canonical_under_row_scrambling(f27):
    rng = random.Random(3)
    M = np.array([[rng.randrange(27) for _ in range(8)] for _ in range(4)])
    R1, p1 = linalg.rref(f27, M)
    # scramble: scale rows and add random multiples of other rows
    S = M.copy()
    for _ in range(10):
        i, j = rng.randrange(4), rng.randrange(4)
        if i == j:
            S[i] = f27.vscale(rng.randrange(1, 27), S[i])
        else:
            S[i] = f27.vadd(S[i], f27.vscale(rng.randrange(27), S[j]))
    R2, p2 = linalg.rref(f27, S)
    # the RREF is canonical, so equal arrays mean equal row spaces
    assert p1 == p2
    assert np.array_equal(R1, R2)


def test_membership(f8):
    M = np.array([[1, 2, 3, 0],
                  [0, 1, 1, 5]])
    R, pivots = linalg.rref(f8, M)
    member = f8.vadd(f8.vscale(3, M[0]), f8.vscale(6, M[1]))
    assert not linalg.reduce_vector(f8, R, pivots, member).any()
    outsider = np.array([1, 0, 0, 1])
    assert linalg.reduce_vector(f8, R, pivots, outsider).any()


@pytest.mark.parametrize("field", ["f8", "f27"])
def test_reduce_vector_stack_matches_rows(field, request):
    ctx = request.getfixturevalue(field)
    rng = np.random.default_rng(7)
    M = rng.integers(0, ctx.order, (4, 9))
    M[3] = ctx.vadd(M[0], ctx.vscale(2, M[1]))  # rank 3
    R, pivots = linalg.rref(ctx, M)
    V = rng.integers(0, ctx.order, (6, 9))
    V[0] = 0
    V[1] = ctx.vadd(ctx.vscale(5, M[0]), M[2])  # a member
    V[2] = R[0]
    res = linalg.reduce_vector(ctx, R, pivots, V)
    assert res.shape == V.shape
    assert res.tolist() == [reduce_row_by_entries(ctx, R, pivots, v)
                            for v in V]
    assert not res[:3].any() and res[3:].any()
    assert np.array_equal(linalg.reduce_vector(ctx, R, pivots, V[4]), res[4])
    assert linalg.reduce_vector(ctx, R, pivots, V).any()
    assert not linalg.reduce_vector(ctx, R, pivots, V[:3]).any()


def test_row_space_equal_detects_difference(f8):
    A = np.array([[1, 0, 2], [0, 1, 4]])
    B = np.array([[1, 1, 6], [0, 1, 4]])  # row1 + row2 and row2: same space
    C = np.array([[1, 0, 2], [0, 1, 5]])
    RA, pa = linalg.rref(f8, A)
    assert np.array_equal(RA, linalg.rref(f8, B)[0])
    assert not np.array_equal(RA, linalg.rref(f8, C)[0])
    assert not linalg.reduce_vector(f8, RA, pa, B).any()
    assert linalg.reduce_vector(f8, RA, pa, C).any()


def test_rank_of_singular_square(f27):
    row = np.array([1, 5, 7, 0, 2])
    M = np.vstack([row, f27.vscale(9, row), f27.vscale(14, row)])
    assert rank(f27, M) == len(linalg.rref(f27, M)[1]) == 1


def test_rref_rejects_non_matrix(f8):
    with pytest.raises(ValueError):
        linalg.rref(f8, np.array([1, 2, 3]))


def test_codes_is_the_only_importer_of_linalg():
    # row-space questions go through AGCode; the other modules never
    # eliminate on their own
    importers = set()
    for path in Path(linalg.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.module == "linalg"
                    or any(a.name == "linalg" for a in node.names)):
                importers.add(path.stem)
    assert importers == {"codes"}
