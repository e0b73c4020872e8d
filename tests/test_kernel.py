"""The elimination kernel (FieldCtx.vmul_outer, one gather from the exp
table, and the sum table add_np under linalg.rref, rank and
reduce_vector) against the scalar oracles, over random fields of order
at most 2^12, and over GF(2^13) and GF(3^8), above the table cap, where
characteristic 2 adds by XOR and odd characteristic by the Zech sum."""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from normtrace import linalg  # noqa: E402
from normtrace.cli import main  # noqa: E402
from normtrace.gf import FieldCtx, build_field, is_prime  # noqa: E402
from oracles import rank, reduce_row_by_entries, rref_by_entries  # noqa: E402

FIELDS = [(p, k) for p in range(2, 4097) if is_prime(p)
          for k in range(1, 13) if p ** k <= 4096 and (k > 1 or p < 64)]
FIELDS.append((4093, 1))  # the largest prime below the table cap
SETTINGS = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None)


@lru_cache(maxsize=4)  # a field's sum table reaches 32 MB near the cap
def field(p, k):
    return build_field(p, k)


def random_matrix(draw, ctx, m, n):
    """A random m x n matrix whose last rows are random combinations of
    the first ones, so its rank is usually below min(m, n)."""
    elem = st.integers(0, ctx.order - 1)
    free = draw(st.integers(1, m))
    rows = [[draw(elem) for _ in range(n)] for _ in range(free)]
    for _ in range(m - free):
        row = [0] * n
        for src in rows[:free]:
            c = draw(elem)
            row = [ctx.add(a, ctx.mul(c, b)) for a, b in zip(row, src)]
        rows.append(row)
    order = draw(st.permutations(range(m)))
    return np.array([rows[i] for i in order], dtype=np.int64)


def assert_kernel_matches_oracles(ctx, M, V):
    """rref, reduce_vector and vmul_outer equal the scalar oracles."""
    R, pivots = linalg.rref(ctx, M)
    want_R, want_pivots = rref_by_entries(ctx, M)
    assert R.dtype == np.int64
    assert pivots == want_pivots
    assert R.tolist() == want_R
    res = linalg.reduce_vector(ctx, R, pivots, V)
    assert res.dtype == np.int64
    assert res.tolist() == [reduce_row_by_entries(ctx, R, pivots, v)
                            for v in V]
    col, row = M[:, 0], M[0]
    for c, r in ((col, row), (col.astype(ctx.dtype), row.astype(ctx.dtype))):
        assert ctx.vmul_outer(c, r).tolist() == [
            [ctx.mul(int(a), int(b)) for b in row] for a in col]


@st.composite
def kernel_case(draw, fields=FIELDS):
    ctx = field(*draw(st.sampled_from(fields)))
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    M = random_matrix(draw, ctx, m, n)
    # members of the row space (the rows themselves) and random vectors
    V = np.vstack([M, random_matrix(draw, ctx, draw(st.integers(1, 3)), n)])
    return ctx, M, V


@SETTINGS
@given(kernel_case())
def test_kernel_matches_oracles(case):
    assert_kernel_matches_oracles(*case)


@SETTINGS
@given(data=st.data())
def test_vadd_scalar_matches_vadd(data):
    # the Zech sum, for one element and for an array of them, against
    # the add table of FieldCtx.vadd
    ctx = field(*data.draw(st.sampled_from(FIELDS)))
    elems = st.lists(st.integers(0, ctx.order - 1), min_size=1, max_size=20)
    u = np.array(data.draw(elems), dtype=np.int64)
    a = np.array(data.draw(st.lists(st.integers(0, ctx.order - 1),
                                    min_size=len(u), max_size=len(u))))
    assert ctx.vadd_scalar(u, a).tolist() == ctx.vadd(u, a).tolist()
    one = int(a[0])
    assert (ctx.vadd_scalar(u, one).tolist()
            == ctx.vadd(u, np.full_like(u, one)).tolist())


SMALL_FIELDS = [(p, k) for p, k in FIELDS if p ** k <= 256]


@st.composite
def product_case(draw):
    """A random m x r times r x n product over a field of order at most
    2^8, formed with the scalar operations: rank at most r."""
    ctx = field(*draw(st.sampled_from(SMALL_FIELDS)))
    m, r, n = (draw(st.integers(1, 8)), draw(st.integers(1, 4)),
               draw(st.integers(1, 10)))
    elem = st.integers(0, ctx.order - 1)
    A = [[draw(elem) for _ in range(r)] for _ in range(m)]
    B = [[draw(elem) for _ in range(n)] for _ in range(r)]
    M = []
    for row in A:
        out = [0] * n
        for a, brow in zip(row, B):
            out = [ctx.add(o, ctx.mul(a, b)) for o, b in zip(out, brow)]
        M.append(out)
    return ctx, np.array(M, dtype=np.int64), r


@SETTINGS
@given(data=st.data())
def test_rank_matches_oracle(data):
    ctx, M, _ = data.draw(kernel_case(SMALL_FIELDS))
    # the forward-elimination oracle that checks the key proof, and the
    # pivot count of the library's RREF
    want = len(rref_by_entries(ctx, M)[1])
    assert rank(ctx, M) == len(linalg.rref(ctx, M)[1]) == want
    ctx, M, r = data.draw(product_case())
    want = len(rref_by_entries(ctx, M)[1])
    assert rank(ctx, M) == len(linalg.rref(ctx, M)[1]) == want
    assert want <= r


@pytest.mark.parametrize("pk", [(2, 8), (7, 3), (2, 9)],
                         ids=["GF256-uint8", "GF343-uint16", "GF512-uint16"])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_kernel_matches_oracles_at_the_dtype_boundary(pk, data):
    ctx, M, V = data.draw(kernel_case([pk]))
    assert ctx.dtype == (np.uint8 if ctx.order <= 256 else np.uint16)
    assert_kernel_matches_oracles(ctx, M, V)


@SETTINGS
@given(data=st.data())
def test_rref_is_canonical_under_random_row_operations(data):
    ctx, M, _ = data.draw(kernel_case())
    R, pivots = linalg.rref(ctx, M)
    S = [list(map(int, row)) for row in M]
    nonzero = st.integers(1, ctx.order - 1)
    for _ in range(data.draw(st.integers(1, 12))):
        i, j = data.draw(st.integers(0, len(S) - 1)), data.draw(
            st.integers(0, len(S) - 1))
        kind = data.draw(st.sampled_from(["swap", "scale", "add"]))
        if kind == "swap":
            S[i], S[j] = S[j], S[i]
        elif kind == "scale":
            s = data.draw(nonzero)
            S[i] = [ctx.mul(s, a) for a in S[i]]
        elif i != j:
            s = data.draw(nonzero)
            S[i] = [ctx.add(a, ctx.mul(s, b)) for a, b in zip(S[i], S[j])]
    R2, pivots2 = linalg.rref(ctx, np.array(S))
    assert pivots2 == pivots
    assert np.array_equal(R2, R)


@pytest.mark.parametrize("doctored", ["vmul_outer", "_add_np"])
def test_oracle_comparison_has_teeth(doctored, monkeypatch):
    """One log sum off by one in a product, or one wrong entry in the
    sum table, must show."""
    ctx = build_field(3, 3)  # a fresh context: it is patched
    x, c, y = 5, 7, 11
    M = np.array([[1, x, 3], [c, y, 2]])  # RREF entry (2 - 3c)/(y - cx)
    a, b = ctx.neg(c), x  # eliminating c uses (-c) * x ...
    assert_kernel_matches_oracles(ctx, M, M)  # the true kernel passes
    if doctored == "vmul_outer":
        def bad(col, row):
            logs = ctx.log_np[col][:, None] + ctx.log_np[row]
            logs[(col[:, None] == a) & (row == b)] += 1
            return ctx.exp_np[logs].astype(ctx.dtype)
    else:
        bad = ctx.add_np.copy()
        a, b = y, ctx.mul(a, b)  # ... and y + (-c) * x
        bad[a, b] = ctx.add(int(bad[a, b]), 1)
    monkeypatch.setattr(ctx, doctored, bad)
    with pytest.raises(AssertionError):
        assert_kernel_matches_oracles(ctx, M, M)


def test_tables_are_narrow_and_capped():
    for (p, k), dtype in [((2, 8), np.uint8), ((7, 3), np.uint16),
                          ((3, 7), np.uint16), ((2, 12), np.uint16)]:
        ctx = build_field(p, k)
        assert ctx.dtype == ctx.add_np.dtype == dtype
    # no Q x Q int64 temporary while building: it alone would take 8 Q^2
    ctx = build_field(3, 7)
    tracemalloc.start()
    ctx.add_np
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 5 * ctx.order ** 2
    big = build_field(3, 8)
    with pytest.raises(ValueError, match="table limit 4096"):
        big.add_np
    # above the cap elimination adds by the Zech sum and matches the
    # oracles, as over GF(2^13) below
    rng = np.random.default_rng(38)
    M = rng.integers(big.order, size=(5, 8))
    M[3] = big.vadd(big.vscale(int(M[4, 0]), M[0]), M[1])  # rank below 5
    V = np.vstack([M, rng.integers(big.order, size=(2, 8))])
    assert_kernel_matches_oracles(big, M, V)
    assert big._add_np is None


def test_characteristic_2_builds_no_square_table(monkeypatch, capsys):
    # products are exp/log gathers and sums XORs, so elimination over
    # GF(2^13), above the table cap, matches the oracles, and min-dist
    # and aut-verify build no Q x Q table on any field they make
    made = []
    init = FieldCtx.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(FieldCtx, "__init__", record)
    ctx = build_field(2, 13)
    rng = np.random.default_rng(13)
    M = rng.integers(ctx.order, size=(5, 8))
    M[3] = ctx.vadd(ctx.vscale(int(M[4, 0]), M[0]), M[1])  # rank below 5
    V = np.vstack([M, rng.integers(ctx.order, size=(2, 8))])
    assert_kernel_matches_oracles(ctx, M, V)
    for q in ("2", "4"):
        for argv in (["min-dist", "--q", q, "--r", "3", "--ell", "2",
                      "--budget", str(1 << 30)],
                     ["aut-verify", "--q", q, "--r", "3", "--ell", "2"]):
            assert main(argv) == 0
            assert "FAIL" not in capsys.readouterr().out
    assert {F.p for F in made} == {2} and len(made) >= 5
    assert all(F._add_np is None for F in made)
    assert not hasattr(FieldCtx, "mul_np")
