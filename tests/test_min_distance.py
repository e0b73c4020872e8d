"""The projective minimum-distance kernel (codes.min_distance_exhaustive)
against the full-enumeration oracle, over random generator matrices in
both characteristics, plus codes built so that one missing part of the
enumeration changes the answer."""

import re
import tracemalloc
from functools import lru_cache
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from normtrace import codes  # noqa: E402
from normtrace.cli import main  # noqa: E402
from normtrace.codes import (AGCode, BudgetExceeded, build_code,  # noqa: E402
                             min_distance_exhaustive)
from normtrace.curve import build_curve  # noqa: E402
from normtrace.gf import FieldCtx, build_field, is_prime  # noqa: E402
from oracles import (min_distance_full_enumeration,  # noqa: E402
                     multiples_by_entries)

FIELDS = [(p, k) for p in range(2, 64) if is_prime(p)
          for k in range(1, 7) if p ** k <= 64]
MAX_MESSAGES = 1 << 12
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


@lru_cache(maxsize=None)
def field(p, k):
    return build_field(p, k)


def as_code(ctx, rows):
    """The attributes min_distance_exhaustive reads from an AGCode, and
    the matrix the oracles read: the uint16 log matrix is read off the
    matrix by log_np, zero entries at the zero slot."""
    matrix = np.array(rows, dtype=np.int64)
    k, n = matrix.shape
    return SimpleNamespace(curve=SimpleNamespace(ctx=ctx), matrix=matrix,
                           log_matrix=ctx.log_np[matrix].astype(np.uint16),
                           k=k, n=n)


@st.composite
def random_codes(draw):
    """A k x n generator matrix with Q^k <= MAX_MESSAGES; n crosses the
    64-bit word boundaries of the packed planes.  Some rows are zero or
    a scalar multiple of an earlier row, and some are sparse, so low
    and zero weights occur."""
    ctx = field(*draw(st.sampled_from(FIELDS)))
    Q = ctx.order
    k_max = max(1, max(k for k in range(1, 13) if Q ** k <= MAX_MESSAGES))
    k = draw(st.integers(1, k_max))
    n = draw(st.integers(1, 140))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = []
    for _ in range(k):
        kind = draw(st.sampled_from(["dense", "sparse", "zero", "repeat"]))
        if kind == "repeat" and rows:
            src = rows[draw(st.integers(0, len(rows) - 1))]
            rows.append(ctx.vscale(draw(st.integers(1, Q - 1)), src))
            continue
        row = rng.integers(0, Q, size=n)
        if kind == "sparse":
            row[rng.random(n) > 0.1] = 0
        elif kind == "zero":
            row[:] = 0
        rows.append(row)
    return as_code(ctx, rows)


@SETTINGS
@given(code=random_codes(), data=st.data())
def test_kernel_matches_full_enumeration(code, data):
    Q = code.curve.ctx.order
    budget = Q ** code.k
    # Q and Q^2 force a prefix split; 1 << 16 is the default table
    table_limit = data.draw(st.sampled_from([Q, Q ** 2, Q ** 3, 1 << 16]))
    stop_at = data.draw(st.none() | st.integers(0, code.n))
    d = min_distance_full_enumeration(code, budget,
                                      table_limit=table_limit)
    with patch.object(codes, "TABLE_MAX_WORDS", table_limit):
        got = min_distance_exhaustive(code, budget, stop_at=stop_at)
        with pytest.raises(BudgetExceeded):
            min_distance_exhaustive(code, budget - 1, stop_at=stop_at)
    if stop_at is None or d > stop_at:
        assert got == d
    else:
        # stopped at the first word of weight <= stop_at, in either order
        assert d <= got <= stop_at


@SETTINGS
@given(Q=st.sampled_from([2, 3, 4, 8, 9, 25, 27, 64, 81, 256]),
       k=st.integers(1, 12), n=st.integers(1, 1 << 15),
       table_limit=st.sampled_from([1, 8, 81, 4096, 1 << 16]))
def test_table_depth_stays_within_its_caps(Q, k, n, table_limit):
    full = codes._table_depth(Q, k, n, False, table_limit)
    early = codes._table_depth(Q, k, n, True, table_limit)
    for k2 in (full, early):
        assert 1 <= k2 <= max(1, k - 1)
        assert k2 == 1 or Q ** k2 <= table_limit
    # below the early depth a sweep is mostly overhead, so a full sweep
    # never takes a shallower table than a search that may stop early
    assert early <= full


@pytest.mark.parametrize("p,k", [(p, k) for p in range(2, 257) if is_prime(p)
                                 for k in range(1, 9) if p ** k <= 256])
def test_row_multiples_match_scalar_products(p, k):
    # every field of order <= 256; n = 1 and the uint64 word edges 63,
    # 64, 65 and 129; rows with zero entries, a zero row, and two
    # distinct nonzero rows, so that rows or planes swapped in the layout
    # show.  The rows are drawn from a generator seeded by the field.
    ctx = field(p, k)
    rng = np.random.default_rng([p, k])
    rows = rng.integers(0, ctx.order, size=(3, 129))
    rows[0, rng.random(129) < 0.25] = 0
    rows[1] = 0
    for n in (1, 63, 64, 65, 129):
        code = as_code(ctx, rows[:, :n])
        multiples, _, _ = codes._word_kernel(ctx, n)
        got = multiples(code.log_matrix)
        assert got.shape[0] == 3
        for row, words in zip(code.matrix, got):
            want = multiples_by_entries(ctx, row)
            assert words.dtype == want.dtype
            assert np.array_equal(words, want)


def heavy(n, lo, hi):
    """A row of ones on positions lo..hi-1 of n."""
    row = [0] * n
    row[lo:hi] = [1] * (hi - lo)
    return row


def unit(n, i):
    return heavy(n, i, i + 1)


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2)])
def test_minimum_only_under_the_zero_prefix(p, k, monkeypatch):
    # Every word with a nonzero digit on row 0 (the prefix) has weight
    # >= 8; the only weight-1 words are the multiples of row 2, the top
    # row of the tail table.
    ctx = field(p, k)
    Q = ctx.order
    code = as_code(ctx, [heavy(20, 0, 8), heavy(20, 8, 16), unit(20, 16)])
    monkeypatch.setattr(codes, "TABLE_MAX_WORDS", Q ** 2)
    assert min_distance_exhaustive(code, Q ** 3) == 1
    assert min_distance_full_enumeration(code, Q ** 3) == 1


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2)])
def test_minimum_needs_the_last_prefix_row(p, k, monkeypatch):
    # A table of one row (row 2) leaves rows 0 and 1 to the prefixes; the
    # only weight-1 words are the multiples of row 1, the highest digit.
    ctx = field(p, k)
    Q = ctx.order
    code = as_code(ctx, [heavy(20, 0, 8), unit(20, 16), heavy(20, 8, 16)])
    monkeypatch.setattr(codes, "TABLE_MAX_WORDS", Q)
    assert min_distance_exhaustive(code, Q ** 3) == 1
    assert min_distance_exhaustive(code, Q ** 3, stop_at=1) == 1


@pytest.mark.parametrize("p,k,top", [(2, 3, 4), (2, 6, 32)])
def test_top_bit_plane_counts(p, k, top):
    # Entries that set only the top bit plane, in the first and the last
    # packed word: the word has weight 2 only if that plane is in the OR.
    ctx = field(p, k)
    row = [0] * 70
    row[0] = row[69] = top
    code = as_code(ctx, [row, heavy(70, 1, 60)])
    assert min_distance_exhaustive(code, ctx.order ** 2) == 2
    assert min_distance_exhaustive(as_code(ctx, [row]), ctx.order) == 2


def test_table_leaves_the_first_row_out():
    # k = 2 over GF(256): Q^2 words fit TABLE_MAX_WORDS, but the Q + 1
    # projective messages need a table of Q words, not one of Q^2
    # (42 MB of packed planes at n = 600)
    ctx = field(2, 8)
    rng = np.random.default_rng(1)
    code = as_code(ctx, rng.integers(1, 256, size=(2, 600)))
    tracemalloc.start()
    try:
        d = min_distance_exhaustive(code, 256 ** 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d == min_distance_full_enumeration(code, 256 ** 2, table_limit=256)
    assert peak < 4 << 20


def test_char2_words_are_encoded_one_bit_plane_at_a_time():
    # (2,8) ell=1: k = 2, n = 32641 over GF(256); the 25 MB of packed
    # row multiples stay, but encoding all 8 planes at once peaked at
    # 150.6 MB under tracemalloc
    code = build_code(build_curve(2, 8), 1)
    tracemalloc.start()
    try:
        d = min_distance_exhaustive(code, 256 ** 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d == code.d_star
    assert peak <= 75 * 10 ** 6


def table_estimate(code, monkeypatch, stop_at=None):
    """The peak bytes min_distance_exhaustive estimates for code, read
    from its refusal under a table limit of zero."""
    monkeypatch.setattr(codes, "TABLE_MAX_BYTES", 0)
    with pytest.raises(BudgetExceeded, match="word tables need") as info:
        min_distance_exhaustive(code, code.curve.ctx.order ** code.k,
                                stop_at=stop_at)
    monkeypatch.undo()
    return int(re.search(r"about (\d+) bytes", str(info.value))[1])


def traced_search(code, stop_at=None):
    """(d, tracemalloc peak bytes) of one search, after a first search
    has built the matrix and the field tables it reads."""
    budget = code.curve.ctx.order ** code.k
    min_distance_exhaustive(code, budget, stop_at=code.d_star)
    tracemalloc.start()
    try:
        d = min_distance_exhaustive(code, budget, stop_at=stop_at)
        return d, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("q,r,ell", [(3, 3, 2), (4, 3, 2), (2, 7, 1),
                                     (16, 2, 1), (5, 2, 2), (4, 3, 3),
                                     (2, 3, 4)])
def test_table_estimate_bounds_the_measured_peak(q, r, ell, monkeypatch):
    # a full sweep and a stop_at = d* search build tables of different
    # depths; the estimate must follow the depth each search uses.
    # (4,3) ell=3 (64^7 messages) is searched only up to d*; (2,3)
    # ell=4 is the benchmark's largest early-stop code in characteristic 2.
    code = build_code(build_curve(q, r), ell)
    full = code.curve.ctx.order ** code.k <= 1 << 24
    for stop_at in [None] * full + [code.d_star]:
        estimate = table_estimate(code, monkeypatch, stop_at)
        d, peak = traced_search(code, stop_at)
        assert d == code.d_star
        assert peak <= estimate < codes.TABLE_MAX_BYTES


@pytest.mark.parametrize("q,r", [(4, 3), (3, 3)])
def test_min_dist_builds_no_product_table(q, r, monkeypatch, capsys):
    # the row multiples come from the log matrix: min-dist reads neither
    # FieldCtx.vmul_outer nor AGCode.matrix
    calls, searched = [], []
    vmul_outer, matrix = FieldCtx.vmul_outer, AGCode.matrix
    search = codes.min_distance_exhaustive

    def spy_vmul_outer(self, col, row):
        calls.append("vmul_outer")
        return vmul_outer(self, col, row)

    def spy_matrix(self):
        calls.append("matrix")
        return matrix.fget(self)

    def spy_search(code, *args, **kwargs):
        searched.append(code)
        return search(code, *args, **kwargs)

    monkeypatch.setattr(FieldCtx, "vmul_outer", spy_vmul_outer)
    monkeypatch.setattr(AGCode, "matrix", property(spy_matrix))
    monkeypatch.setattr(codes, "min_distance_exhaustive", spy_search)
    assert main(["min-dist", "--q", str(q), "--r", str(r), "--ell", "2",
                 "--budget", str(1 << 30)]) == 0
    assert "exhaustive d = " in capsys.readouterr().out
    assert calls == []
    assert len(searched) == 1


def test_early_stop_iterates_prefixes_lazily():
    # (4,3) ell=3: k = 7 over GF(64).  The search stops in its first
    # sweeps; an array of all 64^6 / 63 leading-one prefix numbers
    # peaked at 276 MB
    code = build_code(build_curve(4, 3), 3)
    d, peak = traced_search(code, stop_at=code.d_star)
    assert d == code.d_star == 961
    assert peak < 32 << 20


@pytest.mark.parametrize("q,r,ell", [(2, 3, 4), (3, 3, 2), (2, 4, 3),
                                     (4, 3, 2)])
def test_benchmark_codes_fit_the_table_limit(q, r, ell, monkeypatch):
    # the largest codes that perfbench's min-dist, code-table and sweep
    # jobs enumerate
    code = build_code(build_curve(q, r), ell)
    assert table_estimate(code, monkeypatch) < codes.TABLE_MAX_BYTES


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(pk=st.sampled_from([(3, 1), (3, 2), (5, 1), (7, 2), (3, 5)]),
       n=st.one_of(st.integers(1, 300),
                   st.sampled_from([255, 256, 257, 65535, 65536, 65537])),
       rows=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_odd_distance_equals_count_nonzero(pk, n, rows, seed):
    # the sweep sums the bytes of the bool comparison in the narrowest
    # dtype that holds n: at n = 255 and 65535 a word that differs
    # everywhere fills it, one past those needs the next dtype
    ctx = field(*pk)
    _, _, distance = codes._word_kernel(ctx, n)
    rng = np.random.default_rng(seed)
    word = rng.integers(0, ctx.order, size=n)
    words = rng.integers(0, ctx.order, size=(rows, n))
    words[0] = (word + 1) % ctx.order  # distance n
    words[1] = word  # distance 0
    # a stack of words in odd characteristic: one plane of indices
    got = distance(words[None].astype(ctx.dtype),
                   word[None, None].astype(ctx.dtype))
    assert got.tolist() == np.count_nonzero(words != word, axis=-1).tolist()
    assert got[0] == n
