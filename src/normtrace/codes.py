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

import numpy as np

from . import linalg
from .curve import NormTraceCurve
from .gf import BudgetExceeded
from .rrspace import at_infinity, basis_multipoint, basis_one_point, evaluate

MULTIPOINT = "multipoint"
EXTENDED_ONE_POINT = "extended-one-point"


# Largest peak, in bytes, of the matrix gather or the word tables of a code.
TABLE_MAX_BYTES = 1 << 30
TABLE_MAX_WORDS = 1 << 16  # most words in min_distance_exhaustive's table
# Most entries in one block of an array formed or checked a block at a
# time (the log matrix, the code check): 2 MiB as int64.
BLOCK_ENTRIES = 1 << 18


def _check_ell(curve: NormTraceCurve, ell: int):
    top = curve.q ** curve.r - 1
    if not 1 <= ell <= top:
        raise ValueError(f"ell = {ell} out of range 1..{top}")


def _check_code(curve: NormTraceCurve, ell: int):
    """Refuse a code before any place is enumerated: ell out of range,
    or a field too large for the table arithmetic that builds the matrix
    and eliminates on it."""
    _check_ell(curve, ell)
    curve.ctx.check_table_order()


@dataclass(eq=False)
class AGCode:
    """An evaluation code; its generator matrix is kept as its logs,
    built on first read.

    basis is the (2, k) array [i; j] of the monomials x^i y^j, laid out
    as by rrspace.basis_one_point.  The matrix rows are their evaluation
    vectors over Theta, in the column layout of curve.theta_coords, with
    weight n_inf at P_inf (see _log_matrix).  kind, n, k and d_star are
    read from these fields, so none can go stale.  The report's d_exact
    is None: min_distance_exhaustive returns it."""

    curve: NormTraceCurve
    ell: int
    basis: np.ndarray
    n_inf: int
    _log_matrix: np.ndarray | None = field(default=None, repr=False)
    _rref: tuple | None = field(default=None, repr=False)
    _lowering: tuple | None = field(default=None, repr=False)

    @property
    def kind(self) -> str:
        return EXTENDED_ONE_POINT if self.n_inf else MULTIPOINT

    @property
    def n(self) -> int:  # the places of Theta
        return self.curve.q ** (2 * self.curve.r - 1) + 1 - self.curve.h

    @property
    def k(self) -> int:  # the rank, by _evaluation_code
        return self.basis.shape[1]

    @property
    def d_star(self) -> int:
        return designed_distance(self.curve, self.ell)

    @property
    def log_matrix(self) -> np.ndarray:
        """The k x n uint16 logs of the generator matrix, built on first
        read and kept: each entry's exponent in ctx.exp_np, below Q - 1,
        or the zero slot of ctx.log_np for a zero entry."""
        if self._log_matrix is None:
            self._log_matrix = _log_matrix(self.curve, self.basis,
                                           self.n_inf)
        return self._log_matrix

    @property
    def matrix(self) -> np.ndarray:
        """The k x n generator matrix, gathered from log_matrix at each
        read (by indexing, which casts the uint16 logs in numpy's
        buffers, where take would hold an intp copy of them).  Only the
        RREF path reads it: row_space, and the fallback of
        monomial_equivalence_check."""
        return self.curve.ctx.exp_np[self.log_matrix]

    def row_space(self):
        """The canonical RREF of the matrix, computed on first use."""
        if self._rref is None:
            self._rref = linalg.rref(self.curve.ctx, self.matrix)
        return self._rref

    def lowering(self):
        """The basis lowered in y by base-p digits, computed on first
        use: for each digit weight w = p^t <= max j and each
        s = 1, ..., p - 1 in turn, a step (w, rows, src) naming the rows
        x^i y^j whose digit t of j is at least s and the rows src of
        x^i y^{j-w}.  None if some such x^i y^{j-w} is not in the basis
        (see autgroup._transfer_blocks)."""
        if self._lowering is None:  # a 1-tuple, so that None is kept too
            self._lowering = (_lowering(self.curve.p, self.basis),)
        return self._lowering[0]

    def contains(self, word: np.ndarray) -> bool:
        """True iff word, one vector or a stack of rows, is in the code."""
        R, pivots = self.row_space()
        return not linalg.reduce_vector(self.curve.ctx, R, pivots, word).any()

    def parameters(self) -> dict:
        """The report's leading fields, every one a scalar."""
        return {
            "q": self.curve.q,
            "r": self.curve.r,
            "ell": self.ell,
            "kind": self.kind,
            "n": self.n,
            "k": self.k,
            "d_star": self.d_star,
            "d_exact": None,
        }


def _lowering(p: int, basis) -> tuple | None:
    """AGCode.lowering's steps; each source row is found by its key
    i * top + j (top = max j + 1) among the sorted keys of the basis."""
    i, j = basis
    top = int(j.max(initial=0)) + 1
    keys = i * top + j
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    steps, w = [], 1
    while w < top:
        digit = j // w % p
        for s in range(1, p):
            rows = np.flatnonzero(digit >= s)
            if not len(rows):
                break
            want = keys[rows] - w
            at = np.searchsorted(ranked, want).clip(max=len(ranked) - 1)
            if (ranked[at] != want).any():
                return None
            steps.append((w, rows, order[at]))
        w *= p
    return tuple(steps)


def build_code(curve: NormTraceCurve, ell: int) -> AGCode:
    """The multi-point code: evaluate the L(ell * Omega) monomial basis
    over Theta.  The evaluation map is injective (n > deg G), so the
    matrix rank equals the basis size; this is proved from the basis."""
    _check_code(curve, ell)
    return _evaluation_code(curve, ell, basis_multipoint(curve, ell), 0)


def extended_one_point_code(curve: NormTraceCurve, ell: int) -> AGCode:
    """The extended one-point code: evaluate the L(ell*h * P_inf) basis
    over Theta, with the P_inf entry taken through t^{ell*h} for the
    canonical local parameter t."""
    _check_code(curve, ell)
    return _evaluation_code(curve, ell, basis_one_point(curve, ell * curve.h),
                            ell * curve.h)


def _evaluation_code(curve: NormTraceCurve, ell: int, basis: np.ndarray,
                     n_inf: int) -> AGCode:
    """The code of the monomials x^i y^j of basis over Theta, with
    weight n_inf at P_inf (see _log_matrix and AGCode).

    The evaluation map is injective, so the matrix M has rank k, the
    basis size; this is proved from the basis alone, by its keys.
    The scalings (x, y) -> (bx, b^c y) act freely on the affine places
    of Theta (x != 0); the orbit of (x, y) meets the fibre x = 1 once,
    at (1, y_u) with y_u = y x^{-c}, and the row of x^i y^j reads
    M[r, (x, y)] = y_u^j x^{e_r}, e_r = (i + c j) mod (Q - 1).  The DFT
    of an orbit, sum over nonzero x of x^{-e} M[:, (x, y)], is an
    invertible column operation: the sum of x^{e_r - e} is Q - 1 = -1
    if e_r = e, else 0.  It leaves column (u, e) equal to -y_u^j on the
    rows of class e and zero elsewhere, so the affine columns split
    into one block per class, on the h distinct y_u of the fibre x = 1
    (curve.affine_xy asserts that every fibre holds h points).  In one
    class, rows with distinct j < h are rows of an h x h Vandermonde
    matrix, hence independent; two rows of one class share j iff they
    share the key (i mod (Q - 1), j), and then they agree at every
    affine place.  So rank M = k if
    - every j lies in 0..h-1;
    - the P_inf column is nonzero in the rows of one class at most, so
      that it joins one block of the split;
    - the keys are distinct, but for at most one shared pair whose
      P_inf entries differ: their difference is then nonzero at P_inf
      alone.  At ell = Q - 1 the multipoint basis holds such a pair,
      x^0 and x^{-(Q-1)}.
    _rank_by_keys checks this in O(k).  The class blocks and the rank
    of the whole matrix are its oracles in the tests."""
    if not _rank_by_keys(curve, basis, n_inf):
        raise AssertionError("the basis keys do not prove rank k")
    return AGCode(curve, ell, basis, n_inf)


def _rank_by_keys(curve: NormTraceCurve, basis, n_inf: int) -> bool:
    """True if the code of basis over Theta, with weight n_inf at
    P_inf, has full row rank by the key proof of _evaluation_code."""
    q1, h = curve.ctx.order - 1, curve.h
    i, j = basis
    at_inf = at_infinity(curve, i, j, n_inf)
    classes = (i + curve.c * j)[at_inf] % q1
    if not ((0 <= j) & (j < h)).all() or (classes != classes[:1]).any():
        return False
    keys = i % q1 * h + j
    order = np.argsort(keys, kind="stable")
    shared = np.flatnonzero(np.diff(keys[order]) == 0)  # pairs in order
    return len(shared) <= 1 and bool(
        (at_inf[order[shared]] != at_inf[order[shared + 1]]).all())


def _log_matrix(curve: NormTraceCurve, basis, n_inf: int) -> np.ndarray:
    """The logs of the monomials x^i y^j of basis in the column layout
    of curve.theta_coords, with weight n_inf at P_inf: the exponents of
    _exponent_tables in one (k, n) uint16 array, each affine sum
    reduced below Q - 1, formed a block of at most BLOCK_ENTRIES
    entries (at least one row) at a time, so that no temporary is the
    size of the matrix.  exp_np gathers the matrix from it (numpy casts
    a uint16 index in buffers as it gathers)."""
    inf, i_table, i_rows, j_table, j_rows = _exponent_tables(curve, basis,
                                                             n_inf)
    q1 = curve.ctx.order - 1
    logs = np.empty((len(inf), i_table.shape[1] + 1), dtype=np.uint16)
    logs[:, 0] = inf
    step = max(1, BLOCK_ENTRIES // logs.shape[1])
    for lo in range(0, len(inf), step):
        block = logs[lo:lo + step, 1:]
        np.add(i_table.take(i_rows[lo:lo + step], axis=0),
               j_table.take(j_rows[lo:lo + step], axis=0), out=block)
        # a sum below q1 wraps past 2^16 - q1 when q1 is taken off
        np.minimum(block, block - q1, out=block)
    return logs


def _exponent_tables(curve: NormTraceCurve, basis, n_inf: int) -> tuple:
    """The exponents, indices into ctx.exp_np, of the matrix of the
    monomials x^i y^j of basis (see _log_matrix), as tables
    (inf, i_table, i_rows, j_table, j_rows): row r has exponent inf[r]
    at P_inf and i_table[i_rows[r]] + j_table[j_rows[r]] at the affine
    columns.

    An affine entry is exp at i log x + j log y: x is nonzero on Theta,
    and so is y, since y = 0 forces norm(x) = trace(y) = 0.  The terms
    come from two uint16 row tables, reduced mod Q - 1 once each: one
    row per i mod Q - 1 in the range of i (at most Q - 1 rows) and one
    per j in 0..max j.  A code's basis fills both ranges, so the tables
    hold no row it does not read.  Each term is below Q - 1, so their
    sum is below 2(Q - 1) <= 8190; P_inf takes exponent 0 (the entry 1)
    or log 0, the zero slot 2(Q - 1) of ctx.log_np (see
    rrspace.at_infinity).
    ValueError, before any table is formed, if the k x n exponents and
    int64 matrix of the whole gather, the tables (each formed in uint32,
    then narrowed) and numpy's buffers would pass TABLE_MAX_BYTES."""
    pos, xs, ys = curve.theta_coords
    ctx, k, n = curve.ctx, basis.shape[1], len(pos) + 1
    q1 = ctx.order - 1
    i, j = basis
    lo = int(i.min())
    i_rows, j_rows = min(int(i.max()) - lo + 1, q1), int(j.max()) + 1
    need = (k * n * (2 + 8) + (i_rows + j_rows) * (n - 1) * (4 + 2)
            + 2 * np.getbufsize() * np.dtype(np.intp).itemsize)
    if need > TABLE_MAX_BYTES:
        raise ValueError(f"the {k} x {n} generator matrix needs about {need} "
                         f"bytes, above the limit {TABLE_MAX_BYTES}")
    log = ctx.log_np
    return (np.where(at_infinity(curve, i, j, n_inf), 0, log[0]),
            _exponent_rows(np.arange(lo, lo + i_rows), log[xs], q1),
            (i - lo) % q1,
            _exponent_rows(np.arange(j_rows), log[ys], q1), j)


def _exponent_rows(exponents, logs, q1: int) -> np.ndarray:
    """The uint16 table of e * logs mod q1, one row per exponent e (of
    any sign), formed in uint32: e is reduced mod q1 first and each log
    is below q1, so every product is below q1^2 < 2^24."""
    rows = (exponents % q1).astype(np.uint32)[:, None] * logs.astype(np.uint32)
    rows %= q1
    return rows.astype(np.uint16)


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
    dimension is the semigroup count worked out into a floor-sum in
    ell = fl*q + rem.  Its terms are halves of integers, so twice the
    sum is formed exactly and halved.  The three-way case split on rem
    in which the sum was worked out is one expression: at rem = 0 and
    rem = q - 1 the general case takes the special cases' values.
    """
    c = (q ** r - 1) // (q - 1)
    h = q ** (r - 1)
    if not 1 <= ell <= q ** r - 1:
        raise ValueError(f"ell = {ell} out of range 1..{q ** r - 1}")
    if ell >= c - 2:
        g = (h - 1) * (c - 1) // 2
        return ell * h + 1 - g
    fl, rem = divmod(ell, q)
    twice = (2 * (ell + 1) + (q - 1) * fl * (fl + 1) + (q - 1) * (q - 2)
             + (q - 1) * (rem * fl * fl + (q - 1 - rem) * (fl - 1) ** 2)
             + (q - 3) * (rem * fl + (q - 1 - rem) * (fl - 1))
             + fl * rem * (rem + 1) + (fl - 1) * (q - 1 - rem) * (q + rem))
    assert twice % 2 == 0
    return twice // 2


# ----------------------------------------------------------------------
# Minimum distance
# ----------------------------------------------------------------------

def witness_function(curve: NormTraceCurve, ell: int,
                     c_list=None) -> np.ndarray:
    """The function prod_i (x - c_i)/x = prod_i (1 - c_i t), t = x^{-1},
    whose evaluation vector has weight exactly d*: the int64 array of
    its coefficients in t, from t^0 to t^ell.  Defaults to the first
    ell nonzero elements."""
    _check_ell(curve, ell)
    if c_list is None:
        c_list = list(range(1, ell + 1))
    if len(c_list) != ell:
        raise ValueError(f"need exactly {ell} elements, got {len(c_list)}")
    ctx = curve.ctx
    if not all(0 < ci < ctx.order for ci in c_list) or len(set(c_list)) != ell:
        raise ValueError(f"witness elements must be distinct nonzero "
                         f"elements of GF({ctx.order})")
    # times (1 - c t): coefficient m gains -c times coefficient m - 1,
    # one array step per factor, by digit addition (no table is built)
    f = np.zeros(ell + 1, dtype=np.int64)
    f[0] = 1
    for n, ci in enumerate(c_list, 1):
        f[1:n + 1] = ctx.vadd_scalar(f[1:n + 1],
                                     ctx.vscale(ctx.neg(ci), f[:n]))
    return f


def witness_codeword(code: AGCode, c_list=None) -> np.ndarray:
    """Evaluation vector of the witness function in the column layout
    of curve.theta_coords, by evaluate on its terms x^{-e}; its Hamming
    weight equals d* exactly."""
    coeffs = witness_function(code.curve, code.ell, c_list)
    e = np.arange(len(coeffs))
    return evaluate(code.curve, coeffs, np.stack([-e, np.zeros_like(e)]))


def min_distance_exhaustive(code: AGCode, budget: int,
                            stop_at: int | None = None) -> int:
    """Minimum weight over all nonzero messages, by exhaustive
    enumeration of the projective message space.

    Raises BudgetExceeded when the field-order^k message count exceeds
    the budget, or when the word tables would need more than
    TABLE_MAX_BYTES at their peak, estimated before any is built.  If
    stop_at is given (a proven lower bound such as d*), the search
    stops as soon as a word of that weight has been found.

    Every nonzero message is a scalar multiple of exactly one message
    whose highest nonzero digit is 1, and scaling keeps the weight, so
    only those (Q^k - 1)/(Q - 1) messages are enumerated.  All
    combinations of the trailing k2 rows are tabulated, leaving the
    first row out when k > 1; _table_depth chooses k2 (at most
    TABLE_MAX_WORDS words).  The zero prefix takes the table's leading-one
    words; every leading-one prefix, in increasing order, sweeps the
    whole table.  Both are read off ranges, one digit length at a
    time.  The table is closed under negation, so the least weight of
    prefix + table equals the least Hamming distance from the prefix
    word to the table.  Every row's Q multiples are formed from
    code.log_matrix by _word_kernel's multiples, so the search builds
    no Q x Q product table and never gathers the int64 matrix.
    """
    ctx = code.curve.ctx
    Q = ctx.order
    k, n = code.k, code.n
    if Q ** k > budget:
        raise BudgetExceeded(
            f"message space {Q}^{k} exceeds budget {budget}")
    k2 = _table_depth(Q, k, n, stop_at is not None, TABLE_MAX_WORDS)
    need = _table_bytes(ctx, k, k2, n)
    if need > TABLE_MAX_BYTES:
        raise BudgetExceeded(f"word tables need about {need} bytes, above "
                             f"the limit {TABLE_MAX_BYTES}")
    k1 = k - k2
    row_multiples, add, distance = _word_kernel(ctx, n)
    # multiples[i][:, s] is the word s * (row i), encoded
    multiples = list(row_multiples(code.log_matrix))
    zero = multiples[0][:, :1]
    table = zero
    for mult in multiples[k1:]:
        table = add(table[:, None], mult[:, :, None]).reshape(
            len(zero), -1, zero.shape[-1])

    def sweeps():
        for i in range(k2):  # the zero prefix
            yield table[:, Q ** i:2 * Q ** i], zero
        for i in range(k1):
            for m in range(Q ** i, 2 * Q ** i):
                word = zero
                for mult in multiples[:i + 1]:
                    m, digit = divmod(m, Q)
                    if digit:
                        word = add(word, mult[:, digit:digit + 1])
                yield table, word

    best = n + 1
    for words, word in sweeps():
        w = int(distance(words, word).min())
        if w < best:
            best = w
            if stop_at is not None and best <= stop_at:
                break
    return best


# One sweep's fixed cost, in table entries built: about 25 us of Python
# and numpy call overhead (2-core x86-64, Python 3.11, numpy 2.4).
SWEEP_ENTRIES = 1 << 13


def _table_depth(Q: int, k: int, n: int, early_stop: bool,
                 table_limit: int) -> int:
    """The number k2 of trailing rows min_distance_exhaustive tabulates.

    A full sweep reads about Q^k * n / (Q - 1) entries at any depth, so
    k2 minimises the table, Q^k2 * n entries, plus the fixed cost of
    its (Q^(k-k2) - 1)/(Q - 1) + 1 sweeps.  A search that may stop early
    takes the least k2 whose sweep reads at least SWEEP_ENTRIES: when it
    stops in its first sweeps it has built the smallest table that is
    not all overhead, and when it never stops it does at most about
    twice a full sweep's work.  Either is capped at table_limit words
    and at k - 1 rows; k2 is at least 1."""
    depths = range(1, k)
    if early_stop:
        k2 = next((d for d in depths if Q ** d * n >= SWEEP_ENTRIES), k - 1)
    else:
        k2 = min(depths, default=1, key=lambda d: Q ** d * n + (
            (Q ** (k - d) - 1) // (Q - 1) + 1) * SWEEP_ENTRIES)
    cap = 1
    while Q ** (cap + 1) <= table_limit:
        cap += 1
    return max(1, min(k2, cap, k - 1))


def _table_bytes(ctx, k: int, k2: int, n: int) -> int:
    """Upper estimate of min_distance_exhaustive's peak bytes at table
    depth k2: k * Q row multiples, plus the larger of what is held
    while they are built and while the tables are, plus numpy's casting
    buffers.  _word_kernel's multiples gathers by take, which holds the
    log sums and an intp copy of them beside the words it gathers, and
    then lays the multiples out a second time: for p = 2 it gathers the
    k words X^j * row of each row and holds one bit plane of them and
    their encoded words; for p odd it gathers the multiples themselves,
    a block of rows at a time.  The tables are the Q^k2 table and two
    more of its size (the level before it and the sweep temporaries),
    plus FieldCtx.vadd's intp flat index of the last two levels (p odd)."""
    Q, size, intp = ctx.order, ctx.dtype.itemsize, np.dtype(np.intp).itemsize
    index = np.min_scalar_type(4 * (Q - 1)).itemsize + intp
    if ctx.p == 2:  # k bit planes of packed uint64 words
        word, gathered = ctx.k * -(-n // 64) * 8, k * ctx.k
        build = (word * (k * Q + gathered)
                 + gathered * (n * (index + 2 * size) + -(-n // 8)))
        adds = 0
    else:  # one plane of element indices
        word = n * size
        block = min(k, max(1, BLOCK_ENTRIES // (Q * n))) * Q * n
        build = word * k * Q + block * index
        adds = (Q ** k2 + Q ** (k2 - 1) + Q) * n * intp
    return (word * k * Q + max(build, word * 3 * Q ** k2 + adds)
            + 2 * np.getbufsize() * intp)


def _word_kernel(ctx, n: int):
    """(multiples, add, distance) for words of length n over ctx.

    A stack of words is a (planes, words, length) array.  In
    characteristic 2 a word is its k bit planes, each packed into
    uint64, and words add by XOR; in odd characteristic it is one plane
    of element indices in the field's narrow dtype, added by
    FieldCtx.vadd.  multiples maps a (rows, n) log matrix
    (AGCode.log_matrix) to the (rows, planes, Q, length) stack whose
    [i, :, s] is the word s * (row i) = exp[log s + log row], with no
    Q x Q table; the zero slot 2(Q - 1) reads zero for s = 0 and for
    zero entries, and a sum of two logs is at most 4(Q - 1), the last
    index of exp_np.  distance gives the Hamming distance of each word
    of a stack to one word.
    """
    exp = ctx.exp_np.astype(ctx.dtype)
    log = ctx.log_np.astype(np.min_scalar_type(len(exp) - 1))
    if ctx.p != 2:
        count = np.min_scalar_type(n)  # holds every distance exactly

        def multiples(logs):
            # a block of rows at a time, so that take's intp copy of the
            # log sums holds at most BLOCK_ENTRIES entries (one row or more)
            step = max(1, BLOCK_ENTRIES // (ctx.order * n))
            return np.concatenate([
                exp.take(log[:, None] + logs[lo:lo + step, None])
                for lo in range(0, len(logs), step)])[:, None]

        def distance(words, word):
            # summing the bool array's bytes in the narrowest dtype:
            # count_nonzero with an axis casts it to intp first
            return (words[0] != word[0]).view(np.uint8).sum(axis=-1,
                                                             dtype=count)
        return multiples, ctx.vadd, distance

    def encode(idx):
        """The (k, words, length) packed planes of a (words, n) array
        of element indices in the element dtype."""
        out = np.zeros((ctx.k, len(idx), -(-n // 64) * 8), np.uint8)
        for j, plane in enumerate(out):  # one (words, n) bit plane at a time
            plane[:, :-(-n // 8)] = np.packbits(idx & (1 << j), axis=-1,
                                                bitorder="little")
        return out.view(np.uint64)

    def multiples(logs):
        # The index of s holds the bits of its coefficients, so s * row
        # is the XOR of the words X^j * row (log X^j = log[1 << j]) over
        # the bits j of s: the multiples of s < 2^(j+1) are those of
        # s < 2^j XORed with X^j * row.  s leads the stack the doublings
        # fill, so that each writes a block apart from the one it reads
        # (numpy copies an operand it cannot prove apart); the sweeps
        # run several times slower on a strided view, so it is copied
        # to (rows, planes, Q, words).
        rows = len(logs)
        shifts = log[1 << np.arange(ctx.k)]
        basis = encode(exp.take(shifts[:, None, None] + logs).reshape(-1, n))
        # (planes, j, rows, words) -> (j, rows, planes, words)
        basis = basis.reshape(ctx.k, ctx.k, rows, -1).transpose(1, 2, 0, 3)
        out = np.zeros((ctx.order,) + basis.shape[1:], np.uint64)
        for j, word in enumerate(basis):
            np.bitwise_xor(out[:1 << j], word, out=out[1 << j:2 << j])
        return np.ascontiguousarray(out.transpose(1, 2, 0, 3))

    def distance(words, word):
        return np.bitwise_count(
            np.bitwise_or.reduce(words ^ word, axis=0)).sum(axis=-1)

    return multiples, np.bitwise_xor, distance


# ----------------------------------------------------------------------
# Monomial equivalence
# ----------------------------------------------------------------------

def equivalence_diagonal(curve: NormTraceCurve, ell: int) -> np.ndarray:
    """The explicit diagonal tying the multi-point code to the extended
    one-point code, in the column layout of curve.theta_coords: x(P)^ell
    at affine places, and 1 at P_inf, where t^{ell*h} x^ell has
    valuation 0."""
    pos, xs, _ = curve.theta_coords
    diag = np.ones(len(pos) + 1, dtype=np.int64)
    diag[pos] = curve.ctx.vpow(xs, ell)
    return diag


def monomial_equivalence_check(code_a: AGCode, code_b: AGCode):
    """Search for a diagonal scaling (identity permutation) carrying
    code_a onto code_b; returns the diagonal or None: scaling column p
    of code_a by diagonal[p] yields code_b's row space.

    The diagonal D comes from entrywise column ratios of the generator
    matrices, read off their log matrices alone, which recover the
    explicit x(P)^ell diagonal of the canonical multi-point / extended
    one-point pair; else from column ratios of the reduced echelon
    forms, with equal pivot lists.  D must have no zero entry.  The
    entrywise D is then proved by A D = B entry by entry, as
    exp[L_A + log D] == exp[L_B] on the logs L_A and L_B in the element
    dtype (a zero's slot plus log D reads exp_np's zero tail), so no
    RREF is computed and no matrix is gathered; the fallback's A D,
    gathered from code_a.matrix, must lie in B's cached row space: a
    nonzero column scaling keeps the rank, so that is equality.
    """
    if code_a.n != code_b.n:
        raise ValueError("codes have different lengths")
    if code_a.k != code_b.k:
        return None
    ctx = code_a.curve.ctx
    logs_a, logs_b = code_a.log_matrix, code_b.log_matrix
    diag = _entrywise_diagonal(ctx, logs_a, logs_b)
    entrywise = diag is not None
    if not entrywise:
        diag = _rref_diagonal(ctx, code_a, code_b)
    if diag is None or not diag.all():
        return None
    if entrywise:  # indexing casts the uint16 logs in numpy's buffers
        exp = ctx.exp_np.astype(ctx.dtype)
        proved = np.array_equal(
            exp[logs_a + ctx.log_np[diag].astype(np.uint16)], exp[logs_b])
    else:
        proved = code_b.contains(ctx.vmul(code_a.matrix, diag[None, :]))
    return diag if proved else None


def _entrywise_diagonal(ctx, logs_a: np.ndarray, logs_b: np.ndarray):
    """The int64 column scaling that carries A onto B entry by entry, or
    None, from their uint16 log matrices (AGCode.log_matrix).  A and B
    must share their zero slots, and every nonzero log ratio
    L_B - L_A mod Q - 1 in a column must equal the column's first one.
    The ratios are formed at every entry with no mask, in uint16 (a sum
    below 3(Q - 1)): where A and B are both zero the ratio is 0, so a
    column of zeros takes exp 0 = 1."""
    zero, n1 = ctx.log_np.item(0), ctx.order - 1
    nz = logs_a != zero
    if not np.array_equal(nz, logs_b != zero):
        return None
    ratios = (logs_b + n1 - logs_a) % n1
    first = ratios[nz.argmax(axis=0), np.arange(ratios.shape[1])]
    if not ((ratios == first) | ~nz).all():
        return None
    return ctx.exp_np[first]


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
