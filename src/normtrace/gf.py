"""Exact arithmetic in finite fields GF(p^k).

An element of GF(p^k) is encoded as an integer index in [0, p^k): the
base-p digits of the index, little-endian, are the coefficients of the
residue polynomial modulo a fixed monic irreducible polynomial.  A
:class:`FieldCtx` holds the modulus together with precomputed exp/log
tables, so multiplication, inversion, powering and negation are table
lookups; odd-characteristic scalar addition goes through Zech logarithms.

Building a field only sets its modulus and generator (see below).
The exp and log tables (``exp_np``, ``log_np``) are filled on first
read, by doubling whole blocks with integer array operations: per-byte XOR
tables in characteristic 2, base-p digit matrices otherwise (see
``FieldCtx.exp_np``), so GF(2^20) takes tens of milliseconds.

The two arrays have one layout, which only this module knows: log 0
is 2(Q - 1), and exp holds g^0 .. g^(Q-2) twice, then zeros up to
index 4(Q - 1).  So exp[log u + log v] is u v for all u, v, and a
product or negation is one lookup with no zero branch, for one
element (``ndarray.item``, which returns a Python int) or a whole
array (one gather with no mask); the zero tail is never written and
takes no memory.  The scalar and array methods read the same two
arrays: no other copy of the tables is made.

The vector operations work on numpy arrays of indices, products
included (``vmul_outer`` too is one gather from exp).  The one Q x Q
table is the sum table ``add_np`` of odd characteristic, which
``vadd`` gathers from: it is built on first use, in the narrowest
unsigned dtype that holds every index (``FieldCtx.dtype``), and only up
to order TABLE_MAX_ORDER.  Characteristic 2 adds by XOR and builds none.

When no modulus is supplied, the monic irreducible polynomial of degree
k with the smallest integer encoding is chosen, and the generator is
the nonzero element of smallest index with full multiplicative order.
This makes every element index reproducible across runs.  Both are a
function of (p, k) alone, so for every k >= 2 they are read from one
table, _CANONICAL_FIELDS (242 entries), parsed on first lookup; a
supplied modulus equal to the table's reads its generator too.  The
searches define the table and stay the only path for prime fields and
for any other modulus.  Each has one kernel in every characteristic.
The modulus search tries the encodings in order
(``smallest_irreducible``) with Ben-Or's test (``poly_is_irreducible``,
which also checks a supplied modulus) on lists of residues mod p.  The
generator search (``FieldCtx._search_generator``) tries the indices in
order, a batch at a time, by square-and-multiply on digit matrices.
tests/test_gf.py recomputes every table entry with both searches.

Fields of order above 2^20 are rejected (the tables would not be
desk-scale any more).
"""

from __future__ import annotations

from functools import cache, cached_property

import numpy as np

MAX_ORDER = 1 << 20

# Largest order whose Q x Q sum table is built: 2^24 entries, 32 MB in
# uint16.  It caps odd-characteristic vadd, hence rref and reduce_vector
# there, and the code commands in every characteristic.
TABLE_MAX_ORDER = 1 << 12

# The canonical field of every order p^k <= MAX_ORDER with k >= 2, as
# "p,k,t,g": t encodes the low coefficients of the modulus (the digits
# of t, lowest first, then the leading 1; see smallest_irreducible) and
# g is the generator's index, as the searches find them (see the module
# docstring).  Parsed on first lookup (_canonical_fields): a string
# compiles in microseconds, where a dict literal of the same entries
# takes about a millisecond at import.
_CANONICAL_FIELDS = """
2,2,3,2 2,3,3,2 2,4,3,2 2,5,5,2 2,6,3,2 2,7,3,2 2,8,27,3 2,9,3,7
2,10,9,2 2,11,5,2 2,12,9,3 2,13,27,2 2,14,33,7 2,15,3,2 2,16,43,3
2,17,9,2 2,18,9,10 2,19,39,2 2,20,9,2 3,2,1,4 3,3,7,3 3,4,5,3 3,5,7,3
3,6,5,3 3,7,11,5 3,8,11,38 3,9,64,3 3,10,19,34 3,11,11,5 3,12,11,14
5,2,2,6 5,3,6,9 5,4,2,6 5,5,21,10 5,6,7,5 5,7,6,9 5,8,2,6 7,2,1,9
7,3,2,22 7,4,8,12 7,5,10,9 7,6,2,8 7,7,43,14 11,2,1,15 11,3,15,11
11,4,13,11 11,5,2,13 13,2,2,15 13,3,2,15 13,4,2,17 13,5,54,13 17,2,3,19
17,3,20,17 17,4,3,307 19,2,1,22 19,3,2,29 19,4,27,21 23,2,1,25
23,3,26,23 23,4,25,31 29,2,2,30 29,3,33,30 29,4,2,30 31,2,1,35 31,3,3,34
31,4,32,34 37,2,2,41 37,3,2,75 41,2,3,43 41,3,42,44 43,2,1,45 43,3,3,45
47,2,1,49 47,3,51,47 53,2,2,54 53,3,58,53 59,2,1,62 59,3,60,63 61,2,2,63
61,3,2,67 67,2,1,74 67,3,2,73 71,2,1,79 71,3,72,75 73,2,5,76 73,3,2,77
79,2,1,85 79,3,2,81 83,2,1,93 83,3,88,84 89,2,3,91 89,3,93,91 97,2,5,101
97,3,2,102 101,2,2,102 101,3,102,104 103,2,1,105 107,2,1,109 109,2,2,111
113,2,3,117 127,2,1,135 131,2,1,134 137,2,3,145 139,2,1,143 149,2,2,152
151,2,1,160 157,2,2,159 163,2,1,170 167,2,1,169 173,2,2,174 179,2,1,182
181,2,2,185 191,2,1,201 193,2,5,198 197,2,2,200 199,2,1,212 211,2,1,215
223,2,1,225 227,2,1,229 229,2,2,231 233,2,3,241 239,2,1,247 241,2,7,248
251,2,1,256 257,2,3,259 263,2,1,265 269,2,2,278 271,2,1,276 277,2,2,279
281,2,3,285 283,2,1,285 293,2,2,294 307,2,1,316 311,2,1,315 313,2,5,316
317,2,2,327 331,2,1,337 337,2,5,356 347,2,1,351 349,2,2,353 353,2,3,360
359,2,1,370 367,2,1,370 373,2,2,375 379,2,1,382 383,2,1,385 389,2,2,390
397,2,2,399 401,2,3,405 409,2,7,419 419,2,1,423 421,2,2,425 431,2,1,435
433,2,5,436 439,2,1,448 443,2,1,445 449,2,3,465 457,2,5,462 461,2,2,469
463,2,1,465 467,2,1,469 479,2,1,483 487,2,1,490 491,2,1,496 499,2,1,502
503,2,1,509 509,2,2,510 521,2,3,523 523,2,1,525 541,2,2,545 547,2,1,549
557,2,2,560 563,2,1,565 569,2,3,573 571,2,1,574 577,2,5,581 587,2,1,593
593,2,3,595 599,2,1,610 601,2,7,603 607,2,1,609 613,2,2,615 617,2,3,629
619,2,1,622 631,2,1,636 641,2,3,647 643,2,1,647 647,2,1,649 653,2,2,659
659,2,1,669 661,2,2,663 673,2,5,678 677,2,2,678 683,2,1,685 691,2,1,695
701,2,2,704 709,2,2,711 719,2,1,723 727,2,1,729 733,2,2,735 739,2,1,748
743,2,1,745 751,2,1,755 757,2,2,759 761,2,3,763 769,2,7,771 773,2,2,774
787,2,1,789 797,2,2,798 809,2,3,815 811,2,1,814 821,2,2,822 823,2,1,826
827,2,1,831 829,2,2,831 839,2,1,843 853,2,2,855 857,2,3,859 859,2,1,865
863,2,1,868 877,2,2,881 881,2,3,887 883,2,1,888 887,2,1,889 907,2,1,909
911,2,1,915 919,2,1,925 929,2,3,934 937,2,5,941 941,2,2,942 947,2,1,953
953,2,3,957 967,2,1,969 971,2,1,974 977,2,3,981 983,2,1,985 991,2,1,1004
997,2,2,1000 1009,2,11,1018 1013,2,2,1019 1019,2,1,1025 1021,2,2,1035
"""


def is_prime(n: int) -> bool:
    """Primality by trial division (desk scale: n <= 2^20)."""
    return prime_factors(n) == [n]


class BudgetExceeded(ValueError):
    """An enumeration would exceed the caller's budget or table limit."""


def check_order(p: int, e: int, what: str = "field order"):
    """Raise ValueError if p^e exceeds MAX_ORDER (for p >= 2), without
    forming p^e for a huge e: 2^e alone exceeds it once e reaches
    MAX_ORDER's bit length."""
    if e >= MAX_ORDER.bit_length() or p ** e > MAX_ORDER:
        order = f"{p}^{e}" if e > 1 else p
        raise ValueError(f"{what} {order} exceeds limit {MAX_ORDER}")


def prime_power(n: int) -> tuple[int, int]:
    """Write n = p^e with p prime, or raise ValueError.  n must not
    exceed MAX_ORDER, which is checked before any trial division."""
    check_order(n, 1)
    factors = prime_factors(n)  # [] for n < 2
    if len(factors) != 1:
        raise ValueError(f"{n} is not a prime power")
    p = factors[0]
    return p, next(e for e in range(1, n) if p ** e == n)


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _mulmod_residues(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    """a b modulo the monic f of degree k over GF(p), on lists of k
    residues: the product, then X^d for d >= k cleared from the top."""
    k = len(f) - 1
    out = [0] * (2 * k - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    for top in range(2 * k - 2, k - 1, -1):
        c = out[top] % p
        if c:
            for j in range(k):
                out[top - k + j] -= c * f[j]
    return [c % p for c in out[:k]]


def _irreducible_residues(f: list[int], p: int) -> bool:
    """Ben-Or's test over GF(p) on the residue list f of degree k:
    X^(p^i) mod f by square-and-multiply, and a monic Euclid.  When
    p <= k, looking for a root in GF(p) costs less than the gcd of step
    i = 1, which finds the same factors, so it replaces that gcd."""
    k = len(f) - 1
    if p <= k:
        for x in range(p):
            v = 0
            for c in reversed(f):
                v = (v * x + c) % p
            if v == 0:
                return False
    xp = [0, 1] + [0] * (k - 2)  # X
    for i in range(1, k // 2 + 1):
        power = xp
        for bit in bin(p)[3:]:
            power = _mulmod_residues(power, power, f, p)
            if bit == "1":
                power = _mulmod_residues(power, xp, f, p)
        xp = power
        if i == 1 and p <= k:
            continue
        a, b = list(f), xp.copy()  # gcd(f, X^(p^i) - X)
        b[1] = (b[1] - 1) % p
        while any(b):
            while b[-1] == 0:
                b.pop()
            inv = pow(b[-1], -1, p)
            b = [c * inv % p for c in b]  # monic: each step clears a top
            while len(a) >= len(b):
                c = a.pop()
                s = len(a) - len(b) + 1
                for j in range(len(b) - 1):
                    a[s + j] = (a[s + j] - c * b[j]) % p
            a, b = b, a
        if len(a) != 1:
            return False
    return True


def poly_is_irreducible(f, p: int) -> bool:
    """A monic f (little-endian coefficients) of degree k >= 1 is
    irreducible over GF(p) iff it has no factor of degree <= k/2, that
    is iff gcd(X^(p^i) - X, f) = 1 for i <= k/2 (Ben-Or)."""
    return _irreducible_residues([c % p for c in f], p)


def _index_to_coeffs(idx: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        idx, rem = divmod(idx, p)
        out.append(rem)
    return out


def _coeffs_to_index(coeffs, p: int) -> int:
    idx = 0
    for c in reversed(coeffs):
        idx = idx * p + c
    return idx


def smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Monic irreducible polynomial of degree k over GF(p) with the
    smallest integer encoding (coefficients read as a base-p integer),
    found by trying the encodings t = 0, 1, ... in order."""
    t = next(t for t in range(p ** k)
             if _irreducible_residues(_index_to_coeffs(t, p, k) + [1], p))
    return tuple(_index_to_coeffs(t, p, k)) + (1,)


@cache
def _canonical_fields() -> dict[tuple[int, int], tuple[int, int]]:
    """(p, k) -> (t, g) for every entry of _CANONICAL_FIELDS."""
    fields = {}
    for entry in _CANONICAL_FIELDS.split():
        p, k, t, g = map(int, entry.split(","))
        fields[p, k] = t, g
    return fields


def _byte_tables(images) -> list[np.ndarray]:
    """XOR tables of the GF(2)-linear map sending bit j to images[j]:
    entry x of table b is the XOR of the images of the bits set in
    x << 8b, so one table serves each byte of an index."""
    tables = []
    for lo in range(0, len(images), 8):
        table = np.zeros(1, dtype=np.int64)
        for image in images[lo:lo + 8]:
            table = np.concatenate([table, table ^ image])
        tables.append(table)
    return tables


def _xor_images(tables: list[np.ndarray], v: np.ndarray) -> np.ndarray:
    """The map of _byte_tables at every index of v: one lookup per byte."""
    out = tables[0][v & 0xFF]
    for b in range(1, len(tables)):
        out ^= tables[b][(v >> 8 * b) & 0xFF]
    return out


class FieldCtx:
    """The finite field GF(p^k), operating on integer-encoded elements.

    All scalar operations take and return indices in [0, order).  The
    context is immutable after construction and safe to share.
    """

    def __init__(self, p: int, k: int, modulus=None):
        if k < 1:
            raise ValueError(f"extension degree k = {k} must be >= 1")
        if p >= 2:
            check_order(p, k)
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        order = p ** k
        # the table's (t, g), or the searches for a prime field or a
        # modulus other than the canonical one
        t, generator = _canonical_fields().get((p, k), (None, None))
        if modulus is None:
            modulus = (smallest_irreducible(p, k) if t is None
                       else tuple(_index_to_coeffs(t, p, k)) + (1,))
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree k")
            if _coeffs_to_index(modulus[:k], p) != t:
                generator = None
                if not poly_is_irreducible(modulus, p):
                    raise ValueError(
                        f"modulus {list(modulus)} is reducible over GF({p})")
        self.p = p
        self.k = k
        self.order = order
        self.modulus = modulus
        self._powers = p ** np.arange(k, dtype=np.int64)
        # holds a sum of k products of digits: see _mul_matrices
        self._digit_dtype = np.min_scalar_type(k * (p - 1) ** 2)
        # narrowest unsigned dtype holding every element index
        self.dtype = np.min_scalar_type(order - 1)
        self.generator = (self._search_generator() if generator is None
                          else generator)
        # -1 = generator^(n/2) in odd characteristic; -1 = 1 for p = 2
        self._neg_shift = (order - 1) // 2 if p > 2 else 0
        # the lazy sum table (odd characteristic)
        self._add_np = None

    # -- construction ---------------------------------------------------

    def _search_generator(self) -> int:
        """The canonical generator g: the smallest index of full order,
        searched for where _CANONICAL_FIELDS has no entry.  Candidates
        are tried in batches of doubling size: for each prime l of
        n = Q - 1, c^(n / l) comes from square-and-multiply on the
        batch's digit matrices (_mul_matrices), and c has full order if
        none is 1.  GF(2) has n = 1 and generator 1."""
        p, n = self.p, self.order - 1
        if n == 1:
            return 1
        exps = [n // ell for ell in prime_factors(n)]
        start, size = 1, 8
        while True:
            cands = np.arange(start, min(start + size, self.order))
            square = self._mul_matrices(cands)
            one = np.zeros_like(square[:, :1])
            one[..., 0] = 1
            # digit rows of c^e, one per exponent e, bit by bit
            rows = [one] * len(exps)
            for bit in range(max(exps).bit_length()):
                if bit:
                    square = square @ square % p
                rows = [row @ square % p if e >> bit & 1 else row
                        for row, e in zip(rows, exps)]
            full = np.logical_and.reduce(
                [(row != one).any(axis=(1, 2)) for row in rows])
            if full.any():
                return int(cands[np.argmax(full)])
            start, size = start + size, 2 * size

    @cached_property
    def exp_np(self) -> np.ndarray:
        """g^0, g^1, ..., doubled so log sums index directly, then the
        zero tail up to index 4(Q - 1) that log 0 = 2(Q - 1) reads (see
        the module docstring): exp[log u + log v] = u v for every u, v,
        and exp[log u + t] = u g^t for 0 <= t < Q - 1.

        Filled on first read by doubling: exp[L:2L] is exp[0:L] times
        g^L, a GF(p)-linear map applied to the whole block at once, and
        the map of g^2L is the map of g^L applied to itself.  No step
        does work per element in Python or reads base-p digits out of
        indices.  In characteristic 2 the map is a list of per-byte XOR
        tables (see _byte_tables), squared by applying it to its own
        tables.  In odd characteristic exp is kept as a k x n matrix of
        base-p digits, each block is the one before times the k x k
        digit matrix of g^L, that matrix is squared each step, and the
        indices are formed once at the end.  cached_property stores the
        array on the instance, so later reads are plain attribute loads."""
        n = self.order - 1
        exp = np.zeros(4 * n + 1, dtype=np.int64)
        if self.p == 2:
            self._powers_char2(exp[:n])
        else:
            self._powers_odd(exp[:n])
        exp[n:2 * n] = exp[:n]
        exp.flags.writeable = False
        return exp

    @cached_property
    def log_np(self) -> np.ndarray:
        """The inverse permutation of exp_np[:Q - 1], with the zero slot
        log 0 = 2(Q - 1); filled on first read."""
        n = self.order - 1
        log = np.empty(self.order, dtype=np.int64)
        log[0] = 2 * n
        log[self.exp_np[:n]] = np.arange(n)
        log.flags.writeable = False
        return log

    def _powers_char2(self, out: np.ndarray):
        """Fill out with g^0, g^1, ... by doubling on byte tables."""
        n = len(out)
        # the bit masks of g X^j: shift, then reduce X^k by the modulus
        modulus = _coeffs_to_index(self.modulus, 2)
        images, image = [], self.generator
        for _ in range(self.k):
            images.append(image)
            image <<= 1
            if image >> self.k:
                image ^= modulus
        tables = _byte_tables(images)
        out[0] = 1
        size = 1
        while size < n:
            end = min(2 * size, n)
            out[size:end] = _xor_images(tables, out[:end - size])
            if end < n:
                tables = [_xor_images(tables, t) for t in tables]
            size = end

    def _mul_matrices(self, elems: np.ndarray) -> np.ndarray:
        """Digit matrices of x -> c x for the elements c: row j of the
        matrix of c is the base-p digits of c X^j, so a row of digits
        times it is the digits of the product, mod p.
        Entries have _digit_dtype, which holds k (p - 1)^2, so a product
        of two of these matrices sums exactly."""
        p, k = self.p, self.k
        # digits of X^0 .. X^(2k - 2); X^k is minus the modulus' low terms
        neg_low = [-c % p for c in self.modulus[:k]]
        rows = [[int(i == j) for j in range(k)] for i in range(k)]
        for _ in range(k - 1):
            top = rows[-1][-1]
            rows.append([(a + top * b) % p
                         for a, b in zip([0] + rows[-1][:-1], neg_low)])
        # windows[j, i] is the digit row of X^(j + i)
        windows = np.array([rows[j:j + k] for j in range(k)],
                           dtype=self._digit_dtype)
        digits = (elems[:, None] // self._powers % p).astype(self._digit_dtype)
        return np.einsum("bi,jic->bjc", digits, windows) % p

    def _powers_odd(self, out: np.ndarray):
        """Fill out with g^0, g^1, ... by doubling on digit matrices:
        column i of the k x n digit matrix holds the digits of g^i, and
        each block is the one before times the digit matrix of g^L."""
        n = len(out)
        digits = np.zeros((self.k, n), dtype=self._digit_dtype)
        digits[0, 0] = 1
        # the digit matrix of g^size
        step = self._mul_matrices(np.array([self.generator]))[0]
        size = 1
        while size < n:
            end = min(2 * size, n)
            self._times_digit_matrix(step, digits[:, :end - size],
                                     digits[:, size:end])
            if end < n:
                step = step @ step % self.p
            size = end
        out[:] = self._read_digits(digits)

    def _times_digit_matrix(self, matrix: np.ndarray, src: np.ndarray,
                            out: np.ndarray) -> np.ndarray:
        """out = the k rows of digits src times the k x k digit matrix
        mod p, as k scaled rows summed: 3x faster than integer matmul."""
        np.multiply(matrix[0][:, None], src[0], out=out)
        for i in range(1, self.k):
            out += matrix[i][:, None] * src[i]
        out %= self.p
        return out

    def _read_digits(self, digits: np.ndarray) -> np.ndarray:
        """The indices whose base-p digits, lowest first, are columns."""
        out = digits[-1].astype(np.int64)
        for row in digits[-2::-1]:
            out *= self.p
            out += row
        return out

    def linear_map(self, images, v: np.ndarray) -> np.ndarray:
        """Apply to every index in v, of any shape, the GF(p)-linear map
        that sends the basis element X^j to images[j]: in characteristic
        2 by the XOR tables of the images (_byte_tables), else as the
        digit rows of v times their digit matrix (_times_digit_matrix)."""
        v = np.asarray(v, dtype=np.int64)
        if self.p == 2:
            return _xor_images(_byte_tables(images), v)
        matrix = np.array(images)[:, None] // self._powers % self.p
        src, rest = np.empty((self.k, v.size), self._digit_dtype), v.ravel()
        for row in src:
            rest, row[:] = np.divmod(rest, self.p)
        out = self._times_digit_matrix(matrix.astype(src.dtype), src,
                                       np.empty_like(src))
        return self._read_digits(out).reshape(v.shape)

    @cached_property
    def _zech_np(self) -> np.ndarray:
        """The Zech logarithms: entry d is log(1 + g^d), the zero slot
        2(Q - 1) where 1 + g^d = 0.  Adding 1 to an index adds 1 to its
        lowest digit, which wraps from p to 0."""
        one_plus = self.exp_np[:self.order - 1] + 1
        one_plus[one_plus % self.p == 0] -= self.p
        return self.log_np[one_plus]

    # -- scalar arithmetic on indices ------------------------------------

    def add(self, a: int, b: int) -> int:
        """a + b; in odd characteristic g^i + g^j = g^(i + Z(j - i)),
        where a Zech zero slot reads exp's zero tail."""
        if self.p == 2:
            return a ^ b
        if a == 0:
            return b
        if b == 0:
            return a
        la = self.log_np.item(a)
        z = self._zech_np.item((self.log_np.item(b) - la) % (self.order - 1))
        return self.exp_np.item(la + z)

    def neg(self, a: int) -> int:
        return self.exp_np.item(self.log_np.item(a) + self._neg_shift)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self.exp_np.item(self.log_np.item(a) + self.log_np.item(b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.exp_np.item(self.order - 1 - self.log_np.item(a))

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        """a^e; negative e allowed for nonzero a."""
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ZeroDivisionError("negative power of zero")
        return self.exp_np.item(self.log_np.item(a) * e % (self.order - 1))

    def frobenius(self, a: int, e: int = 1) -> int:
        """a^(p^e); e is taken mod k, so e = k (or 0) is the identity."""
        return self.pow(a, self.p ** (e % self.k))

    def trace_rel(self, a: int, q: int, r: int) -> int:
        """Relative trace from GF(q^r) down to GF(q): sum of a^{q^i}."""
        self._check_subfield(q, r)
        out = 0
        v = a
        for _ in range(r):
            out = self.add(out, v)
            v = self.pow(v, q)
        return out

    def norm_rel(self, a: int, q: int, r: int) -> int:
        """Relative norm from GF(q^r) down to GF(q): a^{(q^r-1)/(q-1)}."""
        self._check_subfield(q, r)
        return self.pow(a, (q ** r - 1) // (q - 1))

    def _check_subfield(self, q: int, r: int):
        p, e = prime_power(q)
        if p != self.p or q ** r != self.order:
            raise ValueError(f"GF({self.order}) is not GF({q}^{r})")

    def subfield_indices(self, d: int) -> list[int]:
        """Elements of the subfield of order p^d, ascending: 0 and the
        powers of g^s for the generator g and s = (Q - 1)/(p^d - 1)."""
        if self.k % d != 0:
            raise ValueError(f"d = {d} does not divide k = {self.k}")
        n = self.order - 1
        return sorted([0] + self.exp_np[:n:n // (self.p ** d - 1)].tolist())

    def elements(self) -> range:
        return range(self.order)

    def nonzero(self) -> range:
        return range(1, self.order)

    # -- vectorized arithmetic on numpy index arrays ----------------------

    def check_table_order(self):
        """Raise ValueError if the order is above TABLE_MAX_ORDER, the
        limit of the Q x Q sum table under the exact linear algebra."""
        if self.order > TABLE_MAX_ORDER:
            raise ValueError(
                f"field order {self.order} exceeds the table limit "
                f"{TABLE_MAX_ORDER} of the exact linear algebra")

    @property
    def add_np(self) -> np.ndarray:
        """Q x Q sum table in the element dtype.  With index
        a = p a' + a0, the sum is p (a' + b') + (a0 + b0) mod p, so the
        table for k digits is built from the one for k - 1."""
        if self._add_np is None:
            self.check_table_order()
            p = self.p
            # digit[a0, b0] = (a0 + b0) mod p, a window view of 0..p-1 twice
            digit = np.lib.stride_tricks.sliding_window_view(
                np.tile(np.arange(p, dtype=self.dtype), 2), p)[:p]
            tbl = np.zeros((1, 1), dtype=self.dtype)
            for _ in range(self.k):
                m = len(tbl) * p
                tbl = (tbl[:, None, :, None] * p
                       + digit[None, :, None, :]).reshape(m, m)
            self._add_np = tbl
        return self._add_np

    def vadd_scalar(self, u: np.ndarray, a: int | np.ndarray) -> np.ndarray:
        """Elementwise u + a, for one element a or an array, by base-p
        digit arithmetic: no table is built, so the cost follows the arrays."""
        u = np.asarray(u, dtype=np.int64)
        if self.p == 2:
            return u ^ a
        out = np.zeros_like(u)
        mult = 1
        for _ in range(self.k):
            out += (u // mult + a // mult) % self.p * mult
            mult *= self.p
        return out

    def vadd(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Elementwise u + v; in odd characteristic the result has the
        element dtype."""
        if self.p == 2:
            return u ^ v
        # one flat gather: 2-3x faster than add_np[u, v] on narrow indices
        flat = np.asarray(u, dtype=np.intp) * self.order + v
        return self.add_np.ravel().take(flat)

    def vneg(self, u: np.ndarray) -> np.ndarray:
        return self.exp_np[self.log_np[u] + self._neg_shift]

    def vscale(self, s: int, u: np.ndarray) -> np.ndarray:
        """Scalar times vector of element indices."""
        return self.exp_np[self.log_np[u] + self.log_np[s]]

    def vmul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Elementwise u v, for arrays or one element, zeros included."""
        return self.exp_np[self.log_np[u] + self.log_np[v]]

    def vpow(self, u: np.ndarray, e: int) -> np.ndarray:
        """Elementwise u^e (0^0 = 1); negative e requires all entries
        nonzero."""
        zero = u == 0
        if e < 0 and zero.any():
            raise ZeroDivisionError("negative power of zero entry")
        out = self.exp_np[self.log_np[u] * e % (self.order - 1)]
        return np.where(zero, 0, out) if e else out

    def vmul_outer(self, col: np.ndarray, row: np.ndarray) -> np.ndarray:
        """Outer product col[:, None] * row[None, :] over the field, in
        the element dtype: one gather exp[log col + log row], as vmul
        forms it, with the log sums in the narrowest dtype that holds
        4(Q - 1), the last index of exp_np.  It reads a per-call copy of
        exp_np in the element dtype: take into a narrow out from the
        int64 table is 2-4x slower."""
        narrow = np.min_scalar_type(4 * (self.order - 1))
        logs = (self.log_np[col].astype(narrow)[:, None]
                + self.log_np[row].astype(narrow))
        return self.exp_np.astype(self.dtype).take(logs)

    # -- equality, serialization ------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldCtx)
                and (self.p, self.k, self.modulus)
                == (other.p, other.k, other.modulus))

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"FieldCtx(GF({self.p}^{self.k}), modulus={list(self.modulus)})"

    def to_dict(self) -> dict:
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus),
                "generator_index": self.generator}


def build_field(p: int, k: int, modulus=None) -> FieldCtx:
    """Construct GF(p^k); see FieldCtx for the canonical-modulus rule."""
    return FieldCtx(p, k, modulus)


def field_from_dict(d: dict) -> FieldCtx:
    ctx = FieldCtx(d["p"], d["k"], d.get("modulus"))
    want = d.get("generator_index")
    if want is not None and want != ctx.generator:
        raise ValueError(
            f"record generator {want} differs from canonical {ctx.generator}")
    return ctx

