"""Exact arithmetic in finite fields GF(p^k).

An element of GF(p^k) is encoded as an integer index in [0, p^k): the
base-p digits of the index, little-endian, are the coefficients of the
residue polynomial modulo a fixed monic irreducible polynomial.  A
:class:`FieldCtx` holds the modulus together with precomputed exp/log
tables, so multiplication, inversion, powering and negation are table
lookups; odd-characteristic addition goes through Zech logarithms.

Building a field finds only its modulus and generator.  The exp and
log tables (``exp_np``, ``log_np``) are filled on first read, by
doubling whole blocks with integer array operations: per-byte XOR
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

The vector operations work on numpy arrays of indices.  The Q x Q
product and sum tables that the elimination kernel gathers from
(``mul_np``, ``add_np``) are built on first use, in the narrowest
unsigned dtype that holds every index (``FieldCtx.dtype``), and only up
to order TABLE_MAX_ORDER.

When no modulus is supplied, the monic irreducible polynomial of degree
k with the smallest integer encoding is chosen, and the generator is
the nonzero element of smallest index with full multiplicative order.
This makes every element index reproducible across runs.  The modulus
search tries the encodings in order with Ben-Or's test
(``poly_is_irreducible``, which also checks a supplied modulus) on
plain integers: bit masks in characteristic 2, lists of residues mod p
otherwise.  It builds no field and takes about 0.1 ms on GF(2^16) and
1 ms on GF(3^9).

Fields of order above 2^20 are rejected (the tables would not be
desk-scale any more).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

MAX_ORDER = 1 << 20

# Largest order whose Q x Q tables are built: 2^24 entries, 32 MB in
# uint16.  It caps rref, reduce_vector and odd-characteristic vadd.
TABLE_MAX_ORDER = 1 << 12


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


def _mul_bits(a: int, b: int, m: int, k: int) -> int:
    """a b modulo m over GF(2), all as bit masks (bit i is the
    coefficient of X^i), for a monic m of degree k and deg a < k: shift
    and add, reducing X^k by m."""
    r = 0
    top = 1 << k
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        if a & top:
            a ^= m
        b >>= 1
    return r


def _irreducible_bits(f: int, k: int) -> bool:
    """Ben-Or's test over GF(2) on the bit mask f of degree k: X^(2^i)
    mod f is one squaring of the last, and the gcd is shifts and XOR."""
    xp = 2  # X
    for _ in range(k // 2):
        xp = _mul_bits(xp, xp, f, k)
        a, b = f, xp ^ 2  # gcd(f, X^(2^i) - X)
        while b:
            while a.bit_length() >= b.bit_length():
                a ^= b << (a.bit_length() - b.bit_length())
            a, b = b, a
        if a != 1:
            return False
    return True


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
    """Ben-Or's test over GF(p), p odd, on the residue list f of degree
    k: X^(p^i) mod f by square-and-multiply, and a monic Euclid.  When
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
    f = [c % p for c in f]
    if p == 2:
        return _irreducible_bits(_coeffs_to_index(f, 2), len(f) - 1)
    return _irreducible_residues(f, p)


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
    if p == 2:
        t = next(t for t in range(1 << k) if _irreducible_bits(t | 1 << k, k))
    else:
        t = next(t for t in range(p ** k)
                 if _irreducible_residues(_index_to_coeffs(t, p, k) + [1], p))
    return tuple(_index_to_coeffs(t, p, k)) + (1,)


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
        if modulus is None:
            modulus = smallest_irreducible(p, k)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree k")
            if not poly_is_irreducible(modulus, p):
                raise ValueError(f"modulus {list(modulus)} is reducible over GF({p})")
        self.p = p
        self.k = k
        self.order = order
        self.modulus = modulus
        # the modulus as a bit mask, for the characteristic-2 _mul_bits
        self._modulus_bits = _coeffs_to_index(modulus, 2) if p == 2 else None
        self._powers = p ** np.arange(k, dtype=np.int64)
        # holds a sum of k products of digits: see _mul_matrices
        self._digit_dtype = np.min_scalar_type(k * (p - 1) ** 2)
        # narrowest unsigned dtype holding every element index
        self.dtype = np.min_scalar_type(order - 1)
        self._find_generator()
        # -1 = generator^(n/2) in odd characteristic; -1 = 1 for p = 2
        self._neg_shift = (order - 1) // 2 if p > 2 else 0
        # lazy tables
        self._mul_np = None
        self._add_np = None

    # -- construction ---------------------------------------------------

    def _pow_raw(self, a: int, e: int) -> int:
        m, k = self._modulus_bits, self.k
        r = 1
        while e:
            if e & 1:
                r = _mul_bits(r, a, m, k)
            a = _mul_bits(a, a, m, k)
            e >>= 1
        return r

    def _find_generator(self):
        """The canonical generator g: the smallest index of full order.
        In characteristic 2 it is found by scalar search on bit masks;
        in odd characteristic by batched square-and-multiply on digit
        matrices (_odd_generator), whose matrix of g the exp fill keeps."""
        n = self.order - 1
        primes = prime_factors(n) if n > 1 else []
        if self.p == 2:
            self.generator = next(
                c for c in range(1, self.order)
                if all(self._pow_raw(c, n // ell) != 1 for ell in primes))
        else:
            self.generator, self._g_matrix = self._odd_generator(primes)

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
            self._powers_odd(exp[:n], self._g_matrix)
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
        tables = _byte_tables([_mul_bits(1 << j, self.generator,
                                         self._modulus_bits, self.k)
                               for j in range(self.k)])
        out[0] = 1
        size = 1
        while size < n:
            end = min(2 * size, n)
            out[size:end] = _xor_images(tables, out[:end - size])
            if end < n:
                tables = [_xor_images(tables, t) for t in tables]
            size = end

    def _mul_matrices(self, elems: np.ndarray) -> np.ndarray:
        """Digit matrices of x -> c x for the odd-characteristic elements
        c: row j of the matrix of c is the base-p digits of c X^j, so a
        row of digits times it is the digits of the product, mod p.
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

    def _odd_generator(self, primes) -> tuple[int, np.ndarray]:
        """The smallest index of full order, and its digit matrix.
        Candidates are tried in batches of doubling size: for each prime
        l of n = Q - 1, c^(n / l) comes from square-and-multiply on the
        batch's digit matrices, and c has full order if none is 1."""
        p, n = self.p, self.order - 1
        exps = [n // ell for ell in primes]
        start, size = 1, 8
        while True:
            cands = np.arange(start, min(start + size, self.order))
            square = mats = self._mul_matrices(cands)
            one = np.zeros_like(mats[:, :1])
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
                i = int(np.argmax(full))
                return int(cands[i]), mats[i]
            start, size = start + size, 2 * size

    def _powers_odd(self, out: np.ndarray, g_matrix: np.ndarray):
        """Fill out with g^0, g^1, ... by doubling on digit matrices:
        column i of the k x n digit matrix holds the digits of g^i, and
        each block is the one before times the digit matrix of g^L."""
        n = len(out)
        digits = np.zeros((self.k, n), dtype=self._digit_dtype)
        digits[0, 0] = 1
        step = g_matrix  # the digit matrix of g^size
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
        limit of the Q x Q tables under the exact linear algebra."""
        if self.order > TABLE_MAX_ORDER:
            raise ValueError(
                f"field order {self.order} exceeds the table limit "
                f"{TABLE_MAX_ORDER} of the exact linear algebra")

    @property
    def mul_np(self) -> np.ndarray:
        """Q x Q product table in the element dtype."""
        if self._mul_np is None:
            self.check_table_order()
            n = self.order - 1
            # window row i of the doubled exp table holds g^(i + j)
            powers = np.lib.stride_tricks.sliding_window_view(
                self.exp_np[:2 * n].astype(self.dtype), n)
            lg = self.log_np[1:]
            tbl = np.zeros((self.order, self.order), dtype=self.dtype)
            tbl[1:, 1:] = powers[np.ix_(lg, lg)]
            self._mul_np = tbl
        return self._mul_np

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
        the element dtype: the rows of mul_np for col, then the
        entries for row."""
        return self.mul_np[col][:, row]

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

