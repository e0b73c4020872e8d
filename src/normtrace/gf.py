"""Exact arithmetic in finite fields GF(p^k).

An element of GF(p^k) is encoded as an integer index in [0, p^k): the
base-p digits of the index, little-endian, are the coefficients of the
residue polynomial modulo a fixed monic irreducible polynomial.  A
:class:`FieldCtx` holds the modulus together with precomputed exp/log
tables, so multiplication, inversion and powering are table lookups.

When no modulus is supplied, the monic irreducible polynomial of degree
k with the smallest integer encoding is chosen, and the generator is
the nonzero element of smallest index with full multiplicative order.
This makes every element index reproducible across runs.

Fields of order above 2^20 are rejected (the tables would not be
desk-scale any more).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_ORDER = 1 << 20

# Odd-characteristic vector addition goes through a full Q x Q table;
# cap the order for which we are willing to materialize it.
_ADD_TABLE_MAX_ORDER = 1 << 12


def is_prime(n: int) -> bool:
    """Trial-division primality test (desk scale: n <= 2^20)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_order(p: int, e: int):
    """Raise ValueError if p^e exceeds MAX_ORDER (for p >= 2), without
    forming p^e for a huge e: 2^e alone exceeds it once e reaches
    MAX_ORDER's bit length."""
    if e >= MAX_ORDER.bit_length() or p ** e > MAX_ORDER:
        order = f"{p}^{e}" if e > 1 else p
        raise ValueError(f"field order {order} exceeds limit {MAX_ORDER}")


def prime_power(n: int) -> tuple[int, int]:
    """Write n = p^e with p prime, or raise ValueError.  n must not
    exceed MAX_ORDER, which is checked before any trial division."""
    if n < 2:
        raise ValueError(f"{n} is not a prime power")
    check_order(n, 1)
    for p in range(2, n + 1):
        if p * p > n:
            return n, 1  # n itself prime (no divisor <= sqrt)
        if n % p:
            continue
        e = 0
        m = n
        while m % p == 0:
            m //= p
            e += 1
        if m != 1:
            raise ValueError(f"{n} is not a prime power")
        return p, e
    raise ValueError(f"{n} is not a prime power")


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


# ----------------------------------------------------------------------
# Polynomials over the prime field GF(p), as little-endian coefficient
# tuples.  Only what modulus handling needs: product, remainder, gcd,
# and an irreducibility test.
# ----------------------------------------------------------------------

def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mul(f, g, p):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _poly_trim(out)


def _poly_mod(f, m, p):
    # m monic
    f = list(f)
    dm = len(m) - 1
    while len(f) - 1 >= dm and f:
        lead = f[-1]
        if lead:
            shift = len(f) - 1 - dm
            for i in range(dm + 1):
                f[shift + i] = (f[shift + i] - lead * m[i]) % p
        f.pop()
    return _poly_trim(f)


def _poly_gcd(f, g, p):
    while g:
        lead_inv = pow(g[-1], p - 2, p) if g[-1] != 1 else 1
        gm = tuple((c * lead_inv) % p for c in g)
        f, g = g, _poly_mod(f, gm, p)
    return f


def _poly_powmod(f, e, m, p):
    result = (1,)
    f = _poly_mod(f, m, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, f, p), m, p)
        f = _poly_mod(_poly_mul(f, f, p), m, p)
        e >>= 1
    return result


def poly_is_irreducible(poly, p: int) -> bool:
    """Monic poly of degree k is irreducible over GF(p) iff it has no
    factor of degree <= k/2; detected via gcd(X^{p^i} - X, poly)."""
    k = len(poly) - 1
    if k < 1:
        return False
    if k == 1:
        return True
    x = (0, 1)
    xp = x
    for i in range(1, k // 2 + 1):
        xp = _poly_powmod(xp, p, poly, p)
        diff = list(xp) + [0] * (2 - len(xp))
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(poly, _poly_trim(diff), p)
        if len(g) > 1:
            return False
    return True


def _index_to_coeffs(idx: int, p: int, k: int) -> tuple[int, ...]:
    out = []
    for _ in range(k):
        idx, rem = divmod(idx, p)
        out.append(rem)
    return tuple(out)


def _coeffs_to_index(coeffs, p: int) -> int:
    idx = 0
    for c in reversed(coeffs):
        idx = idx * p + c
    return idx


def smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Monic irreducible polynomial of degree k over GF(p) with the
    smallest integer encoding (coefficients read as a base-p integer)."""
    for t in range(p ** k):
        cand = _index_to_coeffs(t, p, k) + (1,)
        if poly_is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


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
        self._build_tables()
        # lazy numpy tables
        self._exp_np = None
        self._log_np = None
        self._add_np = None
        self._neg_np = None

    # -- construction ---------------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        """Multiply without tables (used to bootstrap them)."""
        p, k = self.p, self.k
        if p == 2:
            m = _coeffs_to_index(self.modulus, 2)
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
        fa = _index_to_coeffs(a, p, k)
        fb = _index_to_coeffs(b, p, k)
        prod = _poly_mod(_poly_mul(fa, fb, p), self.modulus, p)
        return _coeffs_to_index(prod, p)

    def _pow_raw(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return r

    def _build_tables(self):
        n = self.order - 1
        gen = None
        primes = prime_factors(n) if n > 1 else []
        for cand in range(1, self.order):
            if all(self._pow_raw(cand, n // ell) != 1 for ell in primes):
                gen = cand
                break
        assert gen is not None
        self.generator = gen
        exp = [0] * n
        log = [-1] * self.order
        v = 1
        for i in range(n):
            exp[i] = v
            log[v] = i
            v = self._mul_raw(v, gen)
        self._exp = exp
        self._log = log

    # -- scalar arithmetic on indices ------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if p == 2:
            return a ^ b
        out = 0
        mult = 1
        while a or b:
            a, da = divmod(a, p)
            b, db = divmod(b, p)
            out += ((da + db) % p) * mult
            mult *= p
        return out

    def neg(self, a: int) -> int:
        p = self.p
        if p == 2:
            return a
        out = 0
        mult = 1
        while a:
            a, da = divmod(a, p)
            out += (-da % p) * mult
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[(-self._log[a]) % (self.order - 1)]

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
        return self._exp[(self._log[a] * e) % (self.order - 1)]

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
        """Elements of the subfield of order p^d, i.e. fixed by x -> x^{p^d}."""
        if self.k % d != 0:
            raise ValueError(f"d = {d} does not divide k = {self.k}")
        pd = self.p ** d
        return [a for a in range(self.order) if self.pow(a, pd) == a]

    def elements(self) -> range:
        return range(self.order)

    def nonzero(self) -> range:
        return range(1, self.order)

    # -- vectorized arithmetic on numpy index arrays ----------------------

    @property
    def exp_np(self) -> np.ndarray:
        if self._exp_np is None:
            n = max(self.order - 1, 1)
            tbl = np.empty(2 * n, dtype=np.int64)
            tbl[:n] = self._exp
            tbl[n:] = self._exp  # doubled so log sums index directly
            self._exp_np = tbl
        return self._exp_np

    @property
    def log_np(self) -> np.ndarray:
        if self._log_np is None:
            self._log_np = np.array(self._log, dtype=np.int64)
        return self._log_np

    @property
    def add_np(self) -> np.ndarray:
        """Q x Q addition table (odd characteristic only)."""
        if self._add_np is None:
            if self.order > _ADD_TABLE_MAX_ORDER:
                raise ValueError(
                    f"addition table not materialized for order {self.order}")
            idx = np.arange(self.order, dtype=np.int64)
            tbl = np.zeros((self.order, self.order), dtype=np.int64)
            mult = 1
            a = idx.copy()
            b = idx.copy()
            for _ in range(self.k):
                da, a = a % self.p, a // self.p
                db, b = b % self.p, b // self.p
                tbl += ((da[:, None] + db[None, :]) % self.p) * mult
                mult *= self.p
            self._add_np = tbl
        return self._add_np

    @property
    def neg_np(self) -> np.ndarray:
        if self._neg_np is None:
            self._neg_np = np.array([self.neg(a) for a in range(self.order)],
                                    dtype=np.int64)
        return self._neg_np

    def add_table(self, a: int) -> np.ndarray:
        """The table v -> v + a over all elements, by base-p digit
        arithmetic: no Q x Q table, so it works at every order."""
        idx = np.arange(self.order, dtype=np.int64)
        if self.p == 2:
            return idx ^ a
        out = np.zeros_like(idx)
        mult = 1
        for _ in range(self.k):
            out += (idx // mult + a // mult) % self.p * mult
            mult *= self.p
        return out

    def vadd(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        if self.p == 2:
            return u ^ v
        return self.add_np[u, v]

    def vneg(self, u: np.ndarray) -> np.ndarray:
        if self.p == 2:
            return u
        return self.neg_np[u]

    def vscale(self, s: int, u: np.ndarray) -> np.ndarray:
        """Scalar times vector of element indices."""
        if s == 0:
            return np.zeros_like(u)
        if s == 1:
            return u.copy()
        out = np.zeros_like(u)
        nz = u != 0
        out[nz] = self.exp_np[self.log_np[u[nz]] + self._log[s]]
        return out

    def vmul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        u, v = np.broadcast_arrays(u, v)
        out = np.zeros(u.shape, dtype=np.int64)
        nz = (u != 0) & (v != 0)
        out[nz] = self.exp_np[self.log_np[u[nz]] + self.log_np[v[nz]]]
        return out

    def vpow(self, u: np.ndarray, e: int) -> np.ndarray:
        """Elementwise u^e; negative e requires all entries nonzero."""
        if e == 0:
            return np.ones_like(u)
        nz = u != 0
        if e < 0 and not nz.all():
            raise ZeroDivisionError("negative power of zero entry")
        out = np.zeros_like(u)
        out[nz] = self.exp_np[(self.log_np[u[nz]] * e) % (self.order - 1)]
        return out

    def vmul_outer(self, col: np.ndarray, row: np.ndarray) -> np.ndarray:
        """Outer product col[:, None] * row[None, :] over the field."""
        out = np.zeros((len(col), len(row)), dtype=np.int64)
        nzc = col != 0
        nzr = row != 0
        if nzc.any() and nzr.any():
            sums = (self.log_np[col[nzc]][:, None]
                    + self.log_np[row[nzr]][None, :])
            block = self.exp_np[sums]
            tmp = np.zeros((int(nzc.sum()), len(row)), dtype=np.int64)
            tmp[:, nzr] = block
            out[nzc] = tmp
        return out

    # -- elements, equality, serialization --------------------------------

    def element(self, index: int) -> "FieldElement":
        return FieldElement(self, index)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    @property
    def gen(self) -> "FieldElement":
        return FieldElement(self, self.generator)

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


@dataclass(frozen=True)
class FieldElement:
    """An element of a FieldCtx; a thin operator wrapper over the index."""

    ctx: FieldCtx
    index: int

    def __post_init__(self):
        if not 0 <= self.index < self.ctx.order:
            raise ValueError(f"index {self.index} out of range for {self.ctx}")

    def _same(self, other: "FieldElement") -> int:
        if not isinstance(other, FieldElement):
            raise TypeError(f"cannot combine FieldElement with {type(other)}")
        if other.ctx != self.ctx:
            raise ValueError("elements come from different field contexts")
        return other.index

    def __add__(self, other):
        return FieldElement(self.ctx, self.ctx.add(self.index, self._same(other)))

    def __sub__(self, other):
        return FieldElement(self.ctx, self.ctx.sub(self.index, self._same(other)))

    def __mul__(self, other):
        return FieldElement(self.ctx, self.ctx.mul(self.index, self._same(other)))

    def __truediv__(self, other):
        return FieldElement(self.ctx, self.ctx.div(self.index, self._same(other)))

    def __neg__(self):
        return FieldElement(self.ctx, self.ctx.neg(self.index))

    def __pow__(self, e: int):
        return FieldElement(self.ctx, self.ctx.pow(self.index, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx.inv(self.index))

    def __bool__(self):
        return self.index != 0

    def __repr__(self):
        return f"<{self.index} in GF({self.ctx.p}^{self.ctx.k})>"


def arith(a: FieldElement, b: FieldElement, op: str) -> FieldElement:
    """Dispatch form of the binary operations: op in add/sub/mul/div."""
    try:
        fn = {"add": FieldElement.__add__, "sub": FieldElement.__sub__,
              "mul": FieldElement.__mul__, "div": FieldElement.__truediv__}[op]
    except KeyError:
        raise ValueError(f"unknown operation {op!r}")
    return fn(a, b)


def frobenius(a: FieldElement, e: int) -> FieldElement:
    """a^(p^e), the e-th power of the absolute Frobenius."""
    return FieldElement(a.ctx, a.ctx.frobenius(a.index, e))


def trace_rel(a: FieldElement, q: int, r: int) -> FieldElement:
    return FieldElement(a.ctx, a.ctx.trace_rel(a.index, q, r))


def norm_rel(a: FieldElement, q: int, r: int) -> FieldElement:
    return FieldElement(a.ctx, a.ctx.norm_rel(a.index, q, r))


def subfield_elements(ctx: FieldCtx, d: int) -> list[FieldElement]:
    return [FieldElement(ctx, i) for i in ctx.subfield_indices(d)]
