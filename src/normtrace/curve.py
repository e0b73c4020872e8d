"""The norm-trace curve, its rational places, and divisor bookkeeping.

The curve N_{q,r} over GF(q^r) is the plane curve

    x^c = y^{q^{r-1}} + y^{q^{r-2}} + ... + y,      c = (q^r - 1)/(q - 1),

i.e. norm(x) = trace(y) for the relative norm and trace down to GF(q).
For r = 2 this is the Hermitian curve.  Places are the degree-one
rational places: the affine points plus the single place at infinity.

Canonical ordering everywhere: the place at infinity first, then affine
places sorted by (x index, y index).  Code columns follow it with the
zeros of x left out; NormTraceCurve.theta_coords states that layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

import numpy as np

from .gf import build_field, check_order, prime_power

INFINITY = "infinity"
AFFINE = "affine"

# Twice the q^{2r-1} + 1 places of N_{16,3}; larger curves are refused
# before any table is built.
MAX_PLACES = 1 << 21


@dataclass(frozen=True)
class Place:
    """A rational place: the place at infinity, or an affine point (x, y)
    stored as field-element indices."""

    kind: str
    x: int = -1
    y: int = -1

    @property
    def is_infinity(self) -> bool:
        return self.kind == INFINITY

    def sort_key(self):
        return (0, 0, 0) if self.is_infinity else (1, self.x, self.y)

    def __repr__(self):
        return "P_inf" if self.is_infinity else f"P({self.x},{self.y})"

    def to_dict(self) -> dict:
        if self.is_infinity:
            return {"kind": INFINITY}
        return {"kind": AFFINE, "x": self.x, "y": self.y}


P_INFINITY = Place(INFINITY)


def place_from_dict(d: dict) -> Place:
    if d["kind"] == INFINITY:
        return P_INFINITY
    return Place(AFFINE, d["x"], d["y"])


class Divisor:
    """Formal integer combination of places.  Zero-coefficient entries
    are dropped on construction."""

    def __init__(self, coeffs=None):
        self._coeffs = {}
        if coeffs:
            for place, c in (coeffs.items() if hasattr(coeffs, "items") else coeffs):
                if c:
                    self._coeffs[place] = self._coeffs.get(place, 0) + c
            self._coeffs = {P: c for P, c in self._coeffs.items() if c}

    def coeff(self, place: Place) -> int:
        return self._coeffs.get(place, 0)

    @property
    def degree(self) -> int:
        return sum(self._coeffs.values())

    def support(self) -> list[Place]:
        return sorted(self._coeffs, key=Place.sort_key)

    def items(self):
        return [(P, self._coeffs[P]) for P in self.support()]

    def __add__(self, other: "Divisor") -> "Divisor":
        out = dict(self._coeffs)
        for P, c in other._coeffs.items():
            out[P] = out.get(P, 0) + c
        return Divisor(out)

    def __neg__(self) -> "Divisor":
        return Divisor({P: -c for P, c in self._coeffs.items()})

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-other)

    def scale(self, n: int) -> "Divisor":
        return Divisor({P: n * c for P, c in self._coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, Divisor) and self._coeffs == other._coeffs

    def __len__(self):
        return len(self._coeffs)

    def __repr__(self):
        parts = [f"{c}*{P}" for P, c in self.items()]
        return "Divisor(" + " + ".join(parts) + ")" if parts else "Divisor(0)"

    def to_dict(self) -> list:
        return [{"place": P.to_dict(), "coeff": c} for P, c in self.items()]


class NormTraceCurve:
    """N_{q,r} over GF(q^r), with its field context and basic invariants.

    Attributes:
        q, r: defining parameters (q a prime power, r >= 2).
        ctx: FieldCtx for GF(q^r).
        c: (q^r - 1)/(q - 1), the x-degree (= -v_inf(y)).
        h: q^{r-1}, the y-degree (= -v_inf(x)).
        genus: (h - 1)(c - 1)/2.
    """

    def __init__(self, q: int, r: int):
        p, e = prime_power(q)
        if r < 2:
            raise ValueError(f"r = {r} must be >= 2")
        check_order(q, r)
        if q ** (2 * r - 1) + 1 > MAX_PLACES:
            raise ValueError(f"N_{{{q},{r}}} has {q}^{2 * r - 1} + 1 places, "
                             f"above the limit {MAX_PLACES}")
        self.q = q
        self.r = r
        self.p = p
        self.e = e
        self.ctx = build_field(p, e * r)
        self.c = (q ** r - 1) // (q - 1)
        self.h = q ** (r - 1)
        self.genus = (self.h - 1) * (self.c - 1) // 2
        assert gcd(self.h, self.c) == 1

    # -- membership and place construction --------------------------------

    def on_curve(self, x: int, y: int) -> bool:
        return (self.ctx.norm_rel(x, self.q, self.r)
                == self.ctx.trace_rel(y, self.q, self.r))

    def affine_place(self, x: int, y: int) -> Place:
        """Validated affine place; raises if (x, y) is not on the curve."""
        if not self.on_curve(x, y):
            raise ValueError(f"({x}, {y}) is not on N_{{{self.q},{self.r}}}")
        return Place(AFFINE, x, y)

    @cached_property
    def affine_xy(self) -> tuple[np.ndarray, np.ndarray]:
        """x and y indices of the affine places, sorted by (x, y).

        The trace is GF(p)-linear, so the traces of all y follow from
        the traces of the basis X^j; the norm of x is x^c.  The trace is
        onto GF(q), where every norm lies, so each x has h points: the
        fibre of norm(x), which a stable argsort lists by ascending y."""
        ctx, Q = self.ctx, self.ctx.order
        traces = ctx.linear_map(
            [ctx.trace_rel(ctx.p ** j, self.q, self.r) for j in range(ctx.k)],
            np.arange(Q))
        norms = np.zeros(Q, dtype=np.int64)
        norms[1:] = ctx.exp_np[ctx.log_np[1:] * self.c % (Q - 1)]
        sizes = np.bincount(traces, minlength=Q)
        assert (sizes[norms] == self.h).all()
        starts = np.cumsum(sizes) - sizes
        by_trace = np.argsort(traces, kind="stable")
        ys = by_trace[(starts[norms][:, None] + np.arange(self.h)).ravel()]
        xs = np.repeat(np.arange(Q), self.h)
        xs.flags.writeable = ys.flags.writeable = False
        return xs, ys

    @property
    def n_places(self) -> int:
        """The number of rational places, counted without building them."""
        return 1 + len(self.affine_xy[0])

    @cached_property
    def trace_zero(self) -> frozenset[int]:
        """Elements of trace zero: the translation parts of the group,
        which are the y of the places over x = 0."""
        return frozenset(self.affine_xy[1][:self.h].tolist())

    def x_fiber(self, x: int) -> list[Place]:
        """Affine places with the given x coordinate, in canonical order."""
        if not 0 <= x < self.ctx.order:
            raise ValueError(f"x = {x} is not in GF({self.ctx.order})")
        ys = self.affine_xy[1][x * self.h:(x + 1) * self.h]
        return [Place(AFFINE, x, y) for y in ys.tolist()]

    @cached_property
    def places(self) -> tuple[Place, ...]:
        xs, ys = self.affine_xy
        return (P_INFINITY,) + tuple([
            Place(AFFINE, x, y) for x, y in zip(xs.tolist(), ys.tolist())])

    def rational_places(self) -> tuple[Place, ...]:
        """All q^{2r-1} + 1 rational places, infinity first."""
        return self.places

    @cached_property
    def omega(self) -> tuple[Place, ...]:
        """The q^{r-1} zeros of x (affine places with x = 0)."""
        return tuple(self.x_fiber(0))

    @cached_property
    def theta(self) -> tuple[Place, ...]:
        """Complement of omega, P_inf first: the places of code columns."""
        return (P_INFINITY,) + self.places[self.h + 1:]

    @cached_property
    def theta_coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The column layout of every code: P_inf is column 0, then the
        affine places past the h zeros of x (which sort first), in
        affine_xy order.  Returns columns 1..n-1 with their x and y."""
        xs, ys = self.affine_xy
        return np.arange(1, len(xs) - self.h + 1), xs[self.h:], ys[self.h:]

    # -- divisors ----------------------------------------------------------

    def principal_divisor_x(self) -> Divisor:
        d = {P: 1 for P in self.omega}
        d[P_INFINITY] = -self.h
        return Divisor(d)

    def principal_divisor_y(self) -> Divisor:
        return Divisor({Place(AFFINE, 0, 0): self.c, P_INFINITY: -self.c})

    def divisor_G(self, ell: int) -> Divisor:
        if ell < 1:
            raise ValueError(f"ell = {ell} must be >= 1")
        return Divisor({P: ell for P in self.omega})

    def divisor_D(self) -> Divisor:
        return Divisor({P: 1 for P in self.theta})

    def val_infinity(self, i: int, j: int) -> int:
        """Valuation at P_inf of the monomial x^i y^j."""
        return -(i * self.h + j * self.c)

    # -- identity / serialization ------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, NormTraceCurve)
                and (self.q, self.r, self.ctx) == (other.q, other.r, other.ctx))

    def __hash__(self):
        return hash((self.q, self.r, self.ctx))

    def __repr__(self):
        return f"NormTraceCurve(q={self.q}, r={self.r}, genus={self.genus})"

    def to_dict(self) -> dict:
        return {"q": self.q, "r": self.r, "field": self.ctx.to_dict()}


def build_curve(q: int, r: int) -> NormTraceCurve:
    return NormTraceCurve(q, r)
