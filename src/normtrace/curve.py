"""The norm-trace curve and its rational places.

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

    def __repr__(self):
        return "P_inf" if self.is_infinity else f"P({self.x},{self.y})"

    def to_dict(self) -> dict:
        if self.is_infinity:
            return {"kind": INFINITY}
        return {"kind": AFFINE, "x": self.x, "y": self.y}


P_INFINITY = Place(INFINITY)


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

    # -- place construction ------------------------------------------------

    @cached_property
    def _fibres(self) -> tuple[np.ndarray, ...]:
        """(norms, sizes, starts, by_trace): the norm of every x, and
        the elements listed by trace (a stable argsort, so ascending
        within a trace) with the size and start of each trace's run.
        The places over x are the y in the run of norm(x).

        The trace is GF(p)-linear, so the traces of all y follow from
        the traces of the basis X^j; the norm of x is x^c.  The trace is
        onto GF(q), where every norm lies, so each norm's fibre has h
        points.  All of this is O(Q), where the places are O(Q h)."""
        ctx, Q = self.ctx, self.ctx.order
        traces = ctx.linear_map(
            [ctx.trace_rel(ctx.p ** j, self.q, self.r) for j in range(ctx.k)],
            np.arange(Q))
        norms = ctx.vpow(np.arange(Q), self.c)
        sizes = np.bincount(traces, minlength=Q)
        assert (sizes[norms] == self.h).all()
        return (norms, sizes, np.cumsum(sizes) - sizes,
                np.argsort(traces, kind="stable"))

    def _fibre(self, x: int) -> np.ndarray:
        """The y of the affine places over x, ascending."""
        norms, _, starts, by_trace = self._fibres
        start = starts[norms[x]]
        return by_trace[start:start + self.h]

    @cached_property
    def _by_trace_at(self) -> np.ndarray:
        """The position of each element in _fibres' by_trace."""
        by_trace = self._fibres[3]
        at = np.empty_like(by_trace)
        at[by_trace] = np.arange(len(by_trace))
        return at

    @property
    def norms(self) -> np.ndarray:
        """The norm x^c of every element x, from _fibres."""
        return self._fibres[0]

    def fibre_offsets(self, x, y) -> np.ndarray:
        """The offset of each y in the run of norm(x) in _fibres'
        by_trace, for index arrays x and y: it lies in 0..h-1 iff
        trace(y) = norm(x), and then (x, y) is place x h + offset of
        affine_xy, and the offset of y in _fibre(x).  Each lookup reads
        tables of Q entries."""
        norms, _, starts, _ = self._fibres
        return self._by_trace_at[y] - starts[norms[x]]

    @cached_property
    def affine_xy(self) -> tuple[np.ndarray, np.ndarray]:
        """x and y indices of the affine places, sorted by (x, y): each
        x's fibre expanded from _fibres."""
        norms, _, starts, by_trace = self._fibres
        ys = by_trace[(starts[norms][:, None] + np.arange(self.h)).ravel()]
        xs = np.repeat(np.arange(self.ctx.order), self.h)
        xs.flags.writeable = ys.flags.writeable = False
        return xs, ys

    @property
    def n_places(self) -> int:
        """The number of rational places, 1 + the sum over x of the size
        of the fibre of norm(x), counted without building them."""
        norms, sizes, _, _ = self._fibres
        return 1 + int(sizes[norms].sum())

    @cached_property
    def trace_zero(self) -> frozenset[int]:
        """Elements of trace zero: the translation parts of the group,
        which are the y of the places over x = 0."""
        return frozenset(self._fibre(0).tolist())

    def x_fiber(self, x: int) -> list[Place]:
        """Affine places with the given x coordinate, in canonical order."""
        if not 0 <= x < self.ctx.order:
            raise ValueError(f"x = {x} is not in GF({self.ctx.order})")
        return [Place(AFFINE, x, y) for y in self._fibre(x).tolist()]

    @cached_property
    def places(self) -> tuple[Place, ...]:
        """All q^{2r-1} + 1 rational places, infinity first."""
        xs, ys = self.affine_xy
        return (P_INFINITY,) + tuple([
            Place(AFFINE, x, y) for x, y in zip(xs.tolist(), ys.tolist())])

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

    # -- valuations --------------------------------------------------------

    def val_infinity(self, i: int, j: int) -> int:
        """Valuation at P_inf of the monomial x^i y^j."""
        return -(i * self.h + j * self.c)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, NormTraceCurve)
                and (self.q, self.r, self.ctx) == (other.q, other.r, other.ctx))

    def __hash__(self):
        return hash((self.q, self.r, self.ctx))

    def __repr__(self):
        return f"NormTraceCurve(q={self.q}, r={self.r}, genus={self.genus})"


def build_curve(q: int, r: int) -> NormTraceCurve:
    return NormTraceCurve(q, r)
