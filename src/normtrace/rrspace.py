"""Riemann-Roch spaces at the place at infinity of the norm-trace curve.

The Weierstrass semigroup at P_inf is generated by h = q^{r-1} and
c = (q^r - 1)/(q - 1), which are coprime.  Monomials x^i y^j with
0 <= j < h have pairwise distinct pole orders i*h + j*c at P_inf and
span the one-point spaces L(s * P_inf); dividing by x^ell turns the
one-point basis into a basis of L(ell * Omega) with poles only at the
zeros of x.  A basis is the read-only (2, k) int64 array [i; j] of its
exponents in pole order (basis_one_point, basis_multipoint), read off
the semigroup's non-gaps; the codes gather, prove and report from it.

Evaluation at P_inf uses a closed valuation rule: a monomial x^i y^j
with i*h + j*c = 0 is an integer power of x^c y^{-h}, which equals
1 + (terms of positive valuation) on the curve, hence takes the value 1
at P_inf; monomials of positive valuation vanish there.  No formal
local expansions are needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve import NormTraceCurve, Place


class PoleError(ValueError):
    """Raised when a function is evaluated at one of its poles."""


@dataclass(frozen=True)
class MonomialTerm:
    """The monomial x^i y^j, a term of a FunctionElem; formal products
    (local-parameter powers) may carry any integer exponents."""

    i: int
    j: int

    def __repr__(self):
        def fmt(sym, e):
            if e == 0:
                return ""
            return sym if e == 1 else f"{sym}^{e}"
        body = fmt("x", self.i) + fmt("y", self.j)
        return body if body else "1"


def mul_terms(a: MonomialTerm, b: MonomialTerm) -> MonomialTerm:
    return MonomialTerm(a.i + b.i, a.j + b.j)


class FunctionElem:
    """A linear combination of monomials x^i y^j with nonzero field
    coefficients, terms pairwise distinct and sorted by pole order."""

    def __init__(self, curve: NormTraceCurve, terms):
        self.curve = curve
        merged: dict[MonomialTerm, int] = {}
        for coeff, term in terms:
            if coeff:
                prev = merged.get(term, 0)
                s = curve.ctx.add(prev, coeff)
                if s:
                    merged[term] = s
                elif term in merged:
                    del merged[term]
        self.terms = tuple(sorted(
            ((c, t) for t, c in merged.items()),
            key=lambda ct: (-curve.val_infinity(ct[1].i, ct[1].j),
                            ct[1].i, ct[1].j)))

    def is_zero(self) -> bool:
        return not self.terms

    def mul_term(self, term: MonomialTerm, coeff: int = 1) -> "FunctionElem":
        ctx = self.curve.ctx
        return FunctionElem(self.curve,
                            [(ctx.mul(coeff, c), mul_terms(t, term))
                             for c, t in self.terms])

    def __add__(self, other: "FunctionElem") -> "FunctionElem":
        return FunctionElem(self.curve, list(self.terms) + list(other.terms))

    def __repr__(self):
        if not self.terms:
            return "f(0)"
        return "f(" + " + ".join(f"{c}*{t}" for c, t in self.terms) + ")"

    def to_dict(self) -> list:
        return [{"coefficient_index": c, "i": t.i, "j": t.j}
                for c, t in self.terms]


def monomial(curve: NormTraceCurve, coeff: int, i: int, j: int) -> FunctionElem:
    return FunctionElem(curve, [(coeff, MonomialTerm(i, j))])


def constant_one(curve: NormTraceCurve) -> FunctionElem:
    return monomial(curve, 1, 0, 0)


# ----------------------------------------------------------------------
# Weierstrass semigroup and monomial bases
# ----------------------------------------------------------------------

def _marked(curve: NormTraceCurve, bound: int) -> np.ndarray:
    """Entry v of the bool array is True iff v <= bound is a non-gap of
    <h, c>: as gcd(h, c) = 1, the progressions j*c + h*i for j < h."""
    if bound < 0:
        raise ValueError(f"bound {bound} must be >= 0")
    h, c = curve.h, curve.c
    marked = np.zeros(bound + 1, dtype=bool)
    for j in range(min(h - 1, bound // c) + 1):
        marked[j * c::h] = True
    return marked


def nongaps(curve: NormTraceCurve, bound: int) -> np.ndarray:
    """The non-gaps <= bound of <h, c>, ascending."""
    return np.flatnonzero(_marked(curve, bound))


def semigroup_nongaps(curve: NormTraceCurve, bound: int) -> list[int]:
    """Non-gaps a*h + b*c <= bound of the semigroup <h, c>, ascending."""
    return nongaps(curve, bound).tolist()


def semigroup_gaps(curve: NormTraceCurve) -> list[int]:
    """Gaps of <h, c>; there are exactly genus of them, all < 2g."""
    top = 2 * curve.genus
    return np.flatnonzero(~_marked(curve, top)[:top]).tolist()


def basis_one_point(curve: NormTraceCurve, s: int) -> np.ndarray:
    """Monomial basis of L(s * P_inf), x^i y^j with i >= 0, 0 <= j < h
    and pole order v = i*h + j*c <= s: a read-only (2, k) int64 array
    [i; j] in the order of v, the non-gaps <= s; j is v / c mod h."""
    h, c = curve.h, curve.c
    v = nongaps(curve, s)
    j = v * pow(c, -1, h) % h
    basis = np.stack([(v - j * c) // h, j])
    basis.flags.writeable = False
    return basis


def basis_multipoint(curve: NormTraceCurve, ell: int) -> np.ndarray:
    """Monomial basis of L(ell * Omega), laid out as by basis_one_point:
    the basis of L(ell*h * P_inf) divided by x^ell."""
    if ell < 1:
        raise ValueError(f"ell = {ell} must be >= 1")
    basis = basis_one_point(curve, ell * curve.h) - [[ell], [0]]
    basis.flags.writeable = False
    return basis


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------

def _eval_term_affine(curve: NormTraceCurve, term: MonomialTerm, P: Place) -> int:
    ctx = curve.ctx
    if P.x == 0 and term.i < 0:
        raise PoleError(f"{term} has a pole at {P}")
    if P.y == 0 and term.j < 0:
        raise PoleError(f"{term} has a pole at {P}")
    return ctx.mul(ctx.pow(P.x, term.i), ctx.pow(P.y, term.j))


def evaluate(f: FunctionElem, P: Place) -> int:
    """Value of f at the place P (an element index).

    At an affine place the coordinates are substituted term by term; a
    negative exponent at a vanishing coordinate is a pole.  At P_inf,
    terms of valuation 0 contribute their coefficient (they are powers
    of x^c y^{-h}, equal to 1 on the curve) and terms of positive
    valuation contribute 0; any term of negative valuation is a pole.
    """
    curve = f.curve
    ctx = curve.ctx
    out = 0
    if P.is_infinity:
        for coeff, term in f.terms:
            v = curve.val_infinity(term.i, term.j)
            if v < 0:
                raise PoleError(f"{term} has a pole at P_inf")
            if v == 0:
                out = ctx.add(out, coeff)
        return out
    for coeff, term in f.terms:
        out = ctx.add(out, ctx.mul(coeff, _eval_term_affine(curve, term, P)))
    return out
