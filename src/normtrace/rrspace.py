"""Riemann-Roch spaces at the place at infinity of the norm-trace curve.

The Weierstrass semigroup at P_inf is generated by h = q^{r-1} and
c = (q^r - 1)/(q - 1), which are coprime.  Monomials x^i y^j with
0 <= j < h have pairwise distinct pole orders i*h + j*c at P_inf and
span the one-point spaces L(s * P_inf); dividing by x^ell turns the
one-point basis into a basis of L(ell * Omega) with poles only at the
zeros of x.  A basis is the read-only (2, k) int64 array [i; j] of its
exponents in pole order (basis_one_point, basis_multipoint), read off
the semigroup's non-gaps; the codes gather, prove and report from it.

Evaluation at P_inf uses a closed valuation rule (at_infinity): a
monomial x^i y^j with i*h + j*c = 0 is an integer power of x^c y^{-h},
which equals 1 + (terms of positive valuation) on the curve, hence
takes the value 1 at P_inf; monomials of positive valuation vanish
there.  No formal local expansions are needed.  evaluate forms the
word of a linear combination of monomials over Theta on arrays.
"""

from __future__ import annotations

import numpy as np

from .curve import NormTraceCurve


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

def at_infinity(curve: NormTraceCurve, i, j, n_inf: int = 0) -> np.ndarray:
    """The P_inf entries of the monomials t^{n_inf} x^i y^j, t a local
    parameter there, as a bool array: True for the entry 1, at valuation
    n_inf - (i*h + j*c) = 0, and False for 0, at positive valuation.  It
    reads False at a pole (negative valuation), which evaluate refuses
    and no code basis holds."""
    return n_inf + curve.val_infinity(i, j) == 0


def evaluate(curve: NormTraceCurve, coeffs, terms) -> np.ndarray:
    """The int64 word of sum_r coeffs[r] x^i y^j, (i, j) = terms[:, r],
    over Theta in the column layout of curve.theta_coords.

    terms is a (2, t) exponent array [i; j] laid out as by
    basis_one_point, with any signs; coeffs holds t element indices.
    P_inf takes the valuation rule of at_infinity: the sum of the
    coefficients of the terms of valuation 0.  ValueError if a term has
    a pole at P_inf.  x and y are nonzero on Theta (y = 0 forces
    norm(x) = trace(y) = 0), so no affine place is a pole.

    The terms that share a y-exponent j sum to f_j(x) y^j.  f_j is
    formed at the Q - 1 nonzero x, x = g^l at entry l, then gathered
    once at every place by log x and multiplied by y^j: O(t Q + n d)
    for n places and d distinct j, so the witness (j = 0 throughout)
    costs O(t Q + n), not O(t n)."""
    i, j = np.asarray(terms)
    pole = np.flatnonzero(curve.val_infinity(i, j) < 0)
    if pole.size:
        r = pole[0]
        raise ValueError(f"x^{i[r]} y^{j[r]} has a pole at P_inf")
    ctx = curve.ctx
    _, xs, ys = curve.theta_coords
    coeffs = np.asarray(coeffs)
    word = np.zeros(len(xs) + 1, dtype=np.int64)
    for coeff in coeffs[at_infinity(curve, i, j)].tolist():
        word[0] = ctx.add(int(word[0]), coeff)
    n = ctx.order - 1
    logs = np.arange(n)
    log_xs = ctx.log_np[xs]
    for tj in np.unique(j).tolist():
        share = j == tj
        f = np.zeros(n, dtype=np.int64)
        for log_c, ti in zip(ctx.log_np[coeffs[share]].tolist(),
                             i[share].tolist()):
            # c g^(l ti); a zero c's slot reads exp's zero tail
            f = ctx.vadd(f, ctx.exp_np[logs * ti % n + log_c])
        word[1:] = ctx.vadd(word[1:], ctx.vmul(f[log_xs], ctx.vpow(ys, tj)))
    return word
