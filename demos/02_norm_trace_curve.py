#!/usr/bin/env python3
# The norm-trace curve N_{q,r}: rational places, the Omega/Theta split,
# principal divisors of the coordinates, and the Weierstrass semigroup
# at the place at infinity.

from normtrace import build_curve, semigroup_gaps, semigroup_nongaps
from normtrace.rrspace import MonomialTerm, basis_multipoint, basis_one_point

curve = build_curve(2, 3)
print(curve)
print("equation: x^%d = y^%d + y^%d + y over GF(%d)"
      % (curve.c, curve.q ** 2, curve.q, curve.q ** curve.r))

places = curve.places
print("\nrational places:", len(places), "= q^(2r-1) + 1")
print("first few:", list(places[:6]))

# Omega = zeros of x (a single trace fiber); Theta = everything else,
# the evaluation set of the codes.
print("\nOmega:", list(curve.omega))
print("|Theta| =", len(curve.theta), "(includes P_inf)")

print("\n(x) =", curve.principal_divisor_x())
print("(y) =", curve.principal_divisor_y())

# The code divisors: G puts weight ell on every zero of x.
G = curve.divisor_G(2)
D = curve.divisor_D()
print("\ndeg G =", G.degree, " deg D =", D.degree,
      " supports disjoint:", set(G.support()).isdisjoint(D.support()))

# The gap structure at infinity drives every dimension formula: the
# semigroup is generated by h = q^{r-1} and c = (q^r-1)/(q-1).
print("\nnon-gaps up to 2g:", semigroup_nongaps(curve, 2 * curve.genus))
gaps = semigroup_gaps(curve)
print("gaps:", gaps)
print("gap count equals genus:", len(gaps) == curve.genus)


# Monomial bases of the one-point and multi-point Riemann-Roch spaces: a
# basis is the array [i; j] of the exponents of x^i y^j, in pole order.
def monomials(basis):
    return [MonomialTerm(i, j) for i, j in basis.T.tolist()]


print("\nbasis of L(16 P_inf):", monomials(basis_one_point(curve, 16)))
print("basis of L(4 Omega):  ", monomials(basis_multipoint(curve, 4)))
