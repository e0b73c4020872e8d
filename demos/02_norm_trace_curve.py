#!/usr/bin/env python3
# The norm-trace curve N_{q,r}: rational places, the Omega/Theta split,
# principal divisors of the coordinates, and the Weierstrass semigroup
# at the place at infinity.

from normtrace import build_curve, semigroup_gaps, semigroup_nongaps
from normtrace.rrspace import basis_multipoint, basis_one_point

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

# x has a pole of order h at infinity and a simple zero at each place of
# Omega; y has a pole of order c at infinity and a zero of order c at
# the origin.  Both divisors have degree 0.
print("\n(x) = Divisor(%d*P_inf + %s)"
      % (-curve.h, " + ".join("1*%s" % P for P in curve.omega)))
print("(y) = Divisor(%d*P_inf + %d*P(0,0))" % (-curve.c, curve.c))

# The code divisors: G = 2 Omega puts weight ell = 2 on every zero of x,
# and D is the sum of the places of Theta.
print("\ndeg G =", 2 * len(curve.omega), " deg D =", len(curve.theta),
      " supports disjoint:", set(curve.omega).isdisjoint(curve.theta))

# The gap structure at infinity drives every dimension formula: the
# semigroup is generated by h = q^{r-1} and c = (q^r-1)/(q-1).
print("\nnon-gaps up to 2g:", semigroup_nongaps(curve, 2 * curve.genus))
gaps = semigroup_gaps(curve)
print("gaps:", gaps)
print("gap count equals genus:", len(gaps) == curve.genus)


# Monomial bases of the one-point and multi-point Riemann-Roch spaces: a
# basis is the array [i; j] of the exponents of x^i y^j, in pole order.
def monomials(basis):
    def power(sym, e):
        return "" if e == 0 else sym if e == 1 else f"{sym}^{e}"
    names = (power("x", i) + power("y", j) for i, j in basis.T.tolist())
    return "[" + ", ".join(name or "1" for name in names) + "]"


print("\nbasis of L(16 P_inf):", monomials(basis_one_point(curve, 16)))
print("basis of L(4 Omega):  ", monomials(basis_multipoint(curve, 4)))
