#!/usr/bin/env python3
# The automorphism group of N_{2,3} (order q^{r-1}(q^r-1) = 28), its
# orbit structure on the rational places, and how the full group,
# Frobenius twists, and scalars act on the ell = 2 code.

from normtrace import (build_code, build_curve, enumerate_group,
                       is_code_automorphism, short_orbits)
from normtrace.autgroup import CodeAut, compose, identity_aut, inverse, orbits

curve = build_curve(2, 3)
group = enumerate_group(curve)
print("group order:", len(group), "= q^(r-1) (q^r - 1)")

# Elements are pairs (a, b): (x, y) -> (b x, b^c y + a), trace(a) = 0.
translations = [s for s in group if s.b == 1]
scalings = [s for s in group if s.a == 0]
print("translations (normal subgroup):", len(translations))
print("scalings (cyclic complement):", len(scalings))

s = group[5]
print("\nsample element a=%d b=%d; inverse composes to identity:" % (s.a, s.b),
      compose(s, inverse(s)).is_identity)

# Exactly two short orbits: the fixed place at infinity and Omega.
print("\nshort orbits:", [len(o) for o in short_orbits(curve)],
      "(P_inf alone, then the zeros of x)")
P = curve.theta[3]
print("a Theta place has full orbit:",
      len(next(orb for orb in orbits(curve) if P in orb)))

# Every combination (curve automorphism, Frobenius power, scalar)
# preserves the code: 28 * 3 * 7 = 588 code automorphisms.
code = build_code(curve, 2)
ident = identity_aut(curve)
count = sum(is_code_automorphism(code, CodeAut(s, frob=e, scalar=sc))
            for s in group for e in range(3) for sc in curve.ctx.nonzero())
print("\ncode automorphisms verified:", count, "of", 28 * 3 * 7)
