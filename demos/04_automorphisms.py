#!/usr/bin/env python3
# The automorphism group of N_{2,3} (order q^{r-1}(q^r-1) = 28), its
# orbit structure on the rational places, and how the full group,
# Frobenius twists, and scalars act on the ell = 2 code.

import numpy as np

from normtrace import (build_code, build_curve, enumerate_group,
                       is_code_automorphism, short_orbits)
from normtrace.autgroup import CodeAut, ab_inverse, ab_product, fixed_places

curve = build_curve(2, 3)
group = enumerate_group(curve)
print("group order:", len(group), "= q^(r-1) (q^r - 1)")

# Elements are pairs (a, b): (x, y) -> (b x, b^c y + a), trace(a) = 0.
translations = [s for s in group if s.b == 1]
scalings = [s for s in group if s.a == 0]
print("translations (normal subgroup):", len(translations))
print("scalings (cyclic complement):", len(scalings))

# The group law on (a, b) arrays: (a1, b1) after (a2, b2) is
# (a1 + b1^c a2, b1 b2), and (a, b) has the inverse (-b^-c a, b^-1).
s = group[5]
ab = np.array([[s.a], [s.b]])
one = ab_product(curve, *ab, *ab_inverse(curve, *ab))
print("\nsample element a=%d b=%d; inverse composes to identity:" % (s.a, s.b),
      one.ravel().tolist() == [0, 1])

# Exactly two short orbits: the fixed place at infinity and Omega.
print("\nshort orbits:", [len(o) for o in short_orbits(curve)],
      "(P_inf alone, then the zeros of x)")
# By orbit-stabilizer, a place's orbit has |G| / |stabilizer| places.
P = curve.theta[3]
print("a Theta place has full orbit:",
      len(group) // sum(P in fixed_places(s) for s in group))

# Every combination (curve automorphism, Frobenius power, scalar)
# preserves the code: 28 * 3 * 7 = 588 code automorphisms.
code = build_code(curve, 2)
count = sum(is_code_automorphism(code, CodeAut(s, frob=e, scalar=sc))
            for s in group for e in range(3) for sc in curve.ctx.nonzero())
print("\ncode automorphisms verified:", count, "of", 28 * 3 * 7)
