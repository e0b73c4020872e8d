#!/usr/bin/env python3
# General separated-polynomial curves A(y) = B(x): classification of the
# automorphism group when B has one root, exhaustive stabilizer searches
# that confirm the predicted orders, and the bounds that apply when B
# has several roots.

from normtrace import (brute_force_stabilizer_search, build_field, classify,
                       h_bound_from_roots, linearization_gcd,
                       norm_trace_spec, poly, to_standard_qm)
from normtrace.sepcurve import SeparatedCurveSpec, recommended_search_field

F2 = build_field(2, 1)
F5 = build_field(5, 1)

# Case (ii): A = Y^4 + Y^2 + Y, B = X^3 over GF(2)-bar.  A is only
# p-linearized (d = gcd(1, 2) = 1), so the whole group is the
# p^n * m * (p^d - 1) = 12 affine maps fixing the infinite place.
spec = SeparatedCurveSpec(F2, {0: 1, 1: 1, 2: 1}, (0, 0, 0, 1))
res = classify(spec)
print("A=Y^4+Y^2+Y, B=X^3:", res.case, "d =", res.d,
      "predicted order", res.predicted_full_order)

field = recommended_search_field(spec)
print("recommended search field: GF(%d)" % field.order)
maps = brute_force_stabilizer_search(spec, field)
print("exhaustive search found", len(maps), "maps")
# Each map is a row of arrays: x -> b x + c0, y -> a y + Q(x), with Q's
# coefficients low to high in a zero-padded row of maps.q.
for a, b, c0, q in zip(*(col[:4].tolist() for col in
                         (maps.a, maps.b, maps.c0, maps.q))):
    print("   a=%d b=%d c0=%d Q=%s" % (a, b, c0, poly.trim(q)))

# Case (i): A = Y^5 + Y, B = X^3 over GF(5)-bar.  Here m = 3 divides
# p^n + 1 = 6 and A is two-term, so the curve is the small exceptional
# model whose full group strictly contains the stabilizer.
spec_i = SeparatedCurveSpec(F5, {0: 1, 1: 1}, (0, 0, 0, 1))
res_i = classify(spec_i)
print("\nA=Y^5+Y, B=X^3:", res_i.case)
print("predicted full order", res_i.predicted_full_order,
      " stabilizer", res_i.predicted_stabilizer_order)
maps_i = brute_force_stabilizer_search(spec_i, build_field(5, 2))
print("search over GF(25) finds the stabilizer:", len(maps_i), "maps")

# The same machinery on the norm-trace curve reproduces the dedicated
# group order q^{r-1}(q^r-1).
for q, r in [(2, 3), (3, 3)]:
    nt = norm_trace_spec(q, r)
    print(f"\nnorm-trace ({q},{r}): case (ii) order",
          classify(nt).predicted_full_order,
          " d =", linearization_gcd(nt))

# When B has several roots the group shrinks: the search finds only the
# p^n translations, consistent with the root-multiplicity bounds.
for b_coeffs, label in [((0, 1, 0, 1), "X^3+X"), ((0, 0, 1, 1), "X^3+X^2")]:
    spec_nm = SeparatedCurveSpec(F2, {0: 1, 1: 1, 2: 1}, b_coeffs)
    maps_nm = brute_force_stabilizer_search(spec_nm, build_field(2, 6))
    bound = h_bound_from_roots(spec_nm)
    print(f"\nB={label}: {len(maps_nm)} maps (translations only); "
          f"|H| = {len(maps_nm) // 4} divides one of {list(bound.divisors)}")

# Two-term curves with monomial B straighten onto X^m = Y^{p^n} + Y.
std = to_standard_qm(SeparatedCurveSpec(F5, {0: 1, 1: 1}, (1, 3, 3, 1)))
print("\n(X+1)^3 = Y^5 + Y standardizes with gamma=%d delta=%d shift=%d"
      % (std.gamma, std.delta, std.shift))
