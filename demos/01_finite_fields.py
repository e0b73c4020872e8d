#!/usr/bin/env python3
# Tour of the exact finite-field layer: canonical moduli, log/exp
# arithmetic, and the relative norm and trace maps that define the
# norm-trace curve.  Elements are integer indices, and every operation
# is a method of the field (scalar here; the v* methods take arrays).

from normtrace import build_field

# Fields are built from (p, k); the modulus defaults to the monic
# irreducible polynomial of degree k with the smallest base-p encoding,
# so every element index is reproducible.
f8 = build_field(2, 3)
print("GF(8) modulus (low to high):", list(f8.modulus))   # X^3 + X + 1
print("generator index:", f8.generator)

g = f8.generator
print("powers of g:", [f8.pow(g, i) for i in range(8)])
print("g^3 = g + 1:", f8.pow(g, 3) == f8.add(g, 1))

# The relative trace GF(q^r) -> GF(q) is the right-hand side of the
# norm-trace equation; its zero fiber gives the places over x = 0.
print("\ntrace values over GF(2):",
      [f8.trace_rel(a, 2, 3) for a in f8.elements()])
kernel = [a for a in f8.elements() if f8.trace_rel(a, 2, 3) == 0]
print("trace-zero elements:", kernel, "(count = q^{r-1} = 4)")

# The relative norm is x -> x^((q^r-1)/(q-1)); on GF(8)* it collapses
# onto GF(2)* = {1}.
print("norms:", [f8.norm_rel(a, 2, 3) for a in f8.nonzero()])

# Frobenius powers generate the field automorphisms used by the code
# automorphism group later on.
print("\nfrobenius orbit of g:",
      [f8.frobenius(g, e) for e in range(4)])

# Subfields are fixed sets of Frobenius powers.
f64 = build_field(2, 6)
print("\nGF(4) inside GF(64):", f64.subfield_indices(2))

# Everything serializes to plain integers.
print("\nfield record:", f8.to_dict())
