"""Acceptance suite: every criterion is exact (integer equality); the
runtime limits are asserted with generous margins.  One line per
criterion is printed: run with `pytest -s tests/test_acceptance.py` (or
see captured output) for the pass/fail summary."""

import time
from contextlib import contextmanager

import numpy as np

from normtrace import autgroup, codes, linalg, sepcurve
from normtrace.curve import build_curve
from normtrace.gf import build_field
from normtrace.rrspace import semigroup_gaps
from oracles import lattice_dimension


@contextmanager
def criterion(num, title):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance {num:02d}] {title}: FAIL")
        raise
    print(f"[acceptance {num:02d}] {title}: PASS "
          f"({time.monotonic() - start:.1f}s)")


def test_c01_place_counts():
    with criterion(1, "place counts q^(2r-1)+1 for four curves, < 10 s"):
        start = time.monotonic()
        for (q, r), want in [((2, 3), 33), ((3, 3), 244),
                             ((2, 4), 129), ((4, 3), 1025)]:
            assert len(build_curve(q, r).places) == want
        assert time.monotonic() - start < 10


def test_c02_genus_and_gap_counts():
    with criterion(2, "genus values and semigroup gap counts"):
        for (q, r), g in [((2, 3), 9), ((3, 3), 48), ((2, 4), 49)]:
            cv = build_curve(q, r)
            assert cv.genus == g
            assert len(semigroup_gaps(cv)) == g


def test_c03_dimension_agreement():
    with criterion(3, "rank = closed form = lattice count for all ell, "
                      "three curves, all delta branches, < 2 min"):
        start = time.monotonic()
        branches_hit = set()
        for q, r in [(2, 3), (3, 3), (2, 4)]:
            cv = build_curve(q, r)
            for ell in range(1, q ** r - 1 + 1):
                want = lattice_dimension(q, r, ell)
                code = codes.build_code(cv, ell)
                rank = len(linalg.rref(cv.ctx, code.matrix)[1])
                formula = codes.dimension_closed_form(q, r, ell)
                assert rank == formula == want, (q, r, ell)
                if ell <= cv.c - 3:
                    rem = ell % q
                    branches_hit.add("zero" if rem == 0 else
                                     "q-1" if rem == q - 1 else "other")
        assert branches_hit == {"zero", "q-1", "other"}
        assert time.monotonic() - start < 120


def test_c04_designed_distance_attained():
    with criterion(4, "exhaustive min distance attains d* for (2,3), "
                      "ell 1..4 (8^9 words at ell=4), < 10 min"):
        start = time.monotonic()
        cv = build_curve(2, 3)
        for ell, want in [(1, 25), (2, 21), (3, 17)]:
            code = codes.build_code(cv, ell)
            assert code.d_star == want
            assert codes.min_distance_exhaustive(code, 8 ** 9) == want
        code4 = codes.build_code(cv, 4)
        assert code4.d_star == 13
        w = codes.witness_codeword(code4)
        assert int((w != 0).sum()) == 13
        assert code4.contains(w)
        # full enumeration of all 8^9 messages, no early stop
        assert codes.min_distance_exhaustive(code4, 8 ** 9) == 13
        assert time.monotonic() - start < 600


def test_c05_monomial_equivalence():
    with criterion(5, "multi-point = extended one-point code via the "
                      "explicit diagonal, ell 1..5"):
        cv = build_curve(2, 3)
        ctx = cv.ctx
        for ell in range(1, 6):
            ca = codes.build_code(cv, ell)
            cb = codes.extended_one_point_code(cv, ell)
            assert (ca.n, ca.k) == (cb.n, cb.k)
            found = codes.monomial_equivalence_check(ca, cb)
            assert found is not None
            diag = codes.equivalence_diagonal(cv, ell)
            assert np.array_equal(found, diag)
            for pos, P in enumerate(ca.curve.theta):
                if not P.is_infinity:
                    assert diag[pos] == ctx.pow(P.x, ell)
            scaled = ctx.vmul(ca.matrix, diag[None, :])
            assert np.array_equal(linalg.rref(ctx, scaled)[0],
                                  linalg.rref(ctx, cb.matrix)[0])


def test_c06_automorphism_group():
    with criterion(6, "group orders 28 and 234, closure, short orbits, "
                      "fixed-place bound"):
        # the records aut-verify prints: every pair of (2,3), 10,000
        # sampled triples of (3,3)
        for (q, r), order, closure in [
                ((2, 3), 28, "exhaustive"),
                ((3, 3), 234, "sampled 10000 triples")]:
            cv = build_curve(q, r)
            a, b = autgroup.group_arrays(cv)
            assert len(a) == len(autgroup.enumerate_group(cv)) == order
            checks, short = autgroup.group_checks(cv, a, b, seed=0)
            bound = cv.h + 1
            assert checks == [
                ("group order", True, f"{order} (expected {order})"),
                ("closure/associativity", True, closure),
                ("inverses", True, ""),
                ("short orbits", True, f"sizes [1, {cv.h}]"),
                (f"fixed places <= {bound}", True, f"max {bound}"),
            ]
            assert sorted(len(o) for o in short) == [1, cv.h]


def test_c07_code_invariance():
    with criterion(7, "(2,3) ell=2: 28 x 3 x 7 code automorphisms all "
                      "preserve the code, < 1 min"):
        start = time.monotonic()
        cv = build_curve(2, 3)
        code = codes.build_code(cv, 2)
        count = 0
        for s in autgroup.enumerate_group(cv):
            for e in range(3):
                for sc in cv.ctx.nonzero():
                    g = autgroup.CodeAut(s, frob=e, scalar=sc)
                    assert autgroup.is_code_automorphism(code, g)
                    count += 1
        assert count == 28 * 3 * 7
        assert time.monotonic() - start < 60


def test_c08_stabilizer_searches():
    with criterion(8, "stabilizer searches: 12 maps over GF(64), 60 over "
                      "GF(25), both groups"):
        f2 = build_field(2, 1)
        spec_ii = sepcurve.SeparatedCurveSpec(f2, {0: 1, 1: 1, 2: 1},
                                              (0, 0, 0, 1))
        maps_ii = sepcurve.brute_force_stabilizer_search(spec_ii,
                                                         build_field(2, 6))
        assert len(maps_ii) == 12 == 4 * 3 * (2 ** 1 - 1)

        f5 = build_field(5, 1)
        spec_i = sepcurve.SeparatedCurveSpec(f5, {0: 1, 1: 1}, (0, 0, 0, 1))
        maps_i = sepcurve.brute_force_stabilizer_search(spec_i,
                                                        build_field(5, 2))
        assert len(maps_i) == 60 == 5 * 3 * (5 - 1)

        # the search proves closure itself (sepcurve.assert_group)
        for spec, maps in ((spec_ii, maps_ii), (spec_i, maps_i)):
            records = sepcurve.checks(spec, sepcurve.classify(spec), maps)
            assert [nm for nm, ok, _ in records if ok] == [
                "translations", "stabilizer order", "scaling law"]


def test_c09_cross_formula_consistency():
    with criterion(9, "classification of norm-trace specs reproduces the "
                      "enumerated group orders"):
        for q, r in [(2, 3), (3, 3), (2, 4)]:
            spec = sepcurve.norm_trace_spec(q, r)
            res = sepcurve.classify(spec)
            assert res.case == sepcurve.MONOMIAL_CASE_II
            enumerated = len(autgroup.enumerate_group(build_curve(q, r)))
            assert res.predicted_full_order == enumerated
            assert res.predicted_full_order == q ** (r - 1) * (q ** r - 1)


def test_c10_non_monomial_contrapositive():
    with criterion(10, "non-monomial B: |H| strictly below m(p^d - 1) and "
                       "the root-multiplicity bounds hold"):
        f2 = build_field(2, 1)
        f64 = build_field(2, 6)
        for b_coeffs in [(0, 1, 0, 1), (0, 0, 1, 1)]:  # X^3+X, X^3+X^2
            spec = sepcurve.SeparatedCurveSpec(f2, {0: 1, 1: 1, 2: 1},
                                               b_coeffs)
            maps = sepcurve.brute_force_stabilizer_search(spec, f64)
            records = sepcurve.checks(spec, sepcurve.classify(spec), maps)
            assert all(ok for _, ok, _ in records), records  # |T| = p^n = 4
            # Not a check of sepcurve.checks: strictly below m(p^d - 1)
            # fails on valid specs whose B is a monomial once A(Q(X)) + c
            # is added (the B-normalization FOUND in CHANGES.md).
            d = sepcurve.linearization_gcd(spec)
            assert len(maps) // 4 < spec.m * (2 ** d - 1)
