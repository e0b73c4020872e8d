import ast
import hashlib
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from normtrace.autgroup import enumerate_group
from normtrace.curve import build_curve
from normtrace.gf import BudgetExceeded, build_field
from normtrace.sepcurve import (HBound, MONOMIAL_CASE_I,
                                MONOMIAL_CASE_II, NON_MONOMIAL,
                                SearchFieldTooSmall,
                                SeparatedCurveSpec, assert_group, b_roots,
                                brute_force_stabilizer_search, checks,
                                classify, embed_field, genus,
                                h_bound_from_roots,
                                kernel_elements, linearization_gcd,
                                monomial_shift, mu_fixers, norm_trace_spec,
                                recommended_search_field, spec_from_dict,
                                to_standard_qm, validate)
from oracles import (AFFINE_IDENTITY, a_eval, a_values_by_eval, affine_apply,
                     affine_compose, affine_inverse, affine_tuples,
                     embedding_by_digits, spec_to_dict)

F2 = build_field(2, 1)
F5 = build_field(5, 1)


def spec_a422_b3():
    # p = 2, n = 2, A = Y^4 + Y^2 + Y, B = X^3
    return SeparatedCurveSpec(F2, {0: 1, 1: 1, 2: 1}, (0, 0, 0, 1))


def spec_a51_b3():
    # p = 5, n = 1, A = Y^5 + Y, B = X^3
    return SeparatedCurveSpec(F5, {0: 1, 1: 1}, (0, 0, 0, 1))


def test_sepcurve_imports_only_gf_and_poly():
    # so that a curve module may import sepcurve without a cycle
    # through codes
    import normtrace.sepcurve as sepcurve
    tree = ast.parse(Path(sepcurve.__file__).read_text())
    local = {node.module or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level
             for alias in node.names}
    assert local == {"gf", "poly"}


def test_validate_norm_trace():
    spec = norm_trace_spec(2, 3)
    validate(spec)
    assert spec.a_coeffs == {0: 1, 1: 1, 2: 1}
    assert spec.m == 7 and spec.n == 2


def test_validate_rejections():
    cases = [
        # m = 4
        (SeparatedCurveSpec(F2, {0: 1, 1: 1}, (0, 0, 0, 0, 1)), "divisible by p"),
        (SeparatedCurveSpec(F2, {0: 1, 1: 1}, (0, 1, 0, 0)), "b_m"),
        (SeparatedCurveSpec(F2, {1: 1, 2: 1}, (0, 0, 0, 1)), "a_0"),
        (SeparatedCurveSpec(F2, {0: 1, 1: 1}, (0, 0, 0, 1)), "degree"),  # 3
        (SeparatedCurveSpec(F5, {0: 1, 1: 1}, (1, 1)), ">= 2"),
        (SeparatedCurveSpec(F5, {0: 1}, (0, 0, 0, 1)), "n >= 1"),
    ]
    # classify reports the same errors as validate
    for check in (validate, classify):
        for spec, match in cases:
            with pytest.raises(ValueError, match=match):
                check(spec)


def test_classify_validates_once(monkeypatch, tmp_path, capsys):
    # and calls monomial_shift once
    import normtrace.sepcurve as sepcurve
    from normtrace.cli import main
    calls = []
    for name in ("validate", "monomial_shift"):
        real = getattr(sepcurve, name)
        monkeypatch.setattr(sepcurve, name, lambda spec, name=name, real=real:
                            calls.append((name, spec)) or real(spec))
    non_monomial = SeparatedCurveSpec(F2, {0: 1, 1: 1, 2: 1}, (0, 1, 0, 1))
    for spec in (spec_a422_b3(), spec_a51_b3(), non_monomial):
        calls.clear()
        classify(spec)
        assert calls == [("validate", spec), ("monomial_shift", spec)]
    # classify --search-field validates once too, and embeds the spec in
    # the search field once for both the search and its checks (a call
    # on a spec already over dst returns the spec itself)
    real_map = SeparatedCurveSpec.map_coefficients
    monkeypatch.setattr(SeparatedCurveSpec, "map_coefficients",
                        lambda spec, dst: calls.append(
                            ("map", spec.ctx.order, dst.order))
                        or real_map(spec, dst))
    path = tmp_path / "spec.json"
    for spec, field in ((spec_a422_b3(), 64), (spec_a51_b3(), 25),
                        (non_monomial, 64)):
        path.write_text(json.dumps(spec_to_dict(spec)))
        calls.clear()
        assert main(["classify", "--spec", str(path),
                     "--search-field", str(field)]) == 0
        assert "maps found" in capsys.readouterr().out
        names = [call[0] for call in calls]
        assert names.count("validate") == 1
        assert calls.count(("map", spec.ctx.order, field)) == 1


def test_additivity_holds_by_construction():
    # the A-representation only stores p-power exponents, so sampled
    # additivity must hold for any stored spec
    spec = spec_a422_b3().map_coefficients(build_field(2, 6))
    validate(spec)
    ctx = spec.ctx
    for u in range(0, 64, 7):
        for v in range(0, 64, 5):
            assert a_eval(spec, ctx.add(u, v)) == ctx.add(a_eval(spec, u),
                                                          a_eval(spec, v))


@pytest.mark.parametrize("p, k, a, b", [(2, 6, {0: 1, 2: 1}, (0, 0, 0, 1)),
                                        (3, 3, {0: 2, 1: 1}, (0, 0, 0, 0, 1)),
                                        (3, 8, {0: 1, 1: 1}, (1, 0, 0, 0, 1)),
                                        (2, 13, {0: 1, 2: 1}, (0, 0, 0, 1))])
def test_additivity_check_reads_arrays_and_has_teeth(p, k, a, b,
                                                     monkeypatch):
    # validate evaluates A on arrays: a_at equals the scalar oracle, a
    # host field above 2^12 needs no Q x Q table, and A + 1, which is
    # not additive, fails the check
    ctx = build_field(p, k)
    spec = SeparatedCurveSpec(ctx, a, b)
    assert validate(spec) is spec
    sample = np.random.default_rng(k).integers(ctx.order, size=64)
    assert spec.a_at(sample).tolist() == [a_eval(spec, int(w))
                                          for w in sample]
    at = SeparatedCurveSpec.a_at
    monkeypatch.setattr(SeparatedCurveSpec, "a_at",
                        lambda self, v: ctx.vadd_scalar(at(self, v), 1))
    with pytest.raises(AssertionError, match="additivity"):
        validate(spec)


def test_genus():
    assert genus(spec_a422_b3()) == 3                      # (4-1)(3-1)/2
    assert genus(spec_a51_b3()) == 4                       # (5-1)(3-1)/2
    f3 = build_field(3, 1)
    assert genus(SeparatedCurveSpec(f3, {0: 1, 1: 1}, (0, 0, 1))) == 1


def test_linearization_gcd():
    assert linearization_gcd(spec_a422_b3()) == 1          # gcd(1, 2)
    assert linearization_gcd(spec_a51_b3()) == 1
    assert linearization_gcd(norm_trace_spec(4, 3)) == 2   # gcd(2, 4), q = 4
    two_term = SeparatedCurveSpec(F2, {0: 1, 3: 1}, (0, 0, 0, 1))
    assert linearization_gcd(two_term) == 3


def test_mu_fixers_is_pd_subfield():
    f64 = build_field(2, 6)
    spec = spec_a422_b3().map_coefficients(f64)
    assert mu_fixers(spec) == [1]                          # d = 1
    # p^2-linearized: A = Y^16 + Y over GF(16): fixers = GF(4)^*
    f16 = build_field(2, 4)
    spec2 = SeparatedCurveSpec(f16, {0: 1, 2: 1}, (0, 0, 0, 1))
    fix = mu_fixers(spec2)
    assert sorted(fix + [0]) == f16.subfield_indices(2)


def test_kernel_size_is_pn():
    # A separable: exactly p^n roots in the splitting field
    f = recommended_search_field(spec_a422_b3())
    assert len(kernel_elements(spec_a422_b3(), f)) == 4
    f5 = recommended_search_field(spec_a51_b3())
    assert len(kernel_elements(spec_a51_b3(), f5)) == 5


def test_monomial_shift():
    assert monomial_shift(spec_a422_b3()) == 0
    assert monomial_shift(SeparatedCurveSpec(F5, {0: 1, 1: 1},
                                             (1, 3, 3, 1))) == 1  # (X+1)^3
    assert monomial_shift(SeparatedCurveSpec(F2, {0: 1, 1: 1, 2: 1},
                                             (0, 1, 0, 1))) is None


def test_classify_case_ii():
    res = classify(spec_a422_b3())
    assert res.case == MONOMIAL_CASE_II
    assert res.d == 1
    assert res.predicted_full_order == 4 * 3 * 1 == 12
    assert res.predicted_stabilizer_order == 12
    kinds = {g.kind: g.count for g in res.generators}
    assert kinds == {"translation": 4, "scaling": 3}


def test_classify_case_i():
    res = classify(spec_a51_b3())
    assert res.case == MONOMIAL_CASE_I
    # m * |PGL(2, 5)| = 3 * 120 = 360; stabilizer = 360 / (p^n + 1)
    assert res.predicted_full_order == 360
    assert res.predicted_stabilizer_order == 60
    assert res.notes


def test_classify_rejects_out_of_scope():
    for spec in [
        # m = 5 is 1 mod p^n = 4, B = X^5 with one root
        SeparatedCurveSpec(F2, {0: 1, 2: 1}, (0, 0, 0, 0, 0, 1)),
        # m = 5 is 1 mod p^n = 2, B = X^5 + X^3 + X^2 with several roots
        SeparatedCurveSpec(F2, {0: 1, 1: 1}, (0, 0, 1, 1, 0, 1)),
    ]:
        with pytest.raises(ValueError, match="m = 5 is 1 mod p\\^n = "
                                             f"{spec.p ** spec.n}: outside"):
            classify(spec)


def test_classify_norm_trace_matches_group_order():
    for q, r in [(2, 3), (3, 3), (2, 4)]:
        res = classify(norm_trace_spec(q, r))
        assert res.case == MONOMIAL_CASE_II
        want = q ** (r - 1) * (q ** r - 1)
        assert res.predicted_full_order == want
        assert res.predicted_full_order == len(enumerate_group(build_curve(q, r)))


def test_search_on_norm_trace_spec_reproduces_group():
    # the generic stabilizer search over GF(q^r) itself must find the
    # very same maps the dedicated group enumeration produces
    cv = build_curve(2, 3)
    spec = norm_trace_spec(2, 3, cv.ctx)
    maps = brute_force_stabilizer_search(spec, cv.ctx)
    assert len(maps) == 28
    assert (maps.a == 1).all() and (maps.c0 == 0).all()  # b^c = 1 in GF(8)*
    assert not maps.q[:, 1:].any()                      # y -> y + constant
    found = set(zip(maps.q[:, 0].tolist(), maps.b.tolist()))
    grp = {(g.a, g.b) for g in enumerate_group(cv)}
    assert found == grp


def passing(spec, maps, result=None):
    """The names of the records that pass on maps, and those that fail."""
    records = checks(spec, result or classify(spec), maps)
    return ([nm for nm, ok, _ in records if ok],
            [nm for nm, ok, _ in records if not ok])


def test_search_case_ii_gf64():
    maps = brute_force_stabilizer_search(spec_a422_b3(), build_field(2, 6))
    assert len(maps) == 12
    assert affine_tuples(maps).count(AFFINE_IDENTITY) == 1
    assert passing(spec_a422_b3(), maps) == (
        ["translations", "stabilizer order", "scaling law"], [])


def test_search_case_i_gf25():
    maps = brute_force_stabilizer_search(spec_a51_b3(), build_field(5, 2))
    assert len(maps) == 60
    assert passing(spec_a51_b3(), maps)[1] == []


def test_search_respects_budget():
    with pytest.raises(BudgetExceeded):
        brute_force_stabilizer_search(spec_a422_b3(), build_field(2, 6),
                                      budget=100)


def test_search_non_monomial_b():
    f64 = build_field(2, 6)
    for b_coeffs in [(0, 1, 0, 1), (0, 0, 1, 1)]:  # X^3 + X, X^3 + X^2
        spec = SeparatedCurveSpec(F2, {0: 1, 1: 1, 2: 1}, b_coeffs)
        maps = brute_force_stabilizer_search(spec, f64)
        h_order = len(maps) // 4  # p-part is the p^n translations
        assert len(maps) == 4 and h_order == 1
        assert h_order < 3  # strictly below m (p^d - 1)
        assert passing(spec, maps) == (
            ["translations", "|H| divides one of [2, 1]"], [])


def test_group_structure_of_search_results():
    ctx = build_field(5, 2)
    maps = affine_tuples(brute_force_stabilizer_search(spec_a51_b3(), ctx))
    elems = set(maps)
    assert all(affine_inverse(ctx, s) in elems for s in maps)
    for s1 in maps[:10]:
        for s2 in maps[:10]:
            assert affine_compose(ctx, s1, s2) in elems
    # apply/compose consistency on sample points
    for s1 in maps[:5]:
        for s2 in maps[:5]:
            both = affine_compose(ctx, s1, s2)
            for x in range(0, 25, 7):
                for y in range(0, 25, 6):
                    assert (affine_apply(ctx, both, x, y)
                            == affine_apply(ctx, s1,
                                            *affine_apply(ctx, s2, x, y)))


def test_assert_group_detects_doctored_sets():
    maps = brute_force_stabilizer_search(spec_a422_b3(), build_field(2, 6))
    with pytest.raises(SearchFieldTooSmall):
        assert_group(maps[1:])   # drop the identity


def test_each_record_rejects_its_doctored_input():
    # case (ii): 12 maps over GF(64), 4 of them translations
    spec = spec_a422_b3()
    f64 = build_field(2, 6)
    maps = brute_force_stabilizer_search(spec, f64)
    s = np.arange(len(maps)) == np.flatnonzero(maps.b != 1)[0]
    assert passing(spec, maps[~s])[1] == ["stabilizer order"]
    # b with b^3 != 1 breaks b^m = a in mu_fixers = {1}
    b = next(b for b in f64.nonzero() if f64.pow(b, 3) != 1)
    doctored = replace(maps, b=np.where(s, b, maps.b))
    assert passing(spec, doctored)[1] == ["scaling law"]
    # several roots: X^3 + X over GF(64) has only its 4 translations
    spec = SeparatedCurveSpec(F2, {0: 1, 1: 1, 2: 1}, (0, 1, 0, 1))
    maps = brute_force_stabilizer_search(spec, f64)
    assert passing(spec, maps[1:])[1] == ["translations"]
    # X^5 + X^3 over GF(81): |H| = 2 divides 2 of [3, 2], and no divisor
    # of [3, 5]
    spec = SeparatedCurveSpec(build_field(3, 1), {0: 1, 1: 1},
                              (0, 0, 0, 1, 0, 1))
    maps = brute_force_stabilizer_search(spec, build_field(3, 4))
    result = classify(spec)
    assert result.h_bound.divisors == (3, 2) and len(maps) == 6
    assert passing(spec, maps, result)[1] == []
    result = replace(result, h_bound=HBound(result.h_bound.kind, (3, 5)))
    assert passing(spec, maps, result) == (["translations"],
                                           ["|H| divides one of [3, 5]"])


def test_h_bound_examples():
    # literal unique-multiple-root case: X^3 (X + 1) over GF(4); note the
    # degree is 0 mod p, so this exercises the root helper on its own
    f4 = build_field(2, 2)
    spec = SeparatedCurveSpec(f4, {0: 1, 1: 1, 2: 1}, (0, 0, 0, 1, 1))
    hb = h_bound_from_roots(spec)
    assert hb.kind == "unique-multiple-root"
    assert hb.divisors == (3, 2)
    # all roots of one multiplicity M > 1: X^2 (X + 1)^2 over GF(3)
    f3 = build_field(3, 1)
    spec2 = SeparatedCurveSpec(f3, {0: 1, 1: 1}, (0, 0, 1, 2, 1))
    hb2 = h_bound_from_roots(spec2)
    assert hb2.kind == "all-equal-multiplicity"
    assert hb2.divisors == (1,)
    # monomial B keeps the classification order m (p^d - 1)
    hb3 = h_bound_from_roots(spec_a422_b3())
    assert hb3.kind == "monomial"
    assert hb3.divisors == (3,)


def test_b_roots_multiplicities():
    f4 = build_field(2, 2)
    spec = SeparatedCurveSpec(f4, {0: 1, 1: 1, 2: 1}, (0, 0, 0, 1, 1))
    field, roots = b_roots(spec)
    assert sorted(m for _, m in roots) == [1, 3]
    assert sum(m for _, m in roots) == 4


def test_classify_general_non_monomial():
    spec = SeparatedCurveSpec(F2, {0: 1, 1: 1, 2: 1}, (0, 1, 0, 1))
    res = classify(spec)
    assert res.case == NON_MONOMIAL
    assert res.predicted_full_order is None
    assert res.predicted_stabilizer_order == 4
    assert res.h_bound is not None


def test_embedding_is_homomorphism():
    f4 = build_field(2, 2)
    f16 = build_field(2, 4)
    emb = embed_field(f4, f16)
    assert len(set(emb)) == 4
    for a in range(4):
        for b in range(4):
            assert emb[f4.add(a, b)] == f16.add(emb[a], emb[b])
            assert emb[f4.mul(a, b)] == f16.mul(emb[a], emb[b])
    with pytest.raises(ValueError):
        embed_field(f4, build_field(2, 3))
    with pytest.raises(ValueError):
        embed_field(f4, build_field(3, 2))


def test_extensions_above_the_field_limit_are_refused():
    # X^3 + X + 1 splits over GF(8), so over GF(2^11) only GF(2^33) holds
    # its roots; GF(2^22), the first extension tried, is already too big
    spec = SeparatedCurveSpec(build_field(2, 11), {0: 1, 2: 1}, (1, 1, 0, 1))
    with pytest.raises(ValueError, match="field order 2\\^22 exceeds limit"):
        b_roots(spec)


def test_b_roots_builds_only_the_splitting_field(monkeypatch):
    # B = (X^4 + X + 2)(X^7 + X^2 + 2) over GF(3) splits only over
    # GF(3^28): whether B splits in GF(3^t) is decided in GF(3), so the
    # search reaches the limit at t = 13 without building any extension
    import normtrace.sepcurve as sepcurve
    built = []
    real = sepcurve.build_field
    monkeypatch.setattr(sepcurve, "build_field",
                        lambda p, k: built.append((p, k)) or real(p, k))
    spec = SeparatedCurveSpec(build_field(3, 1), {0: 1, 1: 1},
                              (1, 2, 2, 1, 2, 0, 1, 2, 1, 0, 0, 1))
    with pytest.raises(ValueError,
                       match="field order 3\\^13 exceeds limit 1048576"):
        classify(spec)
    assert built == []
    # where B splits, that field alone is built: X^3 + X + 1 over GF(8)
    spec = SeparatedCurveSpec(F2, {0: 1, 2: 1}, (1, 1, 0, 1))
    field, roots = b_roots(spec)
    assert built == [(2, 3)] and field.order == 8
    assert sorted(m for _, m in roots) == [1, 1, 1]


def test_unity_search_stops_at_the_field_limit():
    # the 67th roots of unity need GF(2^66), as 2 has order 66 mod 67
    spec = SeparatedCurveSpec(F2, {0: 1, 1: 1}, (0,) * 67 + (1,))
    with pytest.raises(ValueError, match="field order 2\\^21 exceeds limit"):
        recommended_search_field(spec)


def test_standardization_stops_at_the_field_limit():
    # delta^(2^11 - 1) = 2 has no solution in GF(2^11), where every
    # nonzero delta^2047 is 1, and GF(2^22) is too big to try
    spec = SeparatedCurveSpec(build_field(2, 11), {0: 1, 11: 2}, (0, 0, 0, 1))
    with pytest.raises(ValueError, match="field order 2\\^22 exceeds limit"):
        to_standard_qm(spec)


@pytest.mark.parametrize("src, dst", [((2, 1), (2, 12)), ((2, 2), (2, 4)),
                                      ((5, 1), (5, 4)), ((3, 1), (3, 6)),
                                      ((7, 1), (7, 3)), ((2, 1), (2, 2)),
                                      ((2, 3), (2, 12)), ((3, 2), (3, 6)),
                                      ((3, 3), (3, 6)), ((5, 2), (5, 4)),
                                      ((13, 1), (13, 2))])
def test_embedding_equals_digit_oracle(src, dst):
    src, dst = build_field(*src), build_field(*dst)
    assert embed_field(src, dst) == embedding_by_digits(src, dst)


def test_embedding_into_the_largest_field_reads_only_the_subfield(
        refuse_scalar_methods):
    # the table as the scan over all of GF(2^20) gave it, one element at
    # a time, in about 1 s of CPU; no scalar method of GF(2^20) may run
    src, dst = build_field(2, 4), build_field(2, 20)
    refuse_scalar_methods(dst)
    start = time.process_time()
    table = embed_field(src, dst)
    assert time.process_time() - start < 0.25
    assert hashlib.sha256(np.asarray(table, dtype="<i8").tobytes()).hexdigest() \
        == "e6530edc2a2d1aad171f126b50ab96899ef8afcefb26d8ef42b0e07ee001b812"


@pytest.mark.parametrize("p, k, a", [(2, 6, {0: 7, 1: 1, 2: 33}),
                                     (2, 12, {0: 1, 2: 100, 5: 4000}),
                                     (5, 2, {0: 3, 1: 1}),
                                     (5, 4, {0: 2, 1: 17, 3: 1})])
def test_a_values_equal_scalar_evaluation(p, k, a):
    spec = SeparatedCurveSpec(build_field(p, k), a, (0, 0, 0, 1))
    want = a_values_by_eval(spec)
    assert spec.a_values().tolist() == want
    assert kernel_elements(spec) == [w for w, v in enumerate(want) if v == 0]


def test_recommended_search_field():
    # kernel of Y^4 + Y^2 + Y = Y (Y^3 + Y + 1) needs GF(8); the cube
    # roots of unity need GF(4); the compositum is GF(64)
    f = recommended_search_field(spec_a422_b3())
    assert f.order == 64
    maps = brute_force_stabilizer_search(spec_a422_b3(), f)
    assert len(maps) == 12
    f5 = recommended_search_field(spec_a51_b3())
    assert f5.order == 25
    # case (i) uses the m (p^n - 1)-th roots of unity: 12 | 25 - 1
    assert (f5.order - 1) % 12 == 0


def test_to_standard_qm_trivial():
    f25 = build_field(5, 2)
    std = to_standard_qm(spec_a51_b3().map_coefficients(f25))
    assert (std.gamma, std.delta, std.shift) == (1, 1, 0)
    assert std.extension_degree == 1


def test_to_standard_qm_scaled():
    # X^3 = 2 Y^5 + 2 Y over GF(25)
    f25 = build_field(5, 2)
    spec = SeparatedCurveSpec(f25, {0: 2, 1: 2}, (0, 0, 0, 1))
    std = to_standard_qm(spec)
    E = std.field
    # constants satisfy the two scaling constraints
    k = E.div(E.pow(std.gamma, 3), 1)
    assert E.pow(std.delta, 5) == E.mul(k, 2)
    assert std.delta == E.mul(k, 2)


def test_to_standard_qm_recentred():
    # (X + 1)^3 = Y^5 + Y: the shift must remove the translation exactly
    spec = SeparatedCurveSpec(F5, {0: 1, 1: 1}, (1, 3, 3, 1))
    std = to_standard_qm(spec)
    assert std.shift == 1


def test_to_standard_qm_rejections():
    with pytest.raises(ValueError, match="two-term"):
        to_standard_qm(spec_a422_b3())
    with pytest.raises(ValueError, match="b_m"):
        to_standard_qm(SeparatedCurveSpec(F5, {0: 1, 1: 1}, (0, 1, 0, 1)))


def test_spec_serialization_roundtrip():
    spec = spec_a422_b3()
    rec = spec_to_dict(spec)
    assert rec["A"] == [{"j": 0, "a_j_index": 1}, {"j": 1, "a_j_index": 1},
                        {"j": 2, "a_j_index": 1}]
    again = spec_from_dict(rec)
    assert again.a_coeffs == spec.a_coeffs
    assert again.b_coeffs == spec.b_coeffs
    assert again.ctx == spec.ctx
    rec["p"] = 3
    with pytest.raises(ValueError):
        spec_from_dict(rec)
