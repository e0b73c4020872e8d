import dataclasses
import random

import numpy as np
import pytest

from normtrace import autgroup, linalg
from normtrace.autgroup import (CodeAut, CurveAut, apply_place, code_action,
                                code_checks, compose, enumerate_group,
                                fixed_places, group_checks,
                                identity_aut, inverse, is_code_automorphism,
                                orbits, short_orbits)
from normtrace.codes import build_code
from normtrace.curve import P_INFINITY, build_curve
from oracles import (closure_by_compositions, code_action_by_places,
                     fixed_places_by_places, frobenius_place)


def test_group_order(curve23, curve33):
    assert len(enumerate_group(curve23)) == 28
    assert len(enumerate_group(curve33)) == 234


def test_identity_present(curve23):
    group = enumerate_group(curve23)
    assert identity_aut(curve23) in group


def test_constructor_validates(curve23):
    with pytest.raises(ValueError):
        CurveAut(curve23, 0, 0)          # zero scaling
    bad_a = next(a for a in curve23.ctx.elements()
                 if curve23.ctx.trace_rel(a, 2, 3) != 0)
    with pytest.raises(ValueError):
        CurveAut(curve23, bad_a, 1)      # translation with nonzero trace
    # scalings outside GF(8) would only fail later, in is_code_automorphism
    for b in (-1, 8, 100):
        with pytest.raises(ValueError, match="nonzero element of GF\\(8\\)"):
            CurveAut(curve23, 0, b)


def test_closure_and_inverses_exhaustive(curve23):
    group = enumerate_group(curve23)
    elems = set(group)
    assert all(compose(s1, s2) in elems for s1 in group for s2 in group)
    assert all(inverse(s) in elems for s in group)
    for s in group:
        assert compose(s, inverse(s)).is_identity


def test_compose_matches_pointwise_action(curve23):
    rng = random.Random(5)
    group = enumerate_group(curve23)
    places = curve23.places
    for _ in range(100):
        s1, s2 = rng.choice(group), rng.choice(group)
        P = rng.choice(places)
        assert apply_place(compose(s1, s2), P) == apply_place(s1, apply_place(s2, P))


def test_conjugation_identity(curve23):
    # scaling b conjugates translation a to translation b^c a, trace-zero
    ctx = curve23.ctx
    zeros = [a for a in ctx.elements() if ctx.trace_rel(a, 2, 3) == 0]
    for b in ctx.nonzero():
        sc = CurveAut(curve23, 0, b)
        for a in zeros:
            conj = compose(compose(sc, CurveAut(curve23, a, 1)), inverse(sc))
            assert conj.b == 1
            assert conj.a == ctx.mul(ctx.pow(b, curve23.c), a)
            assert ctx.trace_rel(conj.a, 2, 3) == 0


def test_translations_have_order_p(curve23):
    for s in enumerate_group(curve23):
        if s.b == 1 and s.a != 0:
            assert compose(s, s).is_identity  # characteristic 2


def test_semidirect_structure(curve23):
    # translations form a normal subgroup of order h; quotient cyclic q^r-1
    group = enumerate_group(curve23)
    translations = {s for s in group if s.b == 1}
    assert len(translations) == curve23.h
    for s in group:
        for t in translations:
            assert compose(compose(s, t), inverse(s)) in translations
    # scalings alone form a cyclic complement of order q^r - 1
    scalings = [s for s in group if s.a == 0]
    assert len(scalings) == 2 ** 3 - 1


def test_apply_place(curve23):
    group = enumerate_group(curve23)
    for s in group:
        assert apply_place(s, P_INFINITY) is P_INFINITY
    omega = set(curve23.omega)
    theta = set(curve23.theta)
    for s in group[:10]:
        assert {apply_place(s, P) for P in omega} == omega
        assert {apply_place(s, P) for P in theta} == theta
        for P in curve23.places:
            img = apply_place(s, P)
            if not img.is_infinity:
                assert curve23.on_curve(img.x, img.y)


def test_translation_subgroup_regular_on_omega(curve23):
    translations = [s for s in enumerate_group(curve23) if s.b == 1]
    P = curve23.omega[0]
    assert len({apply_place(s, P) for s in translations}) == 4


def test_theta_orbits(curve23):
    group = enumerate_group(curve23)
    for P in curve23.theta:
        if P.is_infinity:
            continue
        orb = {apply_place(s, P) for s in group}
        assert len(orb) > 1
        assert 28 % len(orb) == 0


def test_short_orbits(curve23, curve33):
    so23 = sorted(len(o) for o in short_orbits(curve23))
    assert so23 == [1, 4]
    so33 = sorted(len(o) for o in short_orbits(curve33))
    assert so33 == [1, 9]
    # orbit decomposition covers all places
    total = sum(len(o) for o in orbits(curve23))
    assert total == 33


def test_fixed_place_bound(curve23, curve33):
    for cv in (curve23, curve33):
        bound = cv.h + 1
        worst = max(len(fixed_places(s)) for s in enumerate_group(cv)
                    if not s.is_identity)
        assert worst <= bound


def _failed(checks):
    return {name for name, passed, _ in checks if not passed}


def test_group_checks_have_teeth(curve23, curve33):
    group = enumerate_group(curve23)
    dropped = next(s for s in group if inverse(s) != s)
    checks, _ = group_checks(curve23, [s for s in group if s != dropped], 0)
    assert checks[1][2] == "exhaustive"
    assert _failed(checks) == {"group order", "closure/associativity",
                               "inverses"}

    checks, _ = group_checks(curve33, enumerate_group(curve33)[:-1], 0)
    assert checks[1][2] == "sampled 10000 triples"
    assert "closure/associativity" in _failed(checks)

    translations = [s for s in group if s.b == 1]
    checks, short = group_checks(curve23, translations, 0)
    assert sorted(len(o) for o in short) == [1]
    assert _failed(checks) == {"group order", "short orbits"}


def test_closure_matches_scalar_oracle(curve23, curve33):
    for cv in (curve23, curve33):
        pairs = [(s.a, s.b) for s in enumerate_group(cv)]
        for doctored in (pairs, pairs[:-1], pairs[1:]):
            for seed in (0, 1, 7):
                closed, _ = autgroup._closure(cv, doctored, seed)
                assert closed == closure_by_compositions(cv, doctored, seed)


def test_closure_rejects_a_pair_outside_the_group(curve23, curve33):
    # a translation part of nonzero trace puts (a, b) outside the group
    for cv, how in [(curve23, "exhaustive"),
                    (curve33, "sampled 10000 triples")]:
        pairs = [(s.a, s.b) for s in enumerate_group(cv)]
        outside = next(a for a in cv.ctx.elements()
                       if a not in cv.trace_zero)
        assert autgroup._closure(cv, pairs, 0) == (True, how)
        pairs[5] = (outside, pairs[5][1])
        assert autgroup._closure(cv, pairs, 0) == (False, how)
        assert not closure_by_compositions(cv, pairs, 0)


def test_fixed_place_check_has_teeth(curve23, monkeypatch):
    # no map of the (a, b) form fixes more than h + 1 places, so the
    # bound can only fail through a doctored fixed_places
    places = curve23.places
    monkeypatch.setattr(autgroup, "fixed_places", lambda s: list(places))
    checks, _ = group_checks(curve23, enumerate_group(curve23), 0)
    assert _failed(checks) == {"fixed places <= 5"}


def test_fixed_places_match_oracle(curve23, curve33):
    for cv in (curve23, curve33):
        for s in enumerate_group(cv):
            assert fixed_places(s) == fixed_places_by_places(s)


def test_fixed_places_leave_places_unbuilt():
    cv = build_curve(4, 3)
    fixed = [fixed_places(s) for s in enumerate_group(cv)[:64]]
    assert "places" not in vars(cv)
    assert fixed == [fixed_places_by_places(s)
                     for s in enumerate_group(cv)[:64]]


def test_divisor_invariance(curve23):
    # sigma(G) = G and sigma(D) = D for every group element
    from normtrace.curve import Divisor
    G = curve23.divisor_G(3)
    D = curve23.divisor_D()
    for s in enumerate_group(curve23):
        for div in (G, D):
            moved = Divisor({apply_place(s, P): c for P, c in div.items()})
            assert moved == div


def test_code_aut_validation(curve23):
    ident = identity_aut(curve23)
    with pytest.raises(ValueError):
        CodeAut(ident, frob=3)
    with pytest.raises(ValueError):
        CodeAut(ident, scalar=0)
    for scalar in (-1, 8, 100):
        with pytest.raises(ValueError, match="nonzero element of GF\\(8\\)"):
            CodeAut(ident, scalar=scalar)


def test_identity_code_aut(curve23):
    code = build_code(curve23, 2)
    g = CodeAut(identity_aut(curve23))
    word = code.matrix[1]
    assert np.array_equal(code_action(code, g, word), word)
    assert is_code_automorphism(code, g)


def test_all_curve_automorphisms_preserve_code(curve23):
    code = build_code(curve23, 2)
    for s in enumerate_group(curve23):
        assert is_code_automorphism(code, CodeAut(s))


def test_frobenius_and_scalar_action(curve23):
    code = build_code(curve23, 2)
    ident = identity_aut(curve23)
    # entrywise squaring combined with the Frobenius place permutation
    assert is_code_automorphism(code, CodeAut(ident, frob=1))
    for e in range(3):
        for sc in curve23.ctx.nonzero():
            assert is_code_automorphism(code, CodeAut(ident, frob=e, scalar=sc))
    # frobenius_place keeps places on the curve
    for P in curve23.places:
        img = frobenius_place(curve23, P, 1)
        if not img.is_infinity:
            assert curve23.on_curve(img.x, img.y)


@pytest.mark.parametrize("q, r, ell", [(2, 3, 2), (3, 3, 2), (2, 4, 2),
                                        (4, 3, 1)])
def test_code_action_matches_oracle(q, r, ell):
    curve = build_curve(q, r)
    code = build_code(curve, ell)
    group = enumerate_group(curve)
    rng = random.Random(q * 10 + r)
    words = np.random.default_rng(q * 10 + r)
    for _ in range(4):
        g = CodeAut(rng.choice(group), frob=rng.randrange(curve.ctx.k),
                    scalar=rng.randrange(1, curve.ctx.order))
        word = words.integers(0, curve.ctx.order, code.n)
        assert np.array_equal(code_action(code, g, word),
                              code_action_by_places(code, g, word))
        assert np.array_equal(
            code_action(code, g, code.matrix),
            np.vstack([code_action_by_places(code, g, row)
                       for row in code.matrix]))


def test_membership_check_has_teeth(curve23):
    # an arbitrary transposition of two Theta coordinates is not an
    # automorphism of this code: some generator row must leave the space
    code = build_code(curve23, 2)
    ctx = curve23.ctx
    R, pivots = code.row_space()
    swapped = code.matrix.copy()
    swapped[:, [1, 2]] = swapped[:, [2, 1]]
    assert not all(code.contains(row) for row in swapped)
    # the batched path rejects the whole stack, on the cached RREF and
    # on a fresh one
    assert linalg.reduce_vector(ctx, R, pivots, swapped).any()
    assert not code.contains(swapped)
    assert not build_code(curve23, 2).contains(swapped)
    # and the swapped code is not preserved by every curve automorphism
    swapped_code = dataclasses.replace(code, matrix=swapped, _rref=None)
    assert not all(is_code_automorphism(swapped_code, CodeAut(s))
                   for s in enumerate_group(curve23))
    assert "code invariance: 28 curve automorphisms" in _failed(
        code_checks(swapped_code, enumerate_group(curve23)))


def test_doctored_translation_is_rejected(curve23):
    # a CurveAut forced past validation to a nonzero-trace translation
    # moves places off the curve: the action must raise, not permute
    code = build_code(curve23, 2)
    ctx = curve23.ctx
    bad_a = next(a for a in ctx.elements() if ctx.trace_rel(a, 2, 3) != 0)
    for b in (1, 3):
        s = CurveAut(curve23, 0, b)
        object.__setattr__(s, "a", bad_a)
        for g in (CodeAut(s), CodeAut(s, frob=1, scalar=5)):
            with pytest.raises(ValueError):
                code_action(code, g, code.matrix[0])
            with pytest.raises(ValueError):
                code_action(code, g, code.matrix)
            with pytest.raises(ValueError):
                is_code_automorphism(code, g)


def test_curve_mismatch(curve23, curve33):
    code = build_code(curve33, 1)
    g = CodeAut(identity_aut(curve23))
    with pytest.raises(ValueError):
        code_action(code, g, code.matrix[0])


def test_serialization(curve23):
    a = next(P.y for P in curve23.omega if P.y != 0)
    s = CurveAut(curve23, a, 5)
    assert s.to_dict() == {"a_index": a, "b_index": 5}
    g = CodeAut(s, frob=1, scalar=6)
    assert g.to_dict() == {"a_index": a, "b_index": 5, "frob": 1,
                           "scalar_index": 6}
    from normtrace.autgroup import orbit_report
    rep = orbit_report(short_orbits(curve23))
    assert sorted(len(o) for o in rep) == [1, 4]
    assert rep[0][0] == {"kind": "infinity"} or {"kind": "infinity"} in rep[1]
