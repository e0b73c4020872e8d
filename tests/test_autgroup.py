import itertools
import random

import numpy as np
import pytest

from normtrace import autgroup, linalg
from normtrace.autgroup import (CodeAut, CurveAut, ab_inverse, ab_product,
                                code_action, code_checks, enumerate_group,
                                fixed_places, generates, generators,
                                group_arrays, group_checks,
                                is_code_automorphism, short_orbits)
from normtrace.codes import AGCode, build_code, extended_one_point_code
from normtrace.curve import P_INFINITY, build_curve
from oracles import (apply_place, certified_whole, closure_by_compositions,
                     code_action_by_places, code_checks_by_elements,
                     fixed_places_by_places, frobenius_place,
                     inverse_by_search, inverse_pair,
                     is_code_automorphism_by_membership,
                     is_code_automorphism_whole, on_curve,
                     orbits_by_places, pullback_action, pullback_scalar,
                     transfer_image_whole, with_matrix)


def test_group_order(curve23, curve33):
    assert len(enumerate_group(curve23)) == 28
    assert len(enumerate_group(curve33)) == 234


def test_identity_present(curve23):
    group = enumerate_group(curve23)
    assert CurveAut(curve23, 0, 1) in group


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


def _pairs(ab):
    """The (a, b) arrays as a set of pairs."""
    return set(zip(*ab.tolist()))


def test_closure_and_inverses_exhaustive(curve23):
    a, b = group_arrays(curve23)
    u, v = np.divmod(np.arange(len(a) ** 2), len(a))
    elems = _pairs(np.stack([a, b]))
    assert _pairs(ab_product(curve23, a[u], b[u], a[v], b[v])) == elems
    inv = ab_inverse(curve23, a, b)
    assert _pairs(inv) == elems
    assert inv.T.tolist() == [list(inverse_pair(curve23, s))
                              for s in zip(a.tolist(), b.tolist())]
    assert _pairs(ab_product(curve23, a, b, *inv)) == {(0, 1)}


def test_compose_matches_pointwise_action(curve23):
    rng = random.Random(5)
    group = enumerate_group(curve23)
    places = curve23.places
    for _ in range(100):
        s1, s2 = rng.choice(group), rng.choice(group)
        P = rng.choice(places)
        (a,), (b,) = ab_product(curve23, [s1.a], [s1.b], [s2.a], [s2.b])
        assert (apply_place(CurveAut(curve23, int(a), int(b)), P)
                == apply_place(s1, apply_place(s2, P)))


def test_conjugation_identity(curve23):
    # scaling b conjugates translation a to translation b^c a, trace-zero
    ctx = curve23.ctx
    zeros = [a for a in ctx.elements() if ctx.trace_rel(a, 2, 3) == 0]
    b, a = (col.ravel() for col in np.meshgrid(list(ctx.nonzero()), zeros))
    sc = np.zeros_like(b), b
    conj = ab_product(curve23, *ab_product(curve23, *sc, a, np.ones_like(b)),
                      *ab_inverse(curve23, *sc))
    assert conj[1].tolist() == [1] * len(b)
    assert conj[0].tolist() == [ctx.mul(ctx.pow(v, curve23.c), u)
                                for u, v in zip(a.tolist(), b.tolist())]
    assert all(ctx.trace_rel(u, 2, 3) == 0 for u in conj[0].tolist())


def test_translations_have_order_p(curve23):
    a, b = group_arrays(curve23)
    moved = (b == 1) & (a != 0)
    square = ab_product(curve23, a[moved], b[moved], a[moved], b[moved])
    assert _pairs(square) == {(0, 1)}  # characteristic 2


def test_semidirect_structure(curve23):
    # translations form a normal subgroup of order h; quotient cyclic q^r-1
    group = enumerate_group(curve23)
    translations = {s for s in group if s.b == 1}
    assert len(translations) == curve23.h
    a, b = group_arrays(curve23)
    t = a[b == 1]
    u, v = np.divmod(np.arange(len(a) * len(t)), len(t))
    g = a[u], b[u]
    conj = ab_product(curve23, *ab_product(curve23, *g, t[v], np.ones_like(v)),
                      *ab_inverse(curve23, *g))
    assert _pairs(conj) == {(s.a, s.b) for s in translations}
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
                assert on_curve(curve23, img.x, img.y)


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
    # the fixed place at infinity, then the zeros of x
    for cv in (curve23, curve33):
        assert short_orbits(cv) == [[P_INFINITY], list(cv.omega)]


SUBGROUPS = {
    "full": lambda group: group,
    "translations": lambda group: [s for s in group if s.b == 1],
    "scalings": lambda group: [s for s in group if s.a == 0],
    "identity": lambda group: [s for s in group if s.is_identity],
}


def _arrays(group):
    """The (a, b) index arrays of a list of CurveAut."""
    return np.array([[s.a, s.b] for s in group], np.int64).reshape(-1, 2).T


@pytest.mark.parametrize("q, r", [(2, 3), (3, 3), (2, 4), (3, 2), (5, 2)])
@pytest.mark.parametrize("subgroup", SUBGROUPS)
def test_orbits_match_oracle(q, r, subgroup):
    curve = build_curve(q, r)
    group = SUBGROUPS[subgroup](enumerate_group(curve))
    want = orbits_by_places(curve, group)
    short = [o for o in want if len(o) < len(group)]
    assert autgroup._orbits(curve, *_arrays(group)) == short
    if subgroup == "full":
        assert short_orbits(curve) == short


def test_orbits_reject_a_map_off_the_curve(curve23):
    # a translation part of nonzero trace sends places off the curve: no
    # image key is found
    a, b = group_arrays(curve23)
    a[3] = next(v for v in curve23.ctx.elements()
                if v not in curve23.trace_zero)
    with pytest.raises(ValueError, match="off the curve"):
        autgroup._orbits(curve23, a, b)


def test_fixed_place_bound(curve23, curve33):
    for cv in (curve23, curve33):
        bound = cv.h + 1
        worst = max(len(fixed_places(s)) for s in enumerate_group(cv)
                    if not s.is_identity)
        assert worst <= bound


def _failed(checks):
    return {name for name, passed, _ in checks if not passed}


def test_group_checks_have_teeth(curve23, curve33):
    # one element dropped: the inverse of its inverse is missing
    a, b = group_arrays(curve23)
    group = enumerate_group(curve23)
    dropped = next(i for i, s in enumerate(group)
                   if inverse_by_search(s) != s)
    checks, _ = group_checks(curve23, np.delete(a, dropped),
                             np.delete(b, dropped), 0)
    assert checks[1][2] == "exhaustive"
    assert _failed(checks) == {"group order", "closure/associativity",
                               "inverses"}

    a33, b33 = group_arrays(curve33)
    checks, _ = group_checks(curve33, a33[:-1], b33[:-1], 0)
    assert checks[1][2] == "sampled 10000 triples"
    assert "closure/associativity" in _failed(checks)

    # one extra pair outside the group: the scaling part 0
    for cv, (u, v) in [(curve23, (a, b)), (curve33, (a33, b33))]:
        checks, _ = group_checks(cv, np.append(u, 0), np.append(v, 0), 0)
        assert {"group order", "closure/associativity"} <= _failed(checks)

    translations = b == 1
    checks, short = group_checks(curve23, a[translations], b[translations], 0)
    assert sorted(len(o) for o in short) == [1]
    assert _failed(checks) == {"group order", "short orbits"}


def test_closure_matches_scalar_oracle(curve23, curve33):
    for cv in (curve23, curve33):
        a, b = group_arrays(cv)
        pairs = list(zip(a.tolist(), b.tolist()))
        for cut in (slice(None), slice(None, -1), slice(1, None)):
            for seed in (0, 1, 7):
                checks, _ = group_checks(cv, a[cut], b[cut], seed)
                assert checks[1][1] == closure_by_compositions(
                    cv, pairs[cut], seed)


def test_closure_rejects_a_pair_outside_the_group(curve23, curve33):
    # a scaling part 0 puts (a, 0) outside the group; a translation part
    # of nonzero trace does too, and sends places off the curve
    for cv, how in [(curve23, "exhaustive"),
                    (curve33, "sampled 10000 triples")]:
        a, b = group_arrays(cv)
        assert group_checks(cv, a, b, 0)[0][1] == (
            "closure/associativity", True, how)
        b[5] = 0
        assert group_checks(cv, a, b, 0)[0][1] == (
            "closure/associativity", False, how)
        assert not closure_by_compositions(
            cv, list(zip(a.tolist(), b.tolist())), 0)
        b[5] = 1
        a[5] = next(v for v in cv.ctx.elements() if v not in cv.trace_zero)
        with pytest.raises(ValueError, match="off the curve"):
            group_checks(cv, a, b, 0)


@pytest.mark.parametrize("group", [[], "identity"])
def test_group_checks_fail_the_order_of_a_degenerate_group(curve23, group):
    if group == "identity":
        group = [CurveAut(curve23, 0, 1)]
    checks, short = group_checks(curve23, *_arrays(group), 0)
    assert [name for name, _, _ in checks] == [
        "group order", "closure/associativity", "inverses", "short orbits",
        "fixed places <= 5"]
    assert checks[0] == ("group order", False,
                         f"{len(group)} (expected 28)")
    assert short == []


def test_fixed_place_check_has_teeth(curve23, monkeypatch):
    # no map of the (a, b) form fixes more than h + 1 places, so the
    # bound can only fail through doctored counts
    n_places = len(curve23.places)
    monkeypatch.setattr(autgroup, "_fixed_counts",
                        lambda curve, a, b: np.full(len(a), n_places))
    checks, _ = group_checks(curve23, *group_arrays(curve23), 0)
    assert _failed(checks) == {"fixed places <= 5"}
    assert checks[-1][2] == f"max {n_places}"


@pytest.mark.parametrize("q, r", [(2, 3), (3, 2), (4, 2), (3, 3), (7, 3)])
def test_array_counts_and_inverses_match_the_scalar_oracles(q, r,
                                                            monkeypatch):
    # GF(343) has a 16-bit element dtype: the inverse keys must not wrap
    curve = build_curve(q, r)
    group = enumerate_group(curve)
    a, b = group_arrays(curve)
    assert np.array_equal(_arrays(group), np.stack([a, b]))
    counts = autgroup._fixed_counts(curve, a, b).tolist()
    assert all(len(fixed_places(s)) == n
               for s, n in zip(group, counts) if not s.is_identity)
    looked_up, slots = [], autgroup._slots
    monkeypatch.setattr(autgroup, "_slots", lambda curve, a, b:
                        looked_up.append(slots(curve, a, b)) or looked_up[-1])
    assert group_checks(curve, a, b, 0)[0][2] == ("inverses", True, "")
    # the given pairs, their products, then the inverses, each at slot
    # rank(a) (Q - 1) + b - 1 among the sorted trace-zero a
    rank = {u: i for i, u in enumerate(sorted(curve.trace_zero))}
    n1 = curve.ctx.order - 1
    assert looked_up[0].tolist() == list(range(len(group)))
    assert looked_up[2].tolist() == [
        rank[u] * n1 + v - 1
        for u, v in (inverse_pair(curve, (s.a, s.b)) for s in group)]


@pytest.mark.parametrize("q, r", [(2, 3), (3, 3), (3, 2)])
def test_slots_are_dense_and_put_outside_pairs_last(q, r):
    # every (a, b) of GF(Q)^2: a group pair at its index in group_arrays,
    # b = 0 or a of nonzero trace at the last slot; and an affine point
    # has a position only on the curve
    curve = build_curve(q, r)
    Q, last = curve.ctx.order, curve.h * (curve.ctx.order - 1)
    a, b = np.divmod(np.arange(Q * Q), Q)
    index = {pair: i for i, pair in enumerate(zip(*(
        v.tolist() for v in group_arrays(curve))))}
    assert autgroup._slots(curve, a, b).tolist() == [
        index.get(pair, last) for pair in zip(a.tolist(), b.tolist())]
    members = autgroup._members(curve, a, b)
    assert members.sum() == last and not members[-1]
    xs, ys = curve.affine_xy
    for x, y in zip(a.tolist(), b.tolist()):
        at = autgroup._positions(curve, np.array([x]), np.array([y]))
        assert (at is not None) == on_curve(curve, x, y)
        if at is not None:
            assert (xs[at[0]], ys[at[0]]) == (x, y)


def test_fixed_places_match_oracle():
    for q, r in [(2, 3), (3, 3), (2, 4), (3, 2), (4, 2), (5, 2)]:
        for s in enumerate_group(build_curve(q, r)):
            assert fixed_places(s) == fixed_places_by_places(s)


def test_fixed_places_leave_places_unbuilt():
    cv = build_curve(4, 3)
    fixed = [fixed_places(s) for s in enumerate_group(cv)[:64]]
    assert "places" not in vars(cv)
    assert fixed == [fixed_places_by_places(s)
                     for s in enumerate_group(cv)[:64]]


def test_divisor_invariance(curve23, curve33):
    # sigma(G) = G and sigma(D) = D for every group element: G = ell Omega
    # and D = the sum of Theta, so sigma maps Omega onto Omega and Theta
    # onto Theta
    for cv in (curve23, curve33):
        omega, theta = set(cv.omega), set(cv.theta)
        for s in enumerate_group(cv):
            assert {apply_place(s, P) for P in omega} == omega
            assert {apply_place(s, P) for P in theta} == theta


def test_code_aut_validation(curve23):
    ident = CurveAut(curve23, 0, 1)
    with pytest.raises(ValueError):
        CodeAut(ident, frob=3)
    with pytest.raises(ValueError):
        CodeAut(ident, scalar=0)
    for scalar in (-1, 8, 100):
        with pytest.raises(ValueError, match="nonzero element of GF\\(8\\)"):
            CodeAut(ident, scalar=scalar)


def test_identity_code_aut(curve23):
    code = build_code(curve23, 2)
    g = CodeAut(CurveAut(curve23, 0, 1))
    word = code.matrix[1]
    assert np.array_equal(code_action(code, g, word), word)
    assert is_code_automorphism(code, g)


def test_all_curve_automorphisms_preserve_code(curve23):
    code = build_code(curve23, 2)
    for s in enumerate_group(curve23):
        assert is_code_automorphism(code, CodeAut(s))


def test_frobenius_and_scalar_action(curve23):
    code = build_code(curve23, 2)
    ident = CurveAut(curve23, 0, 1)
    # entrywise squaring combined with the Frobenius place permutation
    assert is_code_automorphism(code, CodeAut(ident, frob=1))
    for e in range(3):
        for sc in curve23.ctx.nonzero():
            assert is_code_automorphism(code, CodeAut(ident, frob=e, scalar=sc))
    # frobenius_place keeps places on the curve
    for P in curve23.places:
        img = frobenius_place(curve23, P, 1)
        if not img.is_infinity:
            assert on_curve(curve23, img.x, img.y)


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
    swapped_code = _swapped(code)
    assert not all(is_code_automorphism(swapped_code, CodeAut(s))
                   for s in enumerate_group(curve23))
    assert "code invariance: 28 curve automorphisms" in _failed(
        code_checks(swapped_code))


def _swapped(code):
    """The code with Theta columns 1 and 2 exchanged in its matrix."""
    swapped = code.matrix.copy()
    swapped[:, [1, 2]] = swapped[:, [2, 1]]
    return with_matrix(code, swapped)


def _streamed(code, g):
    """T M joined from the column blocks of autgroup._transfer_blocks
    for g's own (a, b) and the scalar of its pulled-back image, or None
    if the code has no lowering table."""
    if code.lowering() is None:
        return None
    return np.hstack([block for _, block in autgroup._transfer_blocks(
        code, g.aut.a, g.aut.b, pullback_scalar(g))])


def test_certificate_decides_every_curve_automorphism_of_23(curve23,
                                                            monkeypatch):
    # no RREF: the transfer matrix proves every verdict on (2,3)
    group = enumerate_group(curve23)
    codes = [build_code(curve23, ell) for ell in range(1, 8)]
    monkeypatch.setattr(AGCode, "row_space", _no_rref)
    for code in codes:
        assert all(is_code_automorphism(code, CodeAut(s)) for s in group)
    monkeypatch.undo()
    for code in codes:
        assert all(is_code_automorphism_by_membership(code, CodeAut(s))
                   for s in group)


def _no_rref(code):
    raise AssertionError("row_space was computed")


@pytest.mark.parametrize("q, r", [(3, 3), (2, 4)])
def test_certificate_matches_membership_with_frobenius_and_scalars(q, r):
    curve = build_curve(q, r)
    ctx = curve.ctx
    group = enumerate_group(curve)
    rng = random.Random(q * 10 + r)
    for ell in range(1, ctx.order):
        code = build_code(curve, ell)
        images = []
        for _ in range(3):
            g = CodeAut(rng.choice(group), frob=rng.randrange(1, ctx.k),
                        scalar=rng.randrange(2, ctx.order))
            images.append(code_action(code, g, code.matrix))
            assert np.array_equal(_streamed(code, g),
                                  pullback_action(code, g, code.matrix))
            assert is_code_automorphism(code, g)
        # the membership verdict on all three images at once
        assert code.contains(np.vstack(images))


@pytest.mark.parametrize("q, r", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3),
                                  (2, 4)])
def test_certificate_decides_every_seeded_map(q, r, monkeypatch):
    # ten maps with random Frobenius and scalar at each ell: the
    # pulled-back certificate decides all of them, so membership never
    # runs, and every verdict is the membership verdict
    curve = build_curve(q, r)
    ctx = curve.ctx
    group = enumerate_group(curve)
    rng = random.Random(q * 10 + r)
    cases = [(build_code(curve, ell),
              CodeAut(rng.choice(group), frob=rng.randrange(ctx.k),
                      scalar=rng.randrange(1, ctx.order)))
             for ell in sorted({1, 2, ctx.order // 2, ctx.order - 1})
             for _ in range(10)]
    assert [_decided(c, g, monkeypatch) for c, g in cases] == [
        (is_code_automorphism_by_membership(c, g), True) for c, g in cases]


def test_certificate_and_code_checks_form_no_inverse(curve33, monkeypatch):
    # g's own (a, b) pulls the code back: ab_inverse is never called
    monkeypatch.setattr(autgroup, "ab_inverse", _no_inverse)
    rng = random.Random(33)
    group = enumerate_group(curve33)
    for ell in (2, 13):
        code = build_code(curve33, ell)
        assert all(is_code_automorphism(
            code, CodeAut(rng.choice(group), frob=rng.randrange(3),
                          scalar=rng.randrange(1, 27))) for _ in range(8))
        assert all(ok for _, ok, _ in code_checks(code))
        assert code._rref is None


def test_blocks_of_the_inverse_convention_fail_the_pullback():
    # blocks built from the inverse pair twisted by p^frob with the
    # scalar s give the image T M under g, not its pull-back: on (3,2)
    # they differ from the pulled-back image on some map with frob = 1
    curve = build_curve(3, 2)
    ctx = curve.ctx
    code = build_code(curve, 4)
    rng = random.Random(32)
    differ = 0
    for s in enumerate_group(curve):
        g = CodeAut(s, frob=1, scalar=rng.randrange(1, ctx.order))
        a, b = (ctx.frobenius(v, g.frob) for v in inverse_pair(
            curve, (s.a, s.b)))
        blocks = np.hstack([block for _, block in autgroup._transfer_blocks(
            code, a, b, g.scalar)])
        assert np.array_equal(blocks, code_action(code, g, code.matrix))
        differ += not np.array_equal(blocks, pullback_action(
            code, g, code.matrix))
    assert differ


def test_membership_decides_where_the_certificate_fails(curve23):
    # the swapped code's rows are not the basis evaluations, and a
    # scaling moves the local parameter under the extended one-point
    # code's P_inf entries: there the certificate fails, and membership
    # decides
    group = enumerate_group(curve23)
    swapped = _swapped(build_code(curve23, 2))
    for code in (swapped, extended_one_point_code(curve23, 2)):
        failed = 0
        for s in group:
            g = CodeAut(s, frob=1, scalar=3)
            assert (is_code_automorphism(code, g)
                    == is_code_automorphism_by_membership(code, g))
            failed += not np.array_equal(_streamed(code, g), pullback_action(
                code, g, code.matrix))
        assert failed >= len(group) // 2
    assert not all(is_code_automorphism(swapped, CodeAut(s)) for s in group)


def test_transfer_image_with_one_entry_changed_fails(curve23, monkeypatch):
    # blocks of 2 columns; one entry of T M doctored in a later block
    code = build_code(curve23, 3)
    s = enumerate_group(curve23)[9]
    g = CodeAut(s, frob=2, scalar=5)
    monkeypatch.setattr(autgroup, "BLOCK_ENTRIES", 2 * code.k)
    moved = _streamed(code, g)
    image = pullback_action(code, g, code.matrix)
    assert np.array_equal(moved, image)
    blocks = autgroup._transfer_blocks

    def doctored(code, a, b, scalar):
        for cols, block in blocks(code, a, b, scalar):
            if cols.start == 6:
                block[2, 1] ^= 1
            yield cols, block

    monkeypatch.setattr(autgroup, "_transfer_blocks", doctored)
    assert not np.array_equal(_streamed(code, g), image)
    # the doctored certificate fails, and membership gives the verdict
    assert is_code_automorphism(code, g)
    assert code._rref is not None


def _decided(code, g, monkeypatch):
    """(verdict, certified) of is_code_automorphism: certified is True
    iff the streamed certificate held, so that membership never ran."""
    ran, contains = [], AGCode.contains
    monkeypatch.setattr(AGCode, "contains", lambda code, word:
                        ran.append(1) or contains(code, word))
    verdict = is_code_automorphism(code, g)
    monkeypatch.setattr(AGCode, "contains", contains)
    return verdict, not ran


def _block_sizes(code):
    """Blocks of one column, of three columns of code (at least one of
    a larger code), and the default size."""
    return [1, 3 * code.k, autgroup.BLOCK_ENTRIES]


def test_streamed_check_equals_the_whole_matrix_oracle_on_23(curve23,
                                                             monkeypatch):
    # every map of the group, on a code, the swapped code and the
    # extended one-point code, whose certificates fail for some maps
    code = build_code(curve23, 2)
    cases = [(c, CodeAut(s)) for c in (code, _swapped(code),
                                       extended_one_point_code(curve23, 2))
             for s in enumerate_group(curve23)]
    for block in _block_sizes(code):
        monkeypatch.setattr(autgroup, "BLOCK_ENTRIES", block)
        assert [_decided(c, g, monkeypatch) for c, g in cases] == [
            (is_code_automorphism_whole(c, g), certified_whole(c, g))
            for c, g in cases]


@pytest.mark.parametrize("q, r, ells", [(3, 3, (1, 13, 26)),
                                        (2, 4, (2, 9, 15)),
                                        (3, 2, (2, 5, 8))])
def test_streamed_check_equals_the_whole_matrix_oracle_on_sampled_maps(
        q, r, ells, monkeypatch):
    curve = build_curve(q, r)
    ctx = curve.ctx
    group = enumerate_group(curve)
    rng = random.Random(q * 10 + r)
    cases = [(build_code(curve, ell),
              CodeAut(rng.choice(group), frob=rng.randrange(ctx.k),
                      scalar=rng.randrange(1, ctx.order)))
             for ell in ells for _ in range(3)]
    cases += [(extended_one_point_code(curve, ells[0]), g) for _, g in cases]
    for block in _block_sizes(cases[0][0]):
        monkeypatch.setattr(autgroup, "BLOCK_ENTRIES", block)
        assert [_decided(c, g, monkeypatch) for c, g in cases] == [
            (is_code_automorphism_whole(c, g), certified_whole(c, g))
            for c, g in cases]


@pytest.mark.parametrize("where", ["first block", "later block", "P_inf"])
def test_doctored_log_matrix_entry_fails_the_certificate(curve33, where,
                                                         monkeypatch):
    # blocks of 2 columns: one log-matrix entry changed by one exponent
    # fails the certificate, and membership gives the verdict
    code = build_code(curve33, 4)
    g = CodeAut(enumerate_group(curve33)[40], frob=1, scalar=5)
    monkeypatch.setattr(autgroup, "BLOCK_ENTRIES", 2 * code.k)
    assert _decided(code, g, monkeypatch) == (True, True)
    col = {"first block": 1, "later block": code.n - 3, "P_inf": 0}[where]
    row = int(np.flatnonzero(code.matrix[:, col])[-1])
    logs = code.log_matrix.copy()
    logs[row, col] = (int(logs[row, col]) + 1) % (curve33.ctx.order - 1)
    doctored = with_matrix(code, curve33.ctx.exp_np[logs])
    assert np.array_equal(doctored.log_matrix, logs)
    verdict, certified = _decided(doctored, g, monkeypatch)
    assert not certified and not certified_whole(doctored, g)
    assert verdict == is_code_automorphism_by_membership(doctored, g)


def test_lowering_missing_a_term_leaves_membership(curve23):
    # without x^-2 the row of x^-2 y cannot be lowered: no table, and
    # membership decides
    code = build_code(curve23, 2)
    keep = (code.basis[0] != -2) | (code.basis[1] != 0)
    assert not keep.all()
    part = with_matrix(code, code.matrix[keep], basis=code.basis[:, keep])
    assert part.k == keep.sum() == code.k - 1
    assert part.lowering() is None
    g = CodeAut(enumerate_group(curve23)[5])
    assert _streamed(part, g) is None
    assert transfer_image_whole(part, g) is None
    assert is_code_automorphism(part, g) == \
        is_code_automorphism_by_membership(part, g)


def _steps_agree(cases, oracle, monkeypatch):
    """For each block size of _block_sizes, the list of whether T M by
    digit steps, joined from the column blocks, equals the oracle's T M
    by Pascal's triangle on each (code, g) of cases."""
    out = []
    for block in _block_sizes(cases[0][0]):
        monkeypatch.setattr(autgroup, "BLOCK_ENTRIES", block)
        out.append([np.array_equal(_streamed(c, g), want)
                    for (c, g), want in zip(cases, oracle)])
    return out


def _translating(cases):
    """True iff some map of cases has a nonzero translation part, so
    that its digit steps run."""
    return any(g.aut.a for _, g in cases)


@pytest.mark.parametrize("q, r", [(2, 3), (3, 2)])
def test_digit_steps_equal_the_pascal_oracle_on_every_map(q, r,
                                                          monkeypatch):
    # every curve automorphism under every Frobenius power, the scalars
    # taken in turn, on every code
    curve = build_curve(q, r)
    ctx = curve.ctx
    pairs = itertools.product(enumerate_group(curve), range(ctx.k))
    maps = [CodeAut(s, frob=f, scalar=1 + n % (ctx.order - 1))
            for n, (s, f) in enumerate(pairs)]
    cases = [(build_code(curve, ell), g) for ell in range(1, ctx.order)
             for g in maps]
    oracle = [transfer_image_whole(c, g) for c, g in cases]
    assert all(want is not None for want in oracle) and _translating(cases)
    assert all(all(agree) for agree in _steps_agree(cases, oracle,
                                                    monkeypatch))


@pytest.mark.parametrize("q, r, weights", [(3, 3, [1, 1, 3, 3]),
                                           (2, 4, [1, 2, 4]),
                                           (4, 2, [1, 2]),
                                           (5, 2, [1, 1, 1, 1]),
                                           (9, 2, [1, 1, 3, 3])])
def test_digit_steps_equal_the_pascal_oracle_on_sampled_maps(
        q, r, weights, monkeypatch):
    # random Frobenius and scalar; (5,2) takes p - 1 = 4 steps on its
    # one digit, (9,2) two steps on each of two base-3 digits
    curve = build_curve(q, r)
    ctx = curve.ctx
    group = enumerate_group(curve)
    rng = random.Random(q * 10 + r)
    top = ctx.order - 1
    cases = [(code, CodeAut(rng.choice(group), frob=rng.randrange(ctx.k),
                            scalar=rng.randrange(1, ctx.order)))
             for code in [build_code(curve, ell) for ell in (1, top // 2, top)]
             for _ in range(4)]
    assert [w for w, _, _ in cases[-1][0].lowering()] == weights
    oracle = [transfer_image_whole(c, g) for c, g in cases]
    assert all(want is not None for want in oracle) and _translating(cases)
    assert all(all(agree) for agree in _steps_agree(cases, oracle,
                                                    monkeypatch))


def _dropped(steps, j):
    """The step lists with one step left out, one for each step."""
    return [steps[:n] + steps[n + 1:] for n in range(len(steps))]


def _base_alpha(steps, j):
    """The step list with alpha in place of alpha^w: each weight 1."""
    return [tuple((1, rows, src) for _, rows, src in steps)]


def _in_place(steps, j):
    """The step list with each step split into one step per row, in
    ascending j: a row then reads a source row this step already wrote."""
    return [tuple((w, rows[[n]], src[[n]]) for w, rows, src in steps
                  for n in np.argsort(j[rows], kind="stable"))]


@pytest.mark.parametrize("doctor", [_dropped, _base_alpha, _in_place])
def test_doctored_digit_steps_fail_the_pascal_oracle(doctor, monkeypatch):
    # on (9,2), p = 3 with two base-3 digits: every doctored step list
    # disagrees with the oracle on some sampled translation
    curve = build_curve(9, 2)
    ctx = curve.ctx
    rng = random.Random(92)
    moves = [s for s in enumerate_group(curve) if s.a]
    code = build_code(curve, 8)
    cases = [(code, CodeAut(rng.choice(moves), frob=rng.randrange(ctx.k),
                            scalar=rng.randrange(1, ctx.order)))
             for _ in range(3)]
    oracle = [transfer_image_whole(c, g) for c, g in cases]
    steps = code.lowering()
    assert [w for w, _, _ in steps] == [1, 1, 3, 3]
    assert all(all(agree) for agree in _steps_agree(cases, oracle,
                                                    monkeypatch))
    for wrong in doctor(steps, code.basis[1]):
        monkeypatch.setattr(AGCode, "lowering", lambda self, wrong=wrong:
                            wrong)
        assert not any(all(agree) for agree in _steps_agree(
            cases, oracle, monkeypatch))


@pytest.mark.parametrize("q, r, count", [(2, 3, 3), (3, 3, 3), (2, 4, 4),
                                         (4, 3, 5), (16, 2, 5)])
def test_generators_generate_the_group(q, r, count):
    curve = build_curve(q, r)
    gens = generators(curve)
    assert len(gens) == count == 1 + curve.e * (curve.r - 1)
    assert gens[0] == CurveAut(curve, 0, curve.ctx.generator)
    assert all(t.b == 1 for t in gens[1:])
    assert generates(curve, gens)


def test_generation_proof_has_teeth(curve33):
    gens = generators(curve33)
    ctx = curve33.ctx
    # one trace-zero basis vector missing, or repeated in its place
    assert not generates(curve33, gens[:-1])
    assert not generates(curve33, gens[:-1] + [gens[1]])
    # a translation replaced by a multiple of another: rank drops
    twice = CurveAut(curve33, ctx.mul(2, gens[1].a), 1)
    assert not generates(curve33, gens[:-1] + [twice])
    # a scaling of order below Q - 1, or a scaling that translates
    square = CurveAut(curve33, 0, ctx.mul(ctx.generator, ctx.generator))
    assert not generates(curve33, [square] + gens[1:])
    assert not generates(curve33, [CurveAut(curve33, gens[1].a,
                                            ctx.generator)] + gens[1:])
    assert not generates(curve33, gens[1:])


@pytest.mark.parametrize("q, r", [(2, 3), (3, 3), (2, 4)])
def test_code_checks_match_the_per_element_oracle(q, r):
    curve = build_curve(q, r)
    group = enumerate_group(curve)
    code = build_code(curve, 2)
    assert code_checks(code) == code_checks_by_elements(code, group)
    swapped = _swapped(code)
    assert code_checks(swapped) == code_checks_by_elements(swapped, group)


def test_code_checks_test_only_generators(curve33, monkeypatch):
    # each map is decided by its own (a, b): no inverse is formed
    code = build_code(curve33, 2)
    seen, check = [], autgroup.is_code_automorphism
    monkeypatch.setattr(autgroup, "is_code_automorphism",
                        lambda code, g: seen.append(g) or check(code, g))
    monkeypatch.setattr(autgroup, "ab_inverse", _no_inverse)
    assert all(ok for _, ok, _ in code_checks(code))
    assert len(seen) == 5 and code._rref is None
    assert [g.aut for g in seen] == generators(curve33) + [
        CurveAut(curve33, 0, 1)] * 2


def _no_inverse(*args):
    raise AssertionError("ab_inverse was called")


def test_code_checks_list_no_group(monkeypatch):
    # the proof reads generators; the record names h (Q - 1) from the curve
    curve = build_curve(4, 3)
    monkeypatch.setattr(autgroup, "enumerate_group", None)
    checks = code_checks(build_code(curve, 2))
    assert [name for name, ok, _ in checks if ok] == [
        "code invariance: 1008 curve automorphisms",
        "code invariance: 6 Frobenius powers", "code invariance: 63 scalars"]


def test_code_checks_fail_without_a_primitive_generator():
    # a scaling and a scalar of order 13 < 26 pass as maps but generate
    # only half of their families
    curve = build_curve(3, 3)
    ctx = curve.ctx
    code = build_code(curve, 2)
    ctx.generator = ctx.mul(ctx.generator, ctx.generator)
    assert not generates(curve, generators(curve))
    assert [ok for _, ok, _ in code_checks(code)] == [False, True, False]


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
    g = CodeAut(CurveAut(curve23, 0, 1))
    with pytest.raises(ValueError):
        code_action(code, g, code.matrix[0])


def test_serialization(curve23):
    rep = [[P.to_dict() for P in o] for o in short_orbits(curve23)]
    assert sorted(len(o) for o in rep) == [1, 4]
    assert rep[0][0] == {"kind": "infinity"} or {"kind": "infinity"} in rep[1]
