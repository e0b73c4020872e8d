import json
from math import gcd

import numpy as np
import pytest

from normtrace.cli import main
from normtrace.curve import P_INFINITY, Place, build_curve
from oracles import on_curve, places_by_search


def test_invariants_23(curve23):
    assert (curve23.c, curve23.h, curve23.genus) == (7, 4, 9)


def test_invariants_33(curve33):
    assert (curve33.c, curve33.h, curve33.genus) == (13, 9, 48)


def test_invariants_24(curve24):
    assert (curve24.c, curve24.h, curve24.genus) == (15, 8, 49)


def test_build_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_curve(2, 1)
    with pytest.raises(ValueError):
        build_curve(6, 3)     # not a prime power
    with pytest.raises(ValueError):
        build_curve(2, 21)    # field too large


def test_place_counts(curve23, curve33, curve24):
    assert len(curve23.places) == 33
    assert len(curve33.places) == 244
    assert len(curve24.places) == 129


def test_gcd_invariant():
    for q, r in [(2, 3), (3, 3), (2, 4), (4, 3)]:
        cv = build_curve(q, r)
        assert gcd(cv.h, cv.c) == 1


def test_canonical_order_and_membership(curve23):
    places = curve23.places
    assert places[0] is P_INFINITY
    affine = places[1:]
    assert all(not P.is_infinity for P in affine)
    assert sorted(affine, key=lambda P: (P.x, P.y)) == list(affine)
    # on_curve holds exactly on the affine places
    on = {(x, y) for x in curve23.ctx.elements()
          for y in curve23.ctx.elements() if on_curve(curve23, x, y)}
    assert on == {(P.x, P.y) for P in affine}


def test_serialization_roundtrip_is_stable(curve23):
    places = curve23.places
    again = [Place(**P.to_dict()) for P in places]
    assert list(places) == again


def test_x_fibers(curve23):
    for x in curve23.ctx.elements():
        assert len(curve23.x_fiber(x)) == curve23.h
    for x in (-1, curve23.ctx.order):
        with pytest.raises(ValueError):
            curve23.x_fiber(x)


def test_trace_zero_and_affine_xy_are_lazy():
    cv = build_curve(3, 3)
    assert "trace_zero" not in vars(cv) and "affine_xy" not in vars(cv)
    assert cv.trace_zero == {a for a in cv.ctx.elements()
                             if cv.ctx.trace_rel(a, 3, 3) == 0}
    xs, ys = cv.affine_xy
    assert list(cv.places[1:]) == [
        Place("affine", x, y) for x, y in zip(xs.tolist(), ys.tolist())]


@pytest.mark.parametrize("q, r", [(2, 3), (3, 3), (2, 4), (4, 3), (5, 2),
                                  (9, 2), (3, 4)])
def test_places_equal_brute_force_search(q, r):
    cv = build_curve(q, r)
    want = places_by_search(cv)
    # the count and the fibres come from the O(Q) trace fibres alone
    assert cv.n_places == len(want)
    assert list(cv.omega) == [P for P in want[1:] if P.x == 0]
    assert cv.trace_zero == {P.y for P in want[1:] if P.x == 0}
    for x in cv.ctx.elements():
        assert cv.x_fiber(x) == [P for P in want[1:] if P.x == x]
    assert "affine_xy" not in vars(cv)
    assert list(cv.places) == want
    xs, ys = cv.affine_xy
    assert xs.tolist() == [P.x for P in want[1:]]
    assert ys.tolist() == [P.y for P in want[1:]]
    theta = [P for P in want if P.is_infinity or P.x != 0]
    assert list(cv.theta) == theta
    pos, xs, ys = cv.theta_coords
    assert pos.tolist() == list(range(1, len(theta)))
    assert xs.tolist() == [P.x for P in theta[1:]]
    assert ys.tolist() == [P.y for P in theta[1:]]
    assert cv.n_places == len(want) == q ** (2 * r - 1) + 1


@pytest.mark.parametrize("q, r", [(2, 3), (3, 3), (4, 2), (5, 2)])
def test_fibre_offsets_place_every_point(q, r):
    # over all of GF(Q)^2: the offset lies in 0..h-1 exactly at the
    # places found by search, each at position x h + offset of
    # affine_xy, and norms holds x^c
    cv = build_curve(q, r)
    ctx = cv.ctx
    x, y = (v.ravel() for v in np.meshgrid(np.arange(ctx.order),
                                           np.arange(ctx.order),
                                           indexing="ij"))
    offsets = cv.fibre_offsets(x, y)
    on = (0 <= offsets) & (offsets < cv.h)
    want = places_by_search(cv)[1:]
    assert [(u, v) for u, v in zip(x[on].tolist(), y[on].tolist())] == [
        (P.x, P.y) for P in want]
    at = x[on] * cv.h + offsets[on]
    assert at.tolist() == list(range(len(want)))
    assert cv.norms.tolist() == [ctx.pow(u, cv.c) for u in ctx.elements()]


def test_omega_theta(curve23, curve33):
    assert len(curve23.omega) == 4 and len(curve23.theta) == 29
    assert len(curve33.omega) == 9 and len(curve33.theta) == 235
    assert set(curve23.omega).isdisjoint(curve23.theta)
    assert P_INFINITY in curve23.theta
    # x = 0 forces trace(y) = 0 on omega
    for P in curve23.omega:
        assert P.x == 0
        assert curve23.ctx.trace_rel(P.y, 2, 3) == 0


def test_principal_divisors(capsys):
    # curve-info's div_x and div_y records against the brute-force
    # places: (x) = Omega - h P_inf and (y) = c P(0,0) - c P_inf, each
    # of degree 0, their supports in canonical order
    for q, r in [(2, 3), (3, 3), (4, 2), (5, 2)]:
        assert main(["curve-info", "--q", str(q), "--r", str(r),
                     "--format", "json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        cv = build_curve(q, r)
        places = places_by_search(cv)
        omega = [P for P in places[1:] if P.x == 0]
        for div in (rec["div_x"], rec["div_y"]):
            assert sum(term["coeff"] for term in div) == 0
        assert [Place(**t["place"]) for t in rec["div_x"]] == (
            [P_INFINITY] + omega)
        assert [t["coeff"] for t in rec["div_x"]] == [-cv.h] + [1] * cv.h
        origin = Place("affine", 0, 0)
        assert origin in omega
        assert rec["div_y"] == [
            {"place": P_INFINITY.to_dict(), "coeff": -cv.c},
            {"place": origin.to_dict(), "coeff": cv.c}]

