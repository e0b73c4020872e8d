from types import SimpleNamespace

import numpy as np
import pytest

from normtrace.curve import P_INFINITY, Place, build_curve
from normtrace.rrspace import (basis_multipoint, basis_one_point, evaluate,
                               semigroup_gaps, semigroup_nongaps)
from oracles import (basis_by_box, evaluate_at, extended_evaluate,
                     local_parameter_at_infinity, semigroup_by_force)


def test_nongaps_23(curve23):
    assert semigroup_nongaps(curve23, 8) == [0, 4, 7, 8]
    assert semigroup_nongaps(curve23, 0) == [0]
    with pytest.raises(ValueError):
        semigroup_nongaps(curve23, -1)


def test_nongaps_match_brute_force(curve23, curve33):
    for cv in (curve23, curve33):
        bound = 3 * cv.genus
        assert semigroup_nongaps(cv, bound) == semigroup_by_force(cv.h, cv.c, bound)


@pytest.mark.parametrize("q, r", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3),
                                  (4, 2), (4, 3), (5, 2), (7, 2), (8, 2),
                                  (9, 2), (2, 7)])
def test_nongaps_match_brute_force_over_a_grid(q, r):
    # semigroup_nongaps reads only h and c
    h, c = q ** (r - 1), (q ** r - 1) // (q - 1)
    genus = (h - 1) * (c - 1) // 2
    cv = SimpleNamespace(h=h, c=c)
    for bound in (0, 1, h, c - 1, h * c, 2 * genus, 3 * genus + 1):
        assert semigroup_nongaps(cv, bound) == semigroup_by_force(h, c, bound)


def test_gap_count_equals_genus(curve23, curve33, curve24):
    for cv in (curve23, curve33, curve24):
        assert len(semigroup_gaps(cv)) == cv.genus


def test_basis_one_point_23(curve23):
    assert basis_one_point(curve23, 0).tolist() == [[0], [0]]
    assert basis_one_point(curve23, 4).tolist() == [[0, 1], [0, 0]]
    assert basis_one_point(curve23, 16).shape == (2, 9)
    assert basis_one_point(curve23, 16).dtype == np.int64


def test_basis_pole_orders_distinct(curve23, curve33):
    for cv in (curve23, curve33):
        orders = -cv.val_infinity(*basis_one_point(cv, 4 * cv.genus))
        assert len(set(orders.tolist())) == len(orders)
        assert (np.diff(orders) > 0).all()


def test_basis_size_equals_nongap_count(curve23):
    for s in range(4 * curve23.genus + 1):
        assert (basis_one_point(curve23, s).shape[1]
                == len(semigroup_nongaps(curve23, s)))


def test_dimension_floor_sum_identity(curve23, curve33):
    # k = ell + 1 + sum_{s<=ell} floor(s h / c) on the low range
    for cv in (curve23, curve33):
        for ell in range(1, cv.c - 2):
            want = ell + 1 + sum(s * cv.h // cv.c for s in range(ell + 1))
            assert basis_one_point(cv, ell * cv.h).shape[1] == want


def test_basis_multipoint_23(curve23):
    assert basis_multipoint(curve23, 1).tolist() == [[-1, 0], [0, 0]]
    terms = basis_multipoint(curve23, 4)
    assert terms.shape == (2, 9)
    assert (0, 0) in zip(*terms.tolist())
    # poles live only on Omega, of order at most ell
    for ell in range(1, 8):
        assert basis_multipoint(curve23, ell)[0].min() >= -ell


BASIS_LADDER = [(2, 2), (2, 3), (3, 2), (4, 2), (3, 3), (2, 4), (3, 4),
                (16, 2), (5, 2), (8, 2), (2, 8), (4, 4), (16, 3), (7, 3)]


@pytest.mark.parametrize("q, r", BASIS_LADDER)
def test_bases_equal_the_box_enumeration(q, r):
    # basis_one_point and basis_multipoint read only h and c
    h, c = q ** (r - 1), (q ** r - 1) // (q - 1)
    cv = SimpleNamespace(h=h, c=c)
    ells = range(1, q ** r)
    if h > 27:  # a long box: every 13th ell to 200, and c - 3, c - 2
        ells = sorted({*range(1, 201, 13), 200, c - 3, c - 2} & {*ells})
    for ell in ells:
        want = basis_by_box(h, c, ell * h)
        assert np.array_equal(basis_one_point(cv, ell * h), want)
        assert np.array_equal(basis_multipoint(cv, ell), want - [[ell], [0]])
    for s in range(0, min(3 * (h - 1) * (c - 1) // 2, 2000), 7):
        assert np.array_equal(basis_one_point(cv, s), basis_by_box(h, c, s))


def test_basis_comparison_has_teeth(curve33):
    # the same monomials with two of them swapped are not the basis
    want = basis_by_box(curve33.h, curve33.c, 4 * curve33.h)
    got = basis_one_point(curve33, 4 * curve33.h)
    assert np.array_equal(got, want)
    assert not np.array_equal(got[:, [1, 0, *range(2, got.shape[1])]], want)


def test_bases_are_read_only(curve23):
    for basis in (basis_one_point(curve23, 16), basis_multipoint(curve23, 4)):
        with pytest.raises(ValueError):
            basis[0, 0] = 5


def test_evaluate_constant(curve23):
    assert evaluate(curve23, [1], [[0], [0]]).tolist() == [1] * 29
    for P in curve23.places:
        assert evaluate_at(curve23, [(1, 0, 0)], P) == 1


def test_evaluate_at_infinity(curve23):
    # the array evaluator and the scalar oracle read one valuation rule
    for i, j, want in [(-1, 0, 0), (7, -4, 1)]:
        assert evaluate(curve23, [1], [[i], [j]])[0] == want
        assert evaluate_at(curve23, [(1, i, j)], P_INFINITY) == want
    with pytest.raises(ValueError, match="pole at P_inf"):
        evaluate(curve23, [1, 1], [[-1, 1], [0, 0]])
    with pytest.raises(ValueError, match="pole at P_inf"):
        evaluate_at(curve23, [(1, 1, 0)], P_INFINITY)


def test_evaluate_pole_at_affine(curve23):
    # no place of Theta is a pole of x^{-1}; the zeros of x in Omega are
    P0 = curve23.omega[0]
    with pytest.raises(ValueError, match="pole at"):
        evaluate_at(curve23, [(1, -1, 0)], P0)
    assert evaluate(curve23, [1], [[-1], [0]])[1:].all()


def _local_param_oracle(h, c):
    # scan a wide window for u h + v c = -1 minimizing (|u| + |v|, u)
    best = None
    for u in range(-4 * c, 4 * c + 1):
        rem = -1 - u * h
        if rem % c:
            continue
        v = rem // c
        key = (abs(u) + abs(v), u)
        if best is None or key < best[0]:
            best = (key, (u, v))
    return best[1]


def test_local_parameter(curve23, curve33, curve24):
    assert local_parameter_at_infinity(curve23) == (-2, 1)
    for cv in (curve23, curve33, curve24):
        t = local_parameter_at_infinity(cv)
        assert cv.val_infinity(*t) == 1
        assert t == _local_param_oracle(cv.h, cv.c)


def test_extended_evaluate(curve23):
    t = local_parameter_at_infinity(curve23)
    fx, one = [(1, 1, 0)], [(1, 0, 0)]
    # n_P = 0 is the ordinary evaluation (at affine places; x has its
    # pole at P_inf)
    for P in curve23.theta[1:6]:
        assert extended_evaluate(curve23, fx, P, 0, t) == evaluate_at(
            curve23, fx, P)
    assert extended_evaluate(curve23, fx, P_INFINITY, 4, t) == 1
    assert extended_evaluate(curve23, one, P_INFINITY, 4, t) == 0


def test_multipoint_rejects_zero(curve23):
    with pytest.raises(ValueError):
        basis_multipoint(curve23, 0)
