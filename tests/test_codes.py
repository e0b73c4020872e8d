import random

import numpy as np
import pytest

from normtrace import linalg
from normtrace.codes import (BudgetExceeded, build_code, designed_distance,
                             dimension_closed_form, equivalence_diagonal,
                             extended_one_point_code,
                             min_distance_exhaustive,
                             monomial_equivalence_check, witness_codeword,
                             witness_function)
from normtrace.curve import P_INFINITY
from normtrace.rrspace import (evaluate, extended_evaluate,
                               local_parameter_at_infinity, monomial)
from oracles import lattice_dimension


def test_build_code_23(curve23):
    code = build_code(curve23, 1)
    assert (code.n, code.k, code.d_star) == (29, 2, 25)
    code4 = build_code(curve23, 4)
    assert (code4.n, code4.k, code4.d_star) == (29, 9, 13)
    # Riemann-Roch count on the high range: k = deg G + 1 - g
    code5 = build_code(curve23, 5)
    assert code5.k == 20 + 1 - 9 == 12


def test_build_code_range_errors(curve23):
    with pytest.raises(ValueError):
        build_code(curve23, 0)
    with pytest.raises(ValueError):
        build_code(curve23, 8)


def test_rows_are_basis_evaluations(curve23, curve33):
    # Scalar evaluation at every place is the oracle for both codes; the
    # extended code's P_inf entry is the value of t^{ell*h} f there.
    for curve, ell in [(curve23, 3), (curve33, 4)]:
        t_loc = local_parameter_at_infinity(curve)
        for code, n_inf in [(build_code(curve, ell), 0),
                            (extended_one_point_code(curve, ell),
                             ell * curve.h)]:
            assert code.places == curve.theta
            for row, term in zip(code.matrix, code.basis):
                f = monomial(curve, 1, term.i, term.j)
                want = [extended_evaluate(f, P, n_inf, t_loc)
                        if P.is_infinity and n_inf else evaluate(f, P)
                        for P in code.places]
                assert row.tolist() == want


def test_dimension_closed_form_23(curve23):
    assert dimension_closed_form(2, 3, 1) == 2
    assert dimension_closed_form(2, 3, 4) == 9
    assert dimension_closed_form(2, 3, 6) == 4 * 6 + 1 - 9 == 16
    with pytest.raises(ValueError):
        dimension_closed_form(2, 3, 0)
    with pytest.raises(ValueError):
        dimension_closed_form(2, 3, 8)


def test_dimension_matches_lattice_oracle_and_rank():
    from normtrace.curve import build_curve
    for q, r in [(2, 3), (3, 3)]:
        cv = build_curve(q, r)
        for ell in range(1, q ** r):
            want = lattice_dimension(q, r, ell)
            assert dimension_closed_form(q, r, ell) == want
            code = build_code(cv, ell)
            assert code.k == want
            assert len(code.row_space()[1]) == want


def test_delta_branches_q3():
    # ell = 3, 2, 4 hit the three q = 3 branches (0, q-1, other mod q)
    for ell in (3, 2, 4):
        assert dimension_closed_form(3, 3, ell) == lattice_dimension(3, 3, ell)


def test_designed_distance(curve23, curve33):
    assert designed_distance(curve23, 1) == 25
    assert designed_distance(curve23, 7) == 1
    assert designed_distance(curve33, 1) == 226
    assert designed_distance(curve23, 8) == -3  # positive iff ell <= q^r - 1


def test_witness_codeword(curve23):
    code = build_code(curve23, 1)
    w = witness_codeword(code, [1])
    assert int((w != 0).sum()) == 25
    code2 = build_code(curve23, 2)
    w2 = witness_codeword(code2)
    assert int((w2 != 0).sum()) == 21
    # the witness is a codeword and takes value 1 at P_inf
    for ell in range(1, 8):
        c = build_code(curve23, ell)
        w = witness_codeword(c)
        assert int((w != 0).sum()) == c.d_star
        assert c.contains(w)
        assert w[0] == 1 and c.places[0] is P_INFINITY
    f = witness_function(curve23, 3)
    assert evaluate(f, P_INFINITY) == 1


def test_witness_attains_on_33(curve33):
    for ell in (1, 5, 13):
        code = build_code(curve33, ell)
        w = witness_codeword(code)
        assert int((w != 0).sum()) == code.d_star
        assert code.contains(w)


def test_witness_rejects_bad_lists(curve23):
    code = build_code(curve23, 2)
    with pytest.raises(ValueError):
        witness_codeword(code, [1, 1])
    with pytest.raises(ValueError):
        witness_codeword(code, [0, 1])
    with pytest.raises(ValueError):
        witness_codeword(code, [1])


def test_min_distance_small(curve23):
    assert min_distance_exhaustive(build_code(curve23, 1), 10 ** 6) == 25
    assert min_distance_exhaustive(build_code(curve23, 3), 10 ** 6) == 17


def _naive_min_weight(code):
    # independent oracle: scalar-arithmetic walk over the full message space
    ctx = code.curve.ctx
    Q, k, n = ctx.order, code.k, code.n
    best = n + 1
    for m in range(1, Q ** k):
        word = [0] * n
        mm = m
        for i in range(k):
            mm, digit = divmod(mm, Q)
            if digit:
                row = code.matrix[i]
                word = [ctx.add(w, ctx.mul(digit, int(r)))
                        for w, r in zip(word, row)]
        best = min(best, sum(1 for w in word if w))
    return best


def test_min_distance_matches_naive_oracle(curve23, curve33):
    code = build_code(curve23, 2)  # 8^4 = 4096 messages, characteristic 2
    assert min_distance_exhaustive(code, 10 ** 6) == _naive_min_weight(code)
    code33 = build_code(curve33, 1)  # 27^2 = 729 messages, odd characteristic
    naive = _naive_min_weight(code33)
    assert min_distance_exhaustive(code33, 10 ** 6) == naive == code33.d_star
    # force the prefix-sweep split in both characteristics
    assert min_distance_exhaustive(code, 10 ** 6, table_limit=64) == 21
    assert min_distance_exhaustive(code33, 10 ** 6, table_limit=27) == naive


def test_min_distance_budget(curve23):
    code = build_code(curve23, 4)
    with pytest.raises(BudgetExceeded):
        min_distance_exhaustive(code, 10 ** 6)  # 8^9 messages needed


def test_min_distance_early_stop(curve23):
    code = build_code(curve23, 2)
    assert min_distance_exhaustive(code, 10 ** 6, stop_at=code.d_star) == 21


def test_sampled_codewords_respect_goppa_bound(curve23):
    rng = random.Random(11)
    for ell in (2, 5, 7):
        code = build_code(curve23, ell)
        ctx = code.curve.ctx
        for _ in range(40):
            word = np.zeros(code.n, dtype=np.int64)
            while not word.any():
                msg = [rng.randrange(8) for _ in range(code.k)]
                word = np.zeros(code.n, dtype=np.int64)
                for coeff, row in zip(msg, code.matrix):
                    word = ctx.vadd(word, ctx.vscale(coeff, row))
            assert int((word != 0).sum()) >= code.d_star


def test_extended_one_point_code(curve23):
    for ell in range(1, 6):
        ca = build_code(curve23, ell)
        cb = extended_one_point_code(curve23, ell)
        assert (cb.n, cb.k) == (ca.n, ca.k)
    cb1 = extended_one_point_code(curve23, 1)
    assert cb1.k == 2
    cb5 = extended_one_point_code(curve23, 5)
    assert cb5.k == 12
    # the column at P_inf is not identically zero: the basis element of
    # pole order exactly ell*h extends to the value 1 there
    assert cb1.matrix[:, 0].any()
    assert sorted(cb1.matrix[:, 0].tolist()) == [0, 1]


def test_monomial_equivalence_canonical_pairs(curve23):
    for ell in range(1, 6):
        ca = build_code(curve23, ell)
        cb = extended_one_point_code(curve23, ell)
        wit = monomial_equivalence_check(ca, cb)
        assert wit is not None
        assert wit.permutation == tuple(range(29))
        proof = equivalence_diagonal(curve23, ell, ca.places)
        assert np.array_equal(wit.diagonal, proof)
        # proof diagonal: x(P)^ell at affine places, extended value at P_inf
        ctx = curve23.ctx
        for pos, P in enumerate(ca.places):
            if not P.is_infinity:
                assert proof[pos] == ctx.pow(P.x, ell)
        scaled = ctx.vmul(ca.matrix, proof[None, :])
        assert linalg.row_space_equal(ctx, scaled, cb.matrix)


def test_monomial_equivalence_other_curves(curve33, curve24):
    # the equivalence is not a characteristic-2 accident
    for cv, ell in [(curve33, 1), (curve33, 3), (curve24, 2)]:
        ca = build_code(cv, ell)
        cb = extended_one_point_code(cv, ell)
        wit = monomial_equivalence_check(ca, cb)
        assert wit is not None
        assert np.array_equal(wit.diagonal, equivalence_diagonal(cv, ell, ca.places))


def test_monomial_equivalence_self_and_failure(curve23):
    code2 = build_code(curve23, 2)
    wit = monomial_equivalence_check(code2, code2)
    assert np.array_equal(wit.diagonal, np.ones(29, dtype=np.int64))
    assert monomial_equivalence_check(code2, build_code(curve23, 3)) is None


def test_monomial_equivalence_rref_fallback(curve23):
    # same row space presented through a different basis: the entrywise
    # stage cannot apply, the echelon stage must still find a diagonal
    ctx = curve23.ctx
    code = build_code(curve23, 3)
    other = build_code(curve23, 3)
    mixed = other.matrix.copy()
    for i in range(1, mixed.shape[0]):
        mixed[i] = ctx.vadd(mixed[i], ctx.vscale(5, mixed[i - 1]))
    diag = np.array([ctx.pow(3, i % 5) for i in range(29)], dtype=np.int64)
    other.matrix = ctx.vmul(mixed, diag[None, :])
    other._rref = None
    wit = monomial_equivalence_check(code, other)
    assert wit is not None
    scaled = ctx.vmul(code.matrix, wit.diagonal[None, :])
    assert linalg.row_space_equal(ctx, scaled, other.matrix)


def test_length_mismatch_raises(curve23, curve33):
    with pytest.raises(ValueError):
        monomial_equivalence_check(build_code(curve23, 1), build_code(curve33, 1))


def test_report(curve23):
    code = build_code(curve23, 2)
    rep = code.to_report()
    assert rep["q"] == 2 and rep["r"] == 3 and rep["ell"] == 2
    assert rep["n"] == 29 and rep["k"] == 4 and rep["d_star"] == 21
    assert len(rep["basis"]) == 4
    assert len(rep["matrix"]) == 4 and len(rep["matrix"][0]) == 29
    slim = code.to_report(include_matrix=False)
    assert "matrix" not in slim
