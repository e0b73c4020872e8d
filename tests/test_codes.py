import dataclasses
import random
import tracemalloc

import numpy as np
import pytest

from normtrace import codes, linalg
from normtrace.autgroup import code_checks, enumerate_group
from normtrace.codes import (BudgetExceeded, build_code, designed_distance,
                             dimension_closed_form, equivalence_diagonal,
                             extended_one_point_code,
                             min_distance_exhaustive,
                             monomial_equivalence_check, witness_codeword,
                             witness_function)
from normtrace.curve import P_INFINITY, build_curve
from normtrace.rrspace import evaluate, monomial
from oracles import (entrywise_diagonal_by_columns, extended_evaluate,
                     lattice_dimension, local_parameter_at_infinity,
                     naive_min_weight)


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
            for row, term in zip(code.matrix, code.basis):
                f = monomial(curve, 1, term.i, term.j)
                want = [extended_evaluate(f, P, n_inf, t_loc)
                        if P.is_infinity and n_inf else evaluate(f, P)
                        for P in code.curve.theta]
                assert row.tolist() == want


def test_p_inf_column_is_the_extended_value(curve23, curve33, curve24):
    # column 0 is P_inf; its entries come from the valuation rule, the
    # scalar extended evaluation is the oracle
    for curve in (curve23, curve33, curve24):
        t_loc = local_parameter_at_infinity(curve)
        for ell in range(1, curve.q ** curve.r):
            for code, n_inf in [(build_code(curve, ell), 0),
                                (extended_one_point_code(curve, ell),
                                 ell * curve.h)]:
                want = [extended_evaluate(monomial(curve, 1, t.i, t.j),
                                          P_INFINITY, n_inf, t_loc)
                        for t in code.basis]
                assert code.matrix[:, 0].tolist() == want


@pytest.mark.parametrize("q, r, ell", [(2, 3, 2), (3, 3, 1)])
def test_code_construction_leaves_places_unbuilt(q, r, ell):
    # codes read the curve's place arrays; the Place tuples stay unbuilt
    curve = build_curve(q, r)
    ca = build_code(curve, ell)
    cb = extended_one_point_code(curve, ell)
    assert all(ok for _, ok, _ in code_checks(ca, enumerate_group(curve)))
    assert monomial_equivalence_check(ca, cb) is not None
    assert min_distance_exhaustive(ca, 1 << 20) == ca.d_star
    assert "places" not in vars(curve) and "theta" not in vars(curve)


def _rank_widths(monkeypatch):
    """Record the column count of every matrix linalg.rank is given."""
    widths, rank = [], linalg.rank

    def spy(ctx, mat):
        widths.append(mat.shape[1])
        return rank(ctx, mat)

    monkeypatch.setattr(linalg, "rank", spy)
    return widths


def test_rank_check_reads_the_fibre_prefix(monkeypatch):
    widths = _rank_widths(monkeypatch)
    for q, r, ell in [(2, 3, 1), (3, 3, 4), (2, 4, 9)]:
        curve = build_curve(q, r)
        for build in (build_code, extended_one_point_code):
            widths.clear()
            code = build(curve, ell)
            # the j = 0 terms x^i, ell + 1 of them, are the most for one j
            assert widths == [1 + curve.h * (ell + 1)]
            assert widths[0] < code.n


def test_rank_check_rejects_a_repeated_monomial(curve33, monkeypatch):
    basis = codes.basis_multipoint
    monkeypatch.setattr(codes, "basis_multipoint",
                        lambda curve, ell: (b := basis(curve, ell)) + b[-1:])
    widths = _rank_widths(monkeypatch)
    with pytest.raises(AssertionError, match="rank dropped"):
        build_code(curve33, 4)
    assert len(widths) == 2 and widths[1] == 235  # then the full matrix


def test_rank_check_falls_back_to_the_full_matrix(monkeypatch):
    # more than deg G = ell*h distinct places always carry rank k, so no
    # permutation of Theta starves the prefix: this layout puts the first
    # fibre ell + 1 times in front of all of Theta
    ell = 4
    want = build_code(build_curve(3, 3), ell)
    curve = build_curve(3, 3)
    _, xs, ys = curve.theta_coords
    order = np.concatenate([np.tile(np.arange(curve.h), ell + 1),
                            np.arange(len(xs))])
    curve.__dict__["theta_coords"] = (np.arange(1, len(order) + 1),
                                      xs[order], ys[order])
    widths = _rank_widths(monkeypatch)
    code = build_code(curve, ell)
    prefix = 1 + curve.h * (ell + 1)
    assert widths == [prefix, code.n]
    assert linalg.rank(curve.ctx, code.matrix[:, :prefix]) < code.k
    assert code.k == want.k
    assert np.array_equal(code.matrix[:, 0], want.matrix[:, 0])
    assert np.array_equal(code.matrix[:, 1:], want.matrix[:, 1 + order])


def test_build_code_memory_is_bounded():
    # N_{16,3}: the Place tuple of its 1,048,577 places alone takes over
    # 100 MB
    tracemalloc.start()
    try:
        code = build_code(build_curve(16, 3), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code.n, code.k) == (16 ** 5 + 1 - 16 ** 2, 2)
    assert peak < 200 << 20


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
        assert w[0] == 1 and c.curve.theta[0] is P_INFINITY
    f = witness_function(curve23, 3)
    assert evaluate(f, P_INFINITY) == 1


@pytest.mark.parametrize("q, r", [(2, 3), (3, 3), (2, 4)])
def test_witness_codeword_matches_scalar_evaluation(q, r):
    curve = build_curve(q, r)
    for ell in range(1, q ** r):
        code = build_code(curve, ell)
        c_list = random.Random(ell).sample(range(1, curve.ctx.order), ell)
        for cs in (None, c_list):
            f = witness_function(curve, ell, cs)
            want = [evaluate(f, P) for P in code.curve.theta]
            assert witness_codeword(code, cs).tolist() == want


@pytest.mark.parametrize("c_list", [[-1], [8], [0], [100]])
def test_witness_refuses_an_element_outside_the_field(curve23, c_list):
    # -1 would wrap round to element 7 in the index lists
    with pytest.raises(ValueError, match="distinct nonzero elements of GF\\(8\\)"):
        witness_function(curve23, 1, c_list)


@pytest.mark.parametrize("q, r, ell", [(2, 3, 2), (3, 3, 1), (4, 5, 1)])
def test_witness_codeword_leaves_places_unbuilt(q, r, ell):
    curve = build_curve(q, r)
    w = witness_codeword(build_code(curve, ell))
    assert int(np.count_nonzero(w)) == designed_distance(curve, ell)
    assert "places" not in vars(curve) and "theta" not in vars(curve)


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


def test_min_distance_matches_naive_oracle(curve23, curve33):
    code = build_code(curve23, 2)  # 8^4 = 4096 messages, characteristic 2
    assert min_distance_exhaustive(code, 10 ** 6) == naive_min_weight(code)
    code33 = build_code(curve33, 1)  # 27^2 = 729 messages, odd characteristic
    naive = naive_min_weight(code33)
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
        proof = equivalence_diagonal(curve23, ell)
        assert np.array_equal(wit.diagonal, proof)
        # proof diagonal: x(P)^ell at affine places, extended value at P_inf
        ctx = curve23.ctx
        for pos, P in enumerate(ca.curve.theta):
            if not P.is_infinity:
                assert proof[pos] == ctx.pow(P.x, ell)
        scaled = ctx.vmul(ca.matrix, proof[None, :])
        assert np.array_equal(linalg.rref(ctx, scaled)[0],
                              linalg.rref(ctx, cb.matrix)[0])


def test_monomial_equivalence_other_curves(curve33, curve24):
    # the equivalence is not a characteristic-2 accident
    for cv, ell in [(curve33, 1), (curve33, 3), (curve24, 2)]:
        ca = build_code(cv, ell)
        cb = extended_one_point_code(cv, ell)
        wit = monomial_equivalence_check(ca, cb)
        assert wit is not None
        assert np.array_equal(wit.diagonal, equivalence_diagonal(cv, ell))


@pytest.mark.parametrize("q, r", [(2, 3), (3, 3), (2, 4)])
def test_equivalence_diagonal_is_x_to_the_ell(q, r):
    # the scalar powers over the code's places are the oracle, and the
    # entrywise search recovers the same diagonal column by column
    curve = build_curve(q, r)
    ctx = curve.ctx
    for ell in (1, 2, q ** r - 1):
        ca = build_code(curve, ell)
        cb = extended_one_point_code(curve, ell)
        diag = equivalence_diagonal(curve, ell)
        assert diag.tolist() == [1 if P.is_infinity else ctx.pow(P.x, ell)
                                 for P in ca.curve.theta]
        assert np.array_equal(
            entrywise_diagonal_by_columns(ctx, ca.matrix, cb.matrix), diag)
        assert np.array_equal(monomial_equivalence_check(ca, cb).diagonal,
                              diag)


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
    assert np.array_equal(linalg.rref(ctx, scaled)[0],
                          linalg.rref(ctx, other.matrix)[0])


@pytest.mark.parametrize("stage", ["entrywise", "echelon"])
def test_monomial_equivalence_rejects_a_doctored_diagonal(curve23, monkeypatch,
                                                         stage):
    # the witness is proved, not trusted: the right diagonal passes, one
    # with an entry changed or zeroed under a nonzero column does not
    ctx = curve23.ctx
    ca, cb = build_code(curve23, 2), extended_one_point_code(curve23, 2)
    good = equivalence_diagonal(curve23, 2)
    col = 5
    assert ca.matrix[:, col].any()
    for value, verdict in [(good[col], True), (ctx.mul(good[col], 2), False),
                           (0, False)]:
        diag = good.copy()
        diag[col] = value
        if stage == "entrywise":
            monkeypatch.setattr(codes, "_entrywise_diagonal",
                                lambda *args, d=diag: d.copy())
        else:
            monkeypatch.setattr(codes, "_entrywise_diagonal", lambda *args: None)
            monkeypatch.setattr(codes, "_rref_diagonal",
                                lambda *args, d=diag: d.copy())
        assert (monomial_equivalence_check(ca, cb) is not None) == verdict


def test_monomial_equivalence_refuses_a_zero_entry_under_a_zero_column(
        curve23, monkeypatch):
    # A D = B holds entry by entry here, so only the nonzero-diagonal
    # check stands between this D and a witness
    code = build_code(curve23, 2)
    matrix = code.matrix.copy()
    matrix[:, 3] = 0
    zeroed = dataclasses.replace(code, matrix=matrix, _rref=None)
    diag = np.ones(code.n, dtype=np.int64)
    diag[3] = 0
    monkeypatch.setattr(codes, "_entrywise_diagonal", lambda *args: diag.copy())
    assert monomial_equivalence_check(zeroed, zeroed) is None


def test_monomial_equivalence_of_canonical_pairs_eliminates_nothing(
        curve23, curve33, monkeypatch):
    # the entrywise diagonal gives A D = B as arrays: no RREF, no reduction
    pairs = [(build_code(cv, ell), extended_one_point_code(cv, ell))
             for cv, ell in [(curve23, ell) for ell in range(1, 6)]
             + [(curve33, 13)]]
    calls = []
    for name in ("rref", "reduce_vector"):
        monkeypatch.setattr(linalg, name,
                            lambda *args, f=getattr(linalg, name), name=name:
                            calls.append(name) or f(*args))
    for ca, cb in pairs:
        assert monomial_equivalence_check(ca, cb) is not None
    assert calls == []


def test_length_mismatch_raises(curve23, curve33):
    with pytest.raises(ValueError):
        monomial_equivalence_check(build_code(curve23, 1), build_code(curve33, 1))


def test_report(curve23):
    code = build_code(curve23, 2)
    rep = code.to_report()
    assert rep["q"] == 2 and rep["r"] == 3 and rep["ell"] == 2
    assert rep["n"] == 29 and rep["k"] == 4 and rep["d_star"] == 21
    assert len(rep["basis"]) == 4
    assert code.matrix.shape == (4, 29)
    assert "matrix" not in rep  # code-build prints it after the report
