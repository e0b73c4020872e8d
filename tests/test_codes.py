import random
import tracemalloc

import numpy as np
import pytest

from normtrace import codes, linalg
from normtrace.autgroup import code_checks
from normtrace.codes import (BudgetExceeded, build_code, designed_distance,
                             dimension_closed_form, equivalence_diagonal,
                             extended_one_point_code,
                             min_distance_exhaustive,
                             monomial_equivalence_check, witness_codeword,
                             witness_function)
from normtrace.curve import P_INFINITY, build_curve
from oracles import (entrywise_diagonal_by_columns, evaluate_at,
                     evaluation_by_places, evaluation_matrix,
                     extended_evaluate, lattice_dimension,
                     local_parameter_at_infinity, naive_min_weight, rank,
                     rank_by_classes, theta_orbits, with_matrix)


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
            for row, (i, j) in zip(code.matrix, code.basis.T.tolist()):
                f = [(1, i, j)]
                want = [extended_evaluate(curve, f, P, n_inf, t_loc)
                        if P.is_infinity and n_inf
                        else evaluate_at(curve, f, P)
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
                want = [extended_evaluate(curve, [(1, i, j)],
                                          P_INFINITY, n_inf, t_loc)
                        for i, j in code.basis.T.tolist()]
                assert code.matrix[:, 0].tolist() == want


@pytest.mark.parametrize("q, r, ell", [(2, 3, 2), (3, 3, 1)])
def test_code_construction_leaves_places_unbuilt(q, r, ell):
    # codes read the curve's place arrays; the Place tuples stay unbuilt
    curve = build_curve(q, r)
    ca = build_code(curve, ell)
    cb = extended_one_point_code(curve, ell)
    assert all(ok for _, ok, _ in code_checks(ca))
    assert monomial_equivalence_check(ca, cb) is not None
    assert min_distance_exhaustive(ca, 1 << 20) == ca.d_star
    assert "places" not in vars(curve) and "theta" not in vars(curve)


BUILDS = (build_code, extended_one_point_code)


@pytest.mark.parametrize("q, r", [(2, 2), (2, 3), (3, 2), (4, 2), (3, 3),
                                  (2, 4)])
def test_class_proof_agrees_with_the_full_rank(q, r):
    # at every ell and for both builders, the key proof, the class
    # blocks of the split and the rank of the whole matrix agree
    curve = build_curve(q, r)
    assert theta_orbits(curve) is not None
    for ell in range(1, q ** r):
        for build in BUILDS:
            code = build(curve, ell)
            full = rank(curve.ctx, code.matrix) == code.k
            assert codes._rank_by_keys(curve, code.basis, code.n_inf) == full
            assert rank_by_classes(curve, code.basis, code.matrix) == full
            assert full


# every code the benchmark builds: code-table over (2,3), (3,3) and
# (2,4), code-build, min-dist, aut-verify and the library fixtures
LADDER = ([(2, 3, ell) for ell in range(1, 8)]
          + [(3, 3, ell) for ell in range(1, 27)]
          + [(2, 4, ell) for ell in range(1, 16)]
          + [(4, 3, ell) for ell in (1, 2, 8, 16, 24, 31)]
          + [(3, 4, 10), (3, 4, 20), (16, 2, 8), (16, 2, 16)])


def _spy_matrix(monkeypatch):
    """Record the basis size of every _log_matrix call."""
    calls, matrix = [], codes._log_matrix

    def spy(curve, basis, n_inf):
        calls.append(basis.shape[1])
        return matrix(curve, basis, n_inf)

    monkeypatch.setattr(codes, "_log_matrix", spy)
    return calls


def test_ladder_builds_call_no_rank(monkeypatch):
    # the keys prove k: no elimination, and no matrix until one is read
    for name in ("rref", "reduce_vector"):
        monkeypatch.setattr(linalg, name, lambda *args: pytest.fail(name))
    calls = _spy_matrix(monkeypatch)
    curves = {}
    for q, r, ell in LADDER:
        curve = curves.setdefault((q, r), build_curve(q, r))
        for build in BUILDS:
            assert build(curve, ell).k == dimension_closed_form(q, r, ell)
    assert calls == []


def affine_columns(curve, count, seed):
    """count affine columns of curve's codes, or all if fewer, drawn
    by seed; the first and the last are always among them."""
    n = curve.q ** (2 * curve.r - 1) + 1 - curve.h
    rng = np.random.default_rng(seed)
    drawn = rng.choice(np.arange(2, n - 1), size=min(count, n - 3),
                       replace=False)
    return sorted({1, n - 1, *drawn.tolist()})


def test_gather_equals_scalar_evaluation_on_the_ladder():
    # every row of every ladder code, at 32 affine columns each (P_inf
    # is pinned by test_p_inf_column_is_the_extended_value)
    curves = {}
    for seed, (q, r, ell) in enumerate(LADDER):
        curve = curves.setdefault((q, r), build_curve(q, r))
        cols = affine_columns(curve, 30, seed)
        for build in BUILDS:
            code = build(curve, ell)
            assert np.array_equal(code.matrix[:, cols], evaluation_by_places(
                curve, code.basis, cols))


@pytest.mark.parametrize("q, r", [(2, 3), (3, 3), (2, 4)])
def test_gather_equals_scalar_evaluation_at_every_place(q, r):
    # the whole matrix at every ell, for both builders: negative i (the
    # multipoint bases), n_inf > 0 (the extended ones) and ell = Q - 1,
    # whose multipoint basis shares the key of x^0 and x^{-(Q-1)}; P_inf
    # is pinned by test_p_inf_column_is_the_extended_value
    curve = build_curve(q, r)
    cols = list(range(1, len(curve.theta_coords[0]) + 1))
    for ell in range(1, q ** r):
        for build in BUILDS:
            code = build(curve, ell)
            assert np.array_equal(code.matrix[:, cols], evaluation_by_places(
                curve, code.basis, cols))


def test_gather_check_has_teeth(monkeypatch):
    # an exp table read one exponent too far fails the scalar oracle
    curve = build_curve(2, 3)
    ctx = curve.ctx
    basis = codes.basis_multipoint(curve, 3)
    cols = list(range(1, len(curve.theta_coords[0]) + 1))
    want = evaluation_by_places(curve, basis, cols)
    assert np.array_equal(evaluation_matrix(curve, basis, 0)[:, cols],
                          want)
    n = ctx.order - 1
    shifted = ctx.exp_np.copy()
    shifted[:2 * n] = np.roll(ctx.exp_np[:2 * n], -1)
    monkeypatch.setattr(ctx, "exp_np", shifted)
    got = build_code(curve, 3).matrix[:, cols]
    assert (got != want).all()


def test_lazy_matrix_equals_the_eager_one(curve33):
    # a matrix read after other work equals one gathered at once, and
    # its logs are kept
    for ell in (1, 13, 26):
        for build in BUILDS:
            code = build(curve33, ell)
            assert code._log_matrix is None
            code.row_space()
            assert np.array_equal(code.matrix, evaluation_matrix(
                curve33, code.basis, code.n_inf))
            assert code.log_matrix is code.log_matrix


def gather_need_16_2_127():
    """The gather estimate of the largest code that the tests and the
    benchmark gather, (16,2) ell = 127: uint16 exponents, the int64
    matrix, the row tables of the 128 i in -127..0 and the 16 j, each
    formed in uint32 and narrowed to uint16, and numpy's buffers."""
    return (1913 * 4081 * (2 + 8) + (128 + 16) * 4080 * (4 + 2)
            + 2 * np.getbufsize() * 8)


def test_matrix_gather_is_checked_against_the_limit(monkeypatch):
    # the estimate is under a tenth of the limit; a limit one byte below
    # the estimate refuses the code before any array is built
    code = build_code(build_curve(16, 2), 127)
    need = gather_need_16_2_127()
    assert need < codes.TABLE_MAX_BYTES // 10
    monkeypatch.setattr(codes, "TABLE_MAX_BYTES", need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"1913 x 4081 generator matrix "
                                             f"needs about {need} bytes"):
            code.matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code._log_matrix is None and peak < need // 10
    monkeypatch.setattr(codes, "TABLE_MAX_BYTES", need)
    assert code.matrix.shape == (1913, 4081)


def test_matrix_gather_peaks_within_its_estimate():
    # the gather peaks at about 10 bytes per entry (its uint16 exponents
    # and int64 matrix); the bound of 11 rejects int32 exponents with a
    # uint8 gather (13) and an intp exponent array (24)
    curve = build_curve(16, 2)
    code = build_code(curve, 127)
    curve.theta_coords, curve.ctx.log_np  # filled before tracing
    tracemalloc.start()
    try:
        matrix = code.matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.shape == (1913, 4081) and matrix.dtype == np.int64
    assert peak <= gather_need_16_2_127() and peak <= 11 * matrix.size


def test_exponent_tables_peak_within_their_share_of_the_estimate():
    # (16,2) ell = 255: the 255 i rows and 16 j rows of 4080 columns,
    # each formed in uint32 and narrowed to uint16, 6 bytes per entry
    # (6.3 MB measured); formed in int64 they peaked at 10.5 MB
    curve = build_curve(16, 2)
    code = build_code(curve, 255)
    curve.theta_coords, curve.ctx.log_np  # filled before tracing
    tracemalloc.start()
    try:
        tables = codes._exponent_tables(curve, code.basis, code.n_inf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tables[1].shape == (255, 4080) and tables[3].shape == (16, 4080)
    assert peak <= (255 + 16) * 4080 * (4 + 2) + 2 * np.getbufsize() * 8


@pytest.mark.parametrize("q, r", [(2, 2), (2, 3), (3, 3), (2, 4), (4, 3),
                                  (16, 2)])
def test_closed_form_length_is_the_column_count(q, r):
    curve = build_curve(q, r)
    code = build_code(curve, 1)
    assert code.n == len(curve.theta_coords[0]) + 1 == code.matrix.shape[1]


@pytest.mark.parametrize("q, r", [(16, 3), (4, 5)])
def test_build_code_reads_no_matrix_and_no_places(monkeypatch, q, r):
    # N_{16,3} has n ~ 1M: k = 2 costs O(k), not a pass over n
    calls = _spy_matrix(monkeypatch)
    curve = build_curve(q, r)
    code = build_code(curve, 1)
    assert (code.k, code.n) == (2, q ** (2 * r - 1) + 1 - q ** (r - 1))
    assert calls == []
    assert "affine_xy" not in vars(curve)


def test_code_table_builds_the_matrices_it_enumerates(monkeypatch, capsys):
    from normtrace import cli
    calls = _spy_matrix(monkeypatch)
    assert cli.main(["code-table", "--q", "3", "--r", "4"]) == 0
    budget = cli.DEFAULT_BUDGET
    want = [k for k in (dimension_closed_form(3, 4, ell)
                        for ell in range(1, 81)) if 81 ** k <= budget]
    assert calls == want
    assert len(capsys.readouterr().out.splitlines()) == 81


def test_parameters_follow_the_basis(curve33):
    # k is the basis size, and no other field can go stale
    code = build_code(curve33, 4)
    keep = np.arange(code.k) % 3 != 0
    part = with_matrix(code, code.matrix[keep], basis=code.basis[:, keep])
    assert part.k == keep.sum() == part.parameters()["k"] < code.k
    assert part.basis.shape == (2, part.k)
    assert (part.n, part.d_star, part.kind) == (code.n, code.d_star,
                                                 codes.MULTIPOINT)
    one_point = extended_one_point_code(curve33, 4)
    assert one_point.kind == codes.EXTENDED_ONE_POINT
    with pytest.raises(AttributeError):
        code.k = 3


def _with_basis(monkeypatch, *extra):
    """Make basis_multipoint append the given exponents (i, j)."""
    basis = codes.basis_multipoint
    monkeypatch.setattr(codes, "basis_multipoint", lambda curve, ell:
                        np.column_stack([basis(curve, ell), *extra]))


def _at_infinity_one(monkeypatch, *terms):
    """Make the P_inf entry of the given exponents (i, j) read 1 in
    codes' binding of the valuation rule."""
    at_infinity = codes.at_infinity

    def doctored(curve, i, j, n_inf):
        out = at_infinity(curve, i, j, n_inf)
        for ti, tj in terms:
            out |= (i == ti) & (j == tj)
        return out

    monkeypatch.setattr(codes, "at_infinity", doctored)


def _refused(curve, ell):
    """Assert that build_code refuses; return the basis size and the
    rank of the matrix it would have had."""
    with pytest.raises(AssertionError, match="basis keys"):
        build_code(curve, ell)
    basis = codes.basis_multipoint(curve, ell)
    matrix = evaluation_matrix(curve, basis, 0)
    return basis.shape[1], rank(curve.ctx, matrix)


def test_key_proof_refuses_a_repeated_key(curve33, monkeypatch):
    # x^{Q-2} and x^{-1} agree at every affine place and are 0 at P_inf
    _with_basis(monkeypatch, (curve33.ctx.order - 2, 0))
    k, got = _refused(curve33, 4)
    assert got == k - 1


def test_key_proof_refuses_a_shared_key_with_equal_p_inf_entries(
        curve23, monkeypatch):
    # at ell = Q - 1, x^0 and x^{-(Q-1)} are told apart by P_inf alone
    top = curve23.ctx.order - 1
    _at_infinity_one(monkeypatch, (-top, 0))
    k, got = _refused(curve23, top)
    assert got == k - 1


def test_key_proof_refuses_two_shared_keys(curve23, monkeypatch):
    # y and x^{-7} y share a key, as x^0 and x^{-7} do; all four are of
    # class 0 (c = Q - 1 = 7), and each pair differs at P_inf
    top = curve23.ctx.order - 1
    _with_basis(monkeypatch, (0, 1))
    _at_infinity_one(monkeypatch, (0, 1))
    k, got = _refused(curve23, top)
    assert got == k - 1


def test_key_proof_refuses_j_of_h(curve23, monkeypatch):
    # on the curve x^{-7} y^4 = 1 - x^{-7} (y^2 + y), three basis rows
    _with_basis(monkeypatch, (-7, curve23.h))
    k, got = _refused(curve23, 7)
    assert got == k - 1


def test_key_proof_refuses_p_inf_in_two_classes(curve33, monkeypatch):
    # only the constant, of class 0, is nonzero at P_inf; x^{-3} is of
    # class -3 mod 26.  The refusal is conservative: the rank is still k
    _at_infinity_one(monkeypatch, (-3, 0))
    k, got = _refused(curve33, 4)
    assert got == k


@pytest.mark.parametrize("value", ["zero", "scaled"])
@pytest.mark.parametrize("on_fibre", [True, False])
def test_class_proof_refuses_one_changed_entry(curve33, value, on_fibre):
    # an entry of value g^{-1} zeroed or scaled by g: a zero reads the
    # zero slot of log_np, past every unit's log, and the proof refuses it
    ctx = curve33.ctx
    g_inv = ctx.inv(ctx.generator)
    code = build_code(curve33, 4)
    matrix = code.matrix.copy()
    fibre = np.concatenate([[False], curve33.theta_coords[1] == 1])
    row, col = np.argwhere((matrix == g_inv) & (fibre == on_fibre))[0]
    matrix[row, col] = 0 if value == "zero" else ctx.mul(g_inv, ctx.generator)
    assert rank_by_classes(curve33, code.basis, matrix) is None
    assert rank(ctx, matrix) == code.k  # the full matrix decides


def test_class_proof_refuses_p_inf_in_two_classes(curve33):
    # only the constant, of class 0, is nonzero at P_inf; x^{-3} is of
    # class -3 mod 26
    code = build_code(curve33, 4)
    matrix = code.matrix.copy()
    (row,) = np.flatnonzero((code.basis[0] == -3) & (code.basis[1] == 0))
    matrix[row, 0] = 1
    assert rank_by_classes(curve33, code.basis, matrix) is None
    assert rank(curve33.ctx, matrix) == code.k


def test_class_proof_needs_p_inf_at_the_top_ell(curve23):
    # at ell = Q - 1, x^0 and x^{-(Q-1)} agree at every affine place and
    # fall in class 0: only P_inf tells them apart
    top = curve23.ctx.order - 1
    code = build_code(curve23, top)
    assert rank_by_classes(curve23, code.basis, code.matrix) is True
    zeroed = code.matrix.copy()
    zeroed[:, 0] = 0
    assert rank_by_classes(curve23, code.basis, zeroed) is False
    assert rank(curve23.ctx, zeroed) == code.k - 1


def test_class_proof_rejects_a_repeated_monomial(curve33, monkeypatch):
    basis = codes.basis_multipoint(curve33, 4)
    _with_basis(monkeypatch, basis[:, -1])
    k, got = _refused(curve33, 4)
    assert (k, got) == (basis.shape[1] + 1, basis.shape[1])
    repeated = codes.basis_multipoint(curve33, 4)
    matrix = evaluation_matrix(curve33, repeated, 0)
    assert rank_by_classes(curve33, repeated, matrix) is False  # a class falls short


def _relaid(q, r, order):
    """N_{q,r} with its affine columns taken in the given order."""
    curve = build_curve(q, r)
    _, xs, ys = curve.theta_coords
    curve.__dict__["theta_coords"] = (np.arange(1, len(order) + 1),
                                      xs[order], ys[order])
    return curve


def test_class_proof_falls_back_without_the_unit_fibre():
    # more than deg G = ell*h places remain, so the rank is still k
    want = build_code(build_curve(3, 3), 4)
    kept = np.flatnonzero(build_curve(3, 3).theta_coords[1] != 1)
    curve = _relaid(3, 3, kept)
    assert theta_orbits(curve) is None
    matrix = evaluation_matrix(curve, want.basis, 0)
    assert rank_by_classes(curve, want.basis, matrix) is None
    assert rank(curve.ctx, matrix) == want.k
    assert np.array_equal(matrix[:, 0], want.matrix[:, 0])
    assert np.array_equal(matrix[:, 1:], want.matrix[:, 1 + kept])


def test_theta_orbits_need_whole_orbits_each_place_once():
    curve = build_curve(2, 3)
    order = np.arange(len(curve.theta_coords[1]))
    assert theta_orbits(_relaid(2, 3, np.append(order, 5))) is None
    assert theta_orbits(_relaid(2, 3, np.delete(order, 5))) is None
    # whole orbits are enough: the proof needs no particular orbit
    fewer = _relaid(2, 3, np.setdiff1d(order, theta_orbits(curve)[2]))
    assert theta_orbits(fewer).shape == (curve.h - 1, curve.ctx.order - 1)


def test_class_proof_finds_the_fibre_anywhere():
    # the orbits are found in any order of the affine columns
    want = build_code(build_curve(3, 3), 5)
    order = np.random.default_rng(3).permutation(want.n - 1)
    curve = _relaid(3, 3, order)
    assert theta_orbits(curve) is not None
    matrix = evaluation_matrix(curve, want.basis, 0)
    assert rank_by_classes(curve, want.basis, matrix) is True
    assert np.array_equal(matrix[:, 1:], want.matrix[:, 1 + order])


def test_theta_orbits_are_scaling_orbits(curve23, curve33, curve24):
    # row u runs through (1, y_u) at x = g^l, y = y_u g^{lc}
    for curve in (curve23, curve33, curve24):
        ctx = curve.ctx
        _, xs, ys = curve.theta_coords
        orbits = theta_orbits(curve)
        assert orbits.shape == (curve.h, ctx.order - 1)
        assert sorted(orbits.ravel().tolist()) == list(range(len(xs)))
        g = [ctx.pow(ctx.generator, l) for l in range(ctx.order - 1)]
        for row in orbits.tolist():
            y_u = int(ys[row[0]])
            assert [(int(xs[a]), int(ys[a])) for a in row] == [
                (b, ctx.mul(y_u, ctx.pow(b, curve.c))) for b in g]


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


@pytest.mark.parametrize("q, r", [(2, 3), (3, 3), (2, 4), (4, 3)])
def test_dimension_closed_form_equals_the_lattice_count(q, r):
    # the integer closed form at every ell, against the count of
    # {(i, j): i >= 0, j < h, i h + j c <= ell h}
    for ell in range(1, q ** r):
        assert dimension_closed_form(q, r, ell) == lattice_dimension(q, r, ell)


def test_delta_branches_q3():
    # ell = 3, 2, 4 hit the three residues of ell mod q = 3 (0, q-1,
    # other), where the floor-sum has its special cases
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
    # prod (1 - c t) over c = 1, 2, 3 in t = x^{-1}: the constant term 1,
    # the only one of valuation 0, is the value at P_inf
    assert witness_function(curve23, 3).tolist() == [1, 0, 7, 6]


@pytest.mark.parametrize("q, r", [(2, 3), (3, 3), (2, 4)])
def test_witness_codeword_matches_scalar_evaluation(q, r):
    curve = build_curve(q, r)
    for ell in range(1, q ** r):
        code = build_code(curve, ell)
        c_list = random.Random(ell).sample(range(1, curve.ctx.order), ell)
        for cs in (None, c_list):
            f = [(c, -e, 0) for e, c in
                 enumerate(witness_function(curve, ell, cs).tolist())]
            want = [evaluate_at(curve, f, P) for P in code.curve.theta]
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


def test_min_distance_matches_naive_oracle(curve23, curve33, monkeypatch):
    code = build_code(curve23, 2)  # 8^4 = 4096 messages, characteristic 2
    assert min_distance_exhaustive(code, 10 ** 6) == naive_min_weight(code)
    code33 = build_code(curve33, 1)  # 27^2 = 729 messages, odd characteristic
    naive = naive_min_weight(code33)
    assert min_distance_exhaustive(code33, 10 ** 6) == naive == code33.d_star
    # force the prefix-sweep split in both characteristics
    monkeypatch.setattr(codes, "TABLE_MAX_WORDS", 64)
    assert min_distance_exhaustive(code, 10 ** 6) == 21
    monkeypatch.setattr(codes, "TABLE_MAX_WORDS", 27)
    assert min_distance_exhaustive(code33, 10 ** 6) == naive


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
        found = monomial_equivalence_check(ca, cb)
        assert found is not None
        proof = equivalence_diagonal(curve23, ell)
        assert np.array_equal(found, proof)
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
        found = monomial_equivalence_check(ca, cb)
        assert found is not None
        assert np.array_equal(found, equivalence_diagonal(cv, ell))


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
        assert np.array_equal(monomial_equivalence_check(ca, cb), diag)


def test_monomial_equivalence_self_and_failure(curve23):
    code2 = build_code(curve23, 2)
    assert np.array_equal(monomial_equivalence_check(code2, code2),
                          np.ones(29, dtype=np.int64))
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
    other = with_matrix(other, ctx.vmul(mixed, diag[None, :]))
    found = monomial_equivalence_check(code, other)
    assert found is not None
    scaled = ctx.vmul(code.matrix, found[None, :])
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
    zeroed = with_matrix(code, matrix)
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


# every ell of (2,3) and (2,4), and four of (3,3)
CANONICAL_ELLS = [(2, 3, range(1, 8)), (2, 4, range(1, 16)),
                  (3, 3, (1, 2, 13, 26))]


def _canonical_pairs(q, r, ells):
    curve = build_curve(q, r)
    return [(curve, ell, build_code(curve, ell),
             extended_one_point_code(curve, ell)) for ell in ells]


@pytest.mark.parametrize("q, r, ells", CANONICAL_ELLS)
def test_entrywise_diagonal_on_logs_equals_the_column_oracle(q, r, ells):
    # the diagonal read off the two log matrices is the scalar column
    # oracle's on the int64 matrices, and the explicit x(P)^ell
    for curve, ell, ca, cb in _canonical_pairs(q, r, ells):
        ctx = curve.ctx
        got = codes._entrywise_diagonal(ctx, ca.log_matrix, cb.log_matrix)
        assert got.dtype == np.int64
        assert np.array_equal(
            got, entrywise_diagonal_by_columns(ctx, ca.matrix, cb.matrix))
        assert np.array_equal(got, equivalence_diagonal(curve, ell))


@pytest.mark.parametrize("q, r, ells", CANONICAL_ELLS)
def test_entrywise_diagonal_on_logs_has_teeth(q, r, ells):
    # one entry of B zeroed, or one nonzero ratio changed in a column
    # with two nonzero entries: no diagonal, as by the column oracle
    for curve, ell, ca, cb in _canonical_pairs(q, r, ells):
        ctx = curve.ctx
        zero, n1 = ctx.log_np.item(0), ctx.order - 1
        nonzero = ca.log_matrix != zero
        col = int(np.flatnonzero(nonzero.sum(axis=0) >= 2)[-1])
        row = int(np.flatnonzero(nonzero[:, col])[-1])
        for value in (zero, (int(cb.log_matrix[row, col]) + 1) % n1):
            logs = cb.log_matrix.copy()
            logs[row, col] = value
            assert codes._entrywise_diagonal(ctx, ca.log_matrix, logs) is None
            assert entrywise_diagonal_by_columns(
                ctx, ca.matrix, ctx.exp_np[logs]) is None


def _no_matrix(code):
    raise AssertionError("AGCode.matrix was gathered")


@pytest.mark.parametrize("q, r, ells", CANONICAL_ELLS)
def test_monomial_equivalence_of_canonical_pairs_gathers_no_matrix(
        q, r, ells, monkeypatch):
    # the entrywise path reads the log matrices alone
    monkeypatch.setattr(codes.AGCode, "matrix", property(_no_matrix))
    for curve, ell, ca, cb in _canonical_pairs(q, r, ells):
        assert np.array_equal(monomial_equivalence_check(ca, cb),
                              equivalence_diagonal(curve, ell))


def test_length_mismatch_raises(curve23, curve33):
    with pytest.raises(ValueError):
        monomial_equivalence_check(build_code(curve23, 1), build_code(curve33, 1))


def test_report(curve23):
    code = build_code(curve23, 2)
    rep = code.parameters()
    assert rep["q"] == 2 and rep["r"] == 3 and rep["ell"] == 2
    assert rep["n"] == 29 and rep["k"] == 4 and rep["d_star"] == 21
    assert code.basis.shape == (2, 4)
    assert code.matrix.shape == (4, 29)
    # every field is a scalar: code-build writes the basis and the
    # matrix after them
    assert not any(isinstance(v, (list, dict)) for v in rep.values())
