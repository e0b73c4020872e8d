import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from normtrace import autgroup, cli, codes, sepcurve
from normtrace.cli import main
from normtrace.curve import build_curve
from normtrace.gf import MAX_ORDER, field_from_dict
from oracles import hermitian_stabilizer_order, prime_powers

CASE_II_SPEC = {"p": 2, "field": {"p": 2, "k": 1},
                "A": [{"j": 0, "a_j_index": 1}, {"j": 1, "a_j_index": 1},
                      {"j": 2, "a_j_index": 1}],
                "B": [0, 0, 0, 1]}


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_curve_info_text(capsys):
    rc, out, _ = run(capsys, "curve-info", "--q", "2", "--r", "3")
    assert rc == 0
    assert "genus: 9" in out
    assert "rational places: 33" in out
    assert "|Omega| (zeros of x): 4" in out


def test_curve_info_json(capsys):
    rc, out, _ = run(capsys, "curve-info", "--q", "3", "--r", "3",
                     "--format", "json")
    assert rc == 0
    rec = json.loads(out)
    assert rec["genus"] == 48
    assert rec["n_places"] == 244


def test_curve_info_rejects_r1(capsys):
    rc, out, err = run(capsys, "curve-info", "--q", "2", "--r", "1")
    assert rc == 1
    assert "error" in err


def test_code_table_csv(capsys):
    rc, out, _ = run(capsys, "code-table", "--q", "2", "--r", "3")
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 7
    assert [int(row["k_rank"]) for row in rows] == [2, 4, 6, 9, 12, 16, 20]
    assert all(row["k_rank"] == row["k_formula"] for row in rows)
    assert all(row["formulas_agree"] == "True" for row in rows)
    assert rows[0]["d_exact"] == "25" and rows[0]["d_star"] == "25"


def test_code_table_single_ell_json(capsys):
    rc, out, _ = run(capsys, "code-table", "--q", "2", "--r", "3",
                     "--ell", "2", "--format", "json")
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 1 and rows[0]["n"] == 29 and rows[0]["k_rank"] == 4


def test_code_build_json(capsys):
    rc, out, _ = run(capsys, "code-build", "--q", "2", "--r", "3", "--ell", "1")
    assert rc == 0
    rep = json.loads(out)
    assert rep["n"] == 29 and rep["k"] == 2 and rep["d_star"] == 25
    assert len(rep["matrix"]) == 2 and len(rep["matrix"][0]) == 29
    assert rep["basis"] == [{"i": -1, "j": 0}, {"i": 0, "j": 0}]


def test_code_build_csv_matrix(capsys):
    rc, out, _ = run(capsys, "code-build", "--q", "2", "--r", "3",
                     "--ell", "1", "--format", "csv")
    assert rc == 0
    rows = [r for r in csv.reader(io.StringIO(out)) if r]
    assert len(rows) == 2 and len(rows[0]) == 29


def test_min_dist(capsys):
    rc, out, _ = run(capsys, "min-dist", "--q", "2", "--r", "3",
                     "--ell", "1", "--format", "json")
    assert rc == 0
    rec = json.loads(out)
    assert rec["d_exact"] == 25 and rec["attains_designed"]


def test_min_dist_fails_when_the_distance_misses_d_star(capsys, monkeypatch):
    monkeypatch.setattr(codes, "min_distance_exhaustive",
                        lambda code, budget, stop_at: code.d_star + 1)
    rc, out, _ = run(capsys, "min-dist", "--q", "2", "--r", "3",
                     "--ell", "1", "--format", "json")
    assert rc == 1 and json.loads(out)["attains_designed"] is False
    rc, out, _ = run(capsys, "min-dist", "--q", "2", "--r", "3", "--ell", "1")
    assert rc == 1 and "exhaustive d = 26" in out


def test_aut_verify(capsys):
    rc, out, _ = run(capsys, "aut-verify", "--q", "2", "--r", "3", "--ell", "2")
    assert rc == 0
    assert "order 28" in out
    assert "FAIL" not in out
    assert out.count("PASS") == 8


def test_aut_verify_json_orbits(capsys):
    rc, out, _ = run(capsys, "aut-verify", "--q", "2", "--r", "3",
                     "--ell", "1", "--format", "json")
    assert rc == 0
    rec = json.loads(out)
    assert rec["group_order"] == 28
    assert rec["short_orbit_sizes"] == [1, 4]
    assert sorted(len(o) for o in rec["short_orbits"]) == [1, 4]
    assert all(c["pass"] for c in rec["checks"])


@pytest.mark.parametrize("q, order, stabilizer", [(2, 6, 24), (3, 24, 216)])
def test_aut_verify_names_the_group_it_checks_on_r_2(capsys, q, order,
                                                     stabilizer):
    # N_{q,2} is Hermitian (m = q + 1 = 1 mod q), outside the paper's
    # theorem: its full group PGU(3, q) is larger than the group G that
    # aut-verify checks, and already the maps that keep P_inf and the
    # affine places outnumber G.  The r = 3 header keeps the paper's name.
    rc, out, _ = run(capsys, "aut-verify", "--q", str(q), "--r", "2",
                     "--ell", "1")
    assert rc == 0 and "FAIL" not in out
    assert out.splitlines()[0] == ("group G of the maps (x, y) -> "
                                   f"(bx, b^c y + a) on N_{{{q},2}}: "
                                   f"order {order}")
    assert hermitian_stabilizer_order(build_curve(q, 2)) == stabilizer
    assert stabilizer > order
    rc, out, _ = run(capsys, "aut-verify", "--q", str(q), "--r", "2",
                     "--ell", "1", "--format", "json")
    assert rc == 0 and json.loads(out)["group_order"] == order
    rc, out, _ = run(capsys, "aut-verify", "--q", str(q), "--r", "3",
                     "--ell", "1")
    assert out.startswith(f"automorphism group of N_{{{q},3}}: order ")


@pytest.mark.parametrize("q, r, fmt, digest", [
    ("2", "3", "text",
     "af9cddb9fa38d6557731835480f0e01611b602b796fa21a3d68efe28c0120882"),
    ("3", "3", "text",
     "c4070bf9b85dc17019ccdf5c766adb3b6147df6da9e21422a19ffcef8be0ba4b"),
    ("2", "4", "text",
     "6ec69fc0580635b84c7ae3df1ce9c51882992bed1b92f58158915d6a61d83688"),
    ("2", "3", "json",
     "b5e947c1b86315713542b395d505fcbb10da0bf8ea28cd2040a08e0495a1805b"),
    ("3", "3", "json",
     "22b96b7ed6362139eed7278fe4cf25bdb88899d04c356a22acdbdef117f02a4f"),
])
def test_aut_verify_stdout_is_pinned(capsys, q, r, fmt, digest):
    rc, out, _ = run(capsys, "aut-verify", "--q", q, "--r", r, "--ell", "2",
                     "--format", fmt)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    ("field-info --q 65536",
     "52cf0d58574fceda37bbd9b5bc10e56d39d430aa859844bdf1048b8bfdfeb713"),
    ("field-info --q 59049",
     "9b9305d6abee487c7903fde29191cc39c8ce20645e35a645698fc7a89c16d888"),
    ("field-info --q 262144",
     "79d304e618ee514e61e6a6c46beb106f861f791f84bc9b5007dc19ebbda69ac7"),
    # the largest field of each shape: 2^20, 3^12, 5^8, 7^7, 1021^2 and
    # the prime 1048573 (digests recorded before the array bootstrap)
    ("field-info --q 1048576 --format json",
     "c35be169594f61896083445fdd472fcf7f6c675b170c105554173c7b1c4d6407"),
    ("field-info --q 531441 --format json",
     "e14727474976f03443e60a3f3a3fcd0121b16810ef04afba5aa5c504799109ed"),
    ("field-info --q 390625 --format json",
     "ce0d0114995d6d200a3bae0434666094d54ddb51afbe84b4dff66948c53bbc06"),
    ("field-info --q 823543 --format json",
     "9329c024dc8260e99434137281b000a48d830ded3cc62c595741e82d14e07125"),
    ("field-info --q 1042441 --format json",
     "f7a327d7619a15ca215426c0c81b5d142e98d54326582874f1b18ec385fb85fb"),
    ("field-info --q 1048573 --format json",
     "e1321b4c74a809cbb5a62b03bd9ec88b7cb677d1325d9c21b5947b6351111452"),
    ("curve-info --q 4 --r 5",
     "3522a8e6d054ed9b5b615a5086e114501f6db00f711570dbe074ffd2ea0a28c1"),
    ("curve-info --q 16 --r 3",
     "a0b2d8dcb68f1adb9e4a023d1ae9a2940d31a6a8aac6061d7d845f90d6eaaf5d"),
])
def test_large_field_and_curve_stdout_is_pinned(capsys, argv, digest):
    rc, out, _ = run(capsys, *argv.split())
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_field_info_json_over_every_extension_order_is_pinned(capsys):
    # the canonical modulus and generator of all 242 fields GF(p^k),
    # k >= 2, of order <= 2^20, ascending (digest recorded before the
    # modulus search moved to plain integers)
    digest = hashlib.sha256()
    orders = [p ** k for p, k in prime_powers(MAX_ORDER) if k >= 2]
    assert len(orders) == 242
    for q in orders:
        rc, out, _ = run(capsys, "field-info", "--q", str(q), "--format", "json")
        assert rc == 0
        digest.update(out.encode())
    assert digest.hexdigest() == (
        "ed31800bf4cedb68b6e8e2d48ce4c2c768d10ad174166a051fa54a5fc21e7f82")


def test_curve_info_memory_is_bounded(capsys):
    # the 1,048,577 Place objects of N_{16,3} alone take over 100 MB
    tracemalloc.start()
    try:
        rc, out, _ = run(capsys, "curve-info", "--q", "16", "--r", "3")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and "rational places: 1048577" in out
    assert peak < 64 << 20


def test_min_dist_table_follows_the_search(capsys):
    # (3,3) ell=2 stops in its first sweeps; a table of 27^3 words of
    # length 235, built before the first sweep, peaked at 41.8 MB
    tracemalloc.start()
    try:
        rc, out, _ = run(capsys, "min-dist", "--q", "3", "--r", "3",
                         "--ell", "2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and "exhaustive d = 217" in out
    assert peak < 4 << 20


def test_field_info_keeps_no_list_copies(capsys, monkeypatch):
    # GF(2^20): the exp and log arrays take 24 MB and the Python lists the
    # scalar methods read would add 80 MB; field-info prints only the
    # modulus and the generator, so it builds neither (0.24 MB measured)
    built, field_of_order = [], cli._field_of_order

    def record(q):
        built.append(field_of_order(q))
        return built[-1]

    monkeypatch.setattr(cli, "_field_of_order", record)
    tracemalloc.start()
    try:
        rc, out, _ = run(capsys, "field-info", "--q", "1048576")
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0 and "GF(1048576) = GF(2^20)" in out
    assert kept < 2 << 20 and peak < 2 << 20
    ctx = built[0]
    before = set(vars(ctx))
    assert "exp_np" not in before and "log_np" not in before
    # the first scalar ops fill both arrays, read them and put nothing
    # else on the field: no list copy of either table
    assert ctx.mul(2, 3) == 6 and ctx.div(6, 3) == 2 and ctx.neg(5) == 5
    assert ctx.inv(1) == 1 and ctx.pow(2, 3) == 8 and ctx.add(6, 3) == 5
    assert set(vars(ctx)) - before == {"exp_np", "log_np"}


def test_curve_info_counts_places_without_building_them(capsys, monkeypatch):
    built = []

    def record(q, r):
        built.append(build_curve(q, r))
        return built[-1]

    monkeypatch.setattr(cli, "build_curve", record)
    rc, out, _ = run(capsys, "curve-info", "--q", "16", "--r", "3")
    assert rc == 0 and "rational places: 1048577" in out
    assert "|Omega| (zeros of x): 256" in out
    rc, out, _ = run(capsys, "curve-info", "--q", "16", "--r", "3",
                     "--format", "json")
    assert rc == 0 and len(json.loads(out)["div_x"]) == 257
    # the count is read off the trace fibres: no 1,048,576-entry arrays;
    # |Omega| is h, and JSON's div_x record is written from the fibre
    # x = 0, so neither format builds a Place
    for curve in built:
        assert not {"places", "affine_xy", "omega"} & set(vars(curve))


def test_aut_verify_fails_on_a_doctored_group(capsys, monkeypatch):
    full = autgroup.group_arrays
    monkeypatch.setattr(autgroup, "group_arrays",
                        lambda curve: tuple(v[:-1] for v in full(curve)))
    rc, out, _ = run(capsys, "aut-verify", "--q", "2", "--r", "3", "--ell", "2")
    assert rc == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == ["FAIL  group order  [27 (expected 28)]",
                      "FAIL  closure/associativity  [exhaustive]",
                      "FAIL  inverses"]
    # the code checks read generators of the whole group: not run
    assert "code invariance" not in out


def test_aut_verify_proves_invariance_without_the_rref(capsys, monkeypatch):
    # the transfer matrices decide every generator: no row space is built
    def no_rref(code):
        raise AssertionError("row_space was computed")

    monkeypatch.setattr(codes.AGCode, "row_space", no_rref)
    start = time.perf_counter()
    rc, out, _ = run(capsys, "aut-verify", "--q", "4", "--r", "3",
                     "--ell", "31")
    assert time.perf_counter() - start < 5.0
    assert rc == 0
    assert out.count("PASS") == 8 and "code invariance: 1008" in out


@pytest.mark.parametrize("q,r", [(7, 3), (2, 8)])
def test_aut_verify_checks_groups_in_order_of_the_group(capsys, monkeypatch,
                                                        q, r):
    # |G| n is about 2.8e8 and 2.9e8: the group is checked as its (a, b)
    # arrays, with no CurveAut per element and fixed places counted in
    # closed form, so the whole run takes well under 2 s
    def per_element(*args):
        raise AssertionError("per-element group work")

    for name in ("enumerate_group", "fixed_places"):
        monkeypatch.setattr(autgroup, name, per_element)
    start = time.perf_counter()
    rc, out, err = run(capsys, "aut-verify", "--q", str(q), "--r", str(r),
                       "--ell", "1")
    assert time.perf_counter() - start < 2.0
    assert rc == 0 and err == ""
    assert out.count("PASS") == 8 and "FAIL" not in out


@pytest.mark.parametrize("command", ["code-build", "aut-verify"])
def test_oversized_matrix_gather_is_refused_before_allocating(
        capsys, monkeypatch, command):
    # N_{16,3} at ell = 300: the 42121 x 1048321 matrix would take about
    # 600 GB; refused before the gather, and before any group work
    monkeypatch.setattr(autgroup, "group_arrays", None)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        rc, out, err = run(capsys, command, "--q", "16", "--r", "3",
                           "--ell", "300")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert rc == 1 and out == ""
    assert err.startswith("error: the 42121 x 1048321 generator matrix "
                          "needs about")
    assert f"above the limit {codes.TABLE_MAX_BYTES}" in err
    assert "Traceback" not in err
    assert peak < 200 << 20


def test_classify(capsys, tmp_path):
    path = tmp_path / "case_ii.json"
    path.write_text(json.dumps(CASE_II_SPEC))
    rc, out, _ = run(capsys, "classify", "--spec", str(path),
                     "--search-field", "64")
    assert rc == 0
    assert "monomial-case-ii" in out
    assert "12 maps found" in out
    rc, out, _ = run(capsys, "classify", "--spec", str(path),
                     "--search-field", "64", "--format", "json")
    rec = json.loads(out)
    assert rec["search_count"] == 12
    assert rec["predicted_stabilizer_order"] == 12
    assert rec["search_matches_prediction"] is True


def test_classify_exits_1_on_a_failing_record(capsys, tmp_path, monkeypatch):
    path = tmp_path / "case_ii.json"
    path.write_text(json.dumps(CASE_II_SPEC))
    rc, want, err = run(capsys, "classify", "--spec", str(path),
                        "--search-field", "64")
    assert rc == 0 and err == ""
    search = sepcurve.brute_force_stabilizer_search

    def without_identity(*args, **kw):
        maps = search(*args, **kw)
        return maps[(maps.a != 1) | (maps.b != 1) | (maps.c0 != 0)
                    | maps.q.any(axis=1)]

    monkeypatch.setattr(sepcurve, "brute_force_stabilizer_search",
                        without_identity)
    rc, out, err = run(capsys, "classify", "--spec", str(path),
                       "--search-field", "64")
    assert rc == 1
    assert out == want.replace("12 maps found", "11 maps found")
    assert err.splitlines() == ["FAIL  translations  [3 (expected 4)]",
                                "FAIL  stabilizer order  [11 (expected 12)]"]


# p = 2, A = Y^4 + Y^2 + Y, B = X^7 + X^6 + X^5 + X^3 = (X + 1)^7 + A(X) + 1:
# a B that has one root once normalized, read as several roots as written
# (ROADMAP item 11)
UNNORMALIZED_B_SPEC = {**CASE_II_SPEC, "B": [0, 0, 0, 1, 0, 1, 1, 1]}


def test_classify_of_an_unnormalized_b_is_pinned(capsys, tmp_path):
    # the search over GF(8) finds 28 maps, |H| = 7, which the bound read
    # off the roots of B as written does not admit
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(UNNORMALIZED_B_SPEC))
    rc, out, err = run(capsys, "classify", "--spec", str(path),
                       "--search-field", "8")
    assert "stabilizer search over GF(8): 28 maps found" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ab3fe72ff3656fd1194146fd324109cc742f8e0da12ad87aa31f4e25ca276230")
    assert err == "FAIL  |H| divides one of [3, 2]  [|H| = 7]\n"
    assert rc == 1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 11: decide one root "
                   "on the normalized B; B as written gives exit 1")
def test_classify_of_an_unnormalized_b_passes(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(UNNORMALIZED_B_SPEC))
    rc, _, _ = run(capsys, "classify", "--spec", str(path),
                   "--search-field", "8")
    assert rc == 0


def test_classify_refuses_m_1_mod_pn_with_several_roots(capsys, tmp_path):
    # Y^2 + Y = X^5 + X^3 + X^2: m = 5 is 1 mod 2, and its search over
    # GF(16) would find |H| = 4, which divides neither of [2, 1]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**CASE_II_SPEC,
                                "A": [{"j": 0, "a_j_index": 1},
                                      {"j": 1, "a_j_index": 1}],
                                "B": [0, 0, 1, 1, 0, 1]}))
    rc, out, err = run(capsys, "classify", "--spec", str(path),
                       "--search-field", "16")
    assert rc == 1 and out == ""
    assert err == ("error: m = 5 is 1 mod p^n = 2: outside the "
                   "classification\n")


def test_parser_is_built_once_and_reused(capsys, tmp_path):
    # two subcommands, an argparse error (exit 2), then the erring
    # subcommand again: each prints what a freshly built parser prints
    path = tmp_path / "case_ii.json"
    path.write_text(json.dumps(CASE_II_SPEC))
    argvs = [["field-info", "--q", "27"],
             ["classify", "--spec", str(path), "--search-field", "64"],
             ["code-table", "--q", "2", "--r", "three"],
             ["code-table", "--q", "2", "--r", "3", "--ell-max", "2"]]

    def outcome(argv):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = ("exit", exc.code)
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    cli._build_parser.cache_clear()
    assert [outcome(argv) for argv in argvs] == fresh
    assert cli._build_parser.cache_info().misses == 1
    assert fresh[2][0] == ("exit", 2) and "invalid int value" in fresh[2][2]
    assert all(rc == 0 and out for rc, out, _ in fresh[:2] + fresh[3:])


def test_classify_rejects_search_field_zero(capsys, tmp_path):
    path = tmp_path / "case_ii.json"
    path.write_text(json.dumps(CASE_II_SPEC))
    rc, out, err = run(capsys, "classify", "--spec", str(path),
                       "--search-field", "0")
    assert rc == 1 and out == ""
    assert err.startswith("error:")


def test_classify_missing_file(capsys):
    rc, _, err = run(capsys, "classify", "--spec", "/no/such/file.json")
    assert rc == 1
    assert "/no/such/file.json" in err


def test_field_info_roundtrip(capsys):
    rc, out, _ = run(capsys, "field-info", "--q", "27", "--format", "json")
    assert rc == 0
    ctx = field_from_dict(json.loads(out))
    assert ctx.order == 27


def test_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "code-table", "--q", "2", "--r", "3")
    _, out2, _ = run(capsys, "code-table", "--q", "2", "--r", "3")
    assert out1 == out2


def test_out_file(capsys, tmp_path):
    target = tmp_path / "table.csv"
    rc, out, _ = run(capsys, "code-table", "--q", "2", "--r", "3",
                     "--out", str(target))
    assert rc == 0
    assert out == ""
    assert target.read_text().startswith("ell,")


def test_out_file_that_cannot_be_written(capsys, tmp_path):
    target = tmp_path / "missing" / "x"
    rc, out, err = run(capsys, "field-info", "--q", "8", "--out", str(target))
    assert rc == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {target}:")
    assert "Traceback" not in err


def test_budget_flag_controls_exhaustive_column(capsys):
    rc, out, _ = run(capsys, "code-table", "--q", "2", "--r", "3",
                     "--ell", "3", "--budget", "1000")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["d_exact"] == ""  # 8^6 exceeds the budget


@pytest.mark.parametrize("argv", [
    ["field-info", "--q", "2305843009213693951"],
    ["curve-info", "--q", "2305843009213693951", "--r", "2"],
    ["curve-info", "--q", "3", "--r", "100000000"],
    ["classify", "--spec", "{big_spec}"],
    ["classify", "--spec", "{small_spec}",
     "--search-field", "2305843009213693951"],
])
def test_oversized_orders_refused_before_factoring(capsys, tmp_path, argv):
    # 2^61 - 1 is prime: trial division to its square root, or forming
    # 3^100000000, would run for far longer than the limit check.
    big, small = tmp_path / "big.json", tmp_path / "small.json"
    p = 2305843009213693951
    big.write_text(json.dumps({"p": p, "field": {"p": p, "k": 1},
                               "A": [{"j": 0, "a_j_index": 1}],
                               "B": [0, 0, 1]}))
    small.write_text(json.dumps(CASE_II_SPEC))
    argv = [a.format(big_spec=big, small_spec=small) for a in argv]
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "exceeds limit" in err


def test_min_dist_notice_counts_projective_messages(capsys):
    rc, out, err = run(capsys, "min-dist", "--q", "2", "--r", "3",
                       "--ell", "4", "--budget", str(8 ** 9))
    assert rc == 0
    assert out == "[n=29, k=9] d* = 13, exhaustive d = 13\n"
    assert err == (f"enumerating up to {(8 ** 9 - 1) // 7} messages, "
                   f"stopping at weight d* = 13 ...\n")


@pytest.mark.parametrize("j", [100000, 10 ** 9])
def test_oversized_a_degree_refused_before_forming_it(capsys, tmp_path, j):
    # 2^100000 has over 4300 digits and 2^(10^9) takes minutes to form
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        {**CASE_II_SPEC, "A": [{"j": 0, "a_j_index": 1},
                               {"j": j, "a_j_index": 1}]}))
    start = time.perf_counter()
    rc, out, err = run(capsys, "classify", "--spec", str(path))
    assert time.perf_counter() - start < 1.0
    assert rc == 1 and out == ""
    assert err.startswith(f"error: A(Y) degree 2^{j} exceeds limit")


@pytest.mark.parametrize("argv", [
    ["curve-info", "--q", "2", "--r", "12"],
    ["aut-verify", "--q", "1024", "--r", "2", "--ell", "1"],
    ["code-table", "--q", "256", "--r", "2"],
])
def test_oversized_curves_refused_before_building(capsys, argv):
    # each field is within the order limit, but the curve has more than
    # 2^21 places: enumerating them would hang or exhaust memory
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "places, above the limit" in err


@pytest.mark.parametrize("command", ["code-build", "code-table", "min-dist",
                                     "aut-verify"])
@pytest.mark.parametrize("q,r", [(81, 2), (17, 3)])
def test_fields_above_the_table_limit_refused_before_places(capsys, command,
                                                            q, r):
    # within the place limit, but GF(q^r) is above the 4096 limit of the
    # linear algebra: refused before 531,441 (or 1,419,857) places
    start = time.perf_counter()
    rc, out, err = run(capsys, command, "--q", str(q), "--r", str(r),
                       "--ell", "1")
    assert time.perf_counter() - start < 1.0
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "table limit 4096" in err


@pytest.mark.parametrize("spec", [
    {"p": 2},
    [CASE_II_SPEC],
    {**CASE_II_SPEC, "A": [{"j": 0}]},
    {**CASE_II_SPEC, "B": [0, 0, 0, 2]},
    # a later j = 0 term must not silently replace the zero a_0
    {**CASE_II_SPEC, "A": [{"j": 0, "a_j_index": 0}, {"j": 2, "a_j_index": 1},
                           {"j": 1, "a_j_index": 1}, {"j": 0, "a_j_index": 1}]},
], ids=["no-field", "a-list", "no-a_j_index", "index-outside-GF2",
        "repeated-j"])
def test_malformed_spec_is_an_error(capsys, tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    rc, out, err = run(capsys, "classify", "--spec", str(path))
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("modulus", [[1, 0, 1, 0, 1], [1, 1, 1, 1, 1, 1, 1]],
                         ids=["refused-at-step-2", "refused-at-step-3"])
def test_reducible_spec_modulus_is_an_error(capsys, tmp_path, modulus):
    # (X^2 + X + 1)^2 and (X^3 + X + 1)(X^3 + X^2 + 1) over GF(2)
    path = tmp_path / "spec.json"
    field = {"p": 2, "k": len(modulus) - 1, "modulus": modulus}
    path.write_text(json.dumps({**CASE_II_SPEC, "field": field}))
    rc, out, err = run(capsys, "classify", "--spec", str(path))
    assert rc == 1 and out == ""
    assert err == f"error: modulus {modulus} is reducible over GF(2)\n"


def test_classify_refuses_a_b_without_splitting_field_at_once(capsys, tmp_path):
    # B = X^59 + X = X (X^29 + 1)^2 over GF(2) splits first over GF(2^28);
    # B divides no X^(64 2^t) - X^64 below t = 28, which rules out each
    # smaller extension without building it
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**CASE_II_SPEC, "B": [0, 1] + [0] * 57 + [1]}))
    start = time.process_time()
    rc, out, err = run(capsys, "classify", "--spec", str(path))
    assert time.process_time() - start < 1
    assert rc == 1 and out == ""
    assert err == "error: field order 2^21 exceeds limit 1048576\n"


def _large_b_spec(p):
    """B of degree 3003: X^3003 + X^3002 + X under CASE_II_SPEC over
    GF(2), where the root analysis's polynomial steps, quadratic in
    deg B, took 57 s before the field limit refused; a random monic B
    under Y^p + Y over GF(10007), where the monomial test's expansion by
    square-and-multiply (now the oracle oracles.poly_power) took about
    5 s of CPU before b_roots refused."""
    b = [0] * 3004
    if p == 2:
        b[1] = b[3002] = b[3003] = 1
        return {**CASE_II_SPEC, "B": b}
    rng = random.Random(3003)
    b = [rng.randrange(p) for _ in range(3003)] + [1]
    return {"p": p, "field": {"p": p, "k": 1},
            "A": [{"j": 0, "a_j_index": 1}, {"j": 1, "a_j_index": 1}],
            "B": b}


@pytest.mark.parametrize("p", [2, 10007], ids=["gf2", "gf10007"])
def test_classify_refuses_a_b_of_large_degree_at_once(capsys, tmp_path, p):
    # the degree is refused before the first polynomial step, and the
    # monomial test before it is linear in deg B
    spec = _large_b_spec(p)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    start = time.process_time()
    rc, out, err = run(capsys, "classify", "--spec", str(path))
    assert time.process_time() - start < 0.1
    assert rc == 1 and out == ""
    assert err == (f"error: deg B = 3003 exceeds the limit "
                   f"{sepcurve.MAX_B_DEGREE} of the root analysis\n")


def test_classify_at_the_b_degree_limit(capsys, tmp_path):
    # Y^3 + 2 Y = X^m + 2 X^(m-1) = X^(m-1) (X - 1) over GF(3), with m
    # the limit: the root analysis runs
    m = sepcurve.MAX_B_DEGREE
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "p": 3, "field": {"p": 3, "k": 1},
        "A": [{"j": 0, "a_j_index": 2}, {"j": 1, "a_j_index": 1}],
        "B": [0] * (m - 1) + [2, 1]}))
    rc, out, err = run(capsys, "classify", "--spec", str(path))
    assert rc == 0 and err == ""
    assert (f"|H| divides one of [{m - 1}, {m - 2}] (unique-multiple-root)"
            in out.splitlines())


@pytest.mark.parametrize("bounds", [["--ell", "0"], ["--ell-max", "0"],
                                    ["--ell", "3", "--ell-max", "0"],
                                    ["--ell", "8"], ["--ell-max", "8"]])
def test_code_table_rejects_ell_out_of_range(capsys, bounds):
    rc, out, err = run(capsys, "code-table", "--q", "2", "--r", "3", *bounds)
    assert rc == 1 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_must_be_positive(capsys, budget):
    rc, out, err = run(capsys, "code-table", "--q", "2", "--r", "3",
                       "--budget", budget)
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "budget must be positive" in err


@pytest.mark.parametrize("q", ["2", "3"])
def test_negative_seed_is_refused_on_every_group(capsys, q):
    # (2,3) checks all pairs and never draws; (3,3) samples with the seed
    rc, out, err = run(capsys, "aut-verify", "--q", q, "--r", "3",
                       "--ell", "2", "--seed", "-1")
    assert rc == 1 and out == ""
    assert err == "error: seed must be >= 0\n"


@pytest.mark.parametrize("command", ["min-dist", "classify"])
def test_budget_must_be_positive_where_it_is_read(capsys, tmp_path, command):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(CASE_II_SPEC))
    args = (["--spec", str(path)] if command == "classify"
            else ["--q", "2", "--r", "3", "--ell", "1"])
    rc, out, err = run(capsys, command, *args, "--budget", "0")
    assert rc == 1 and out == ""
    assert err == "error: budget must be positive\n"


SUBCOMMAND_ARGS = {
    "field-info": ["--q", "8"],
    "curve-info": ["--q", "2", "--r", "3"],
    "code-table": ["--q", "2", "--r", "3", "--ell", "1"],
    "code-build": ["--q", "2", "--r", "3", "--ell", "1"],
    "min-dist": ["--q", "2", "--r", "3", "--ell", "1"],
    "aut-verify": ["--q", "2", "--r", "3", "--ell", "1"],
    "classify": ["--spec", "{spec}"],
}
READERS = {"--budget": {"code-table", "min-dist", "classify"},
           "--seed": {"aut-verify"}}


@pytest.mark.parametrize("flag", sorted(READERS))
@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGS))
def test_subcommands_take_only_the_flags_they_read(capsys, tmp_path,
                                                    command, flag):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(CASE_II_SPEC))
    argv = ([command] + [a.format(spec=path) for a in SUBCOMMAND_ARGS[command]]
            + [flag, "1000"])
    if command in READERS[flag]:
        rc, out, err = run(capsys, *argv)
        assert rc == 0 and out and err == ""
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1000" in capsys.readouterr().err


@pytest.mark.parametrize("q,r", [(2, 10), (4, 5)])
def test_min_dist_refuses_word_tables_over_the_limit(capsys, q, r):
    # Q^k = 2^20 passes the default budget, but the word tables of these
    # codes would take 5.6 and 2.8 GB: refused before any is built
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, "min-dist", "--q", str(q), "--r", str(r),
                           "--ell", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1 and out == ""
    assert err.startswith("error: word tables need about")
    assert f"above the limit {codes.TABLE_MAX_BYTES}" in err
    assert "Traceback" not in err
    assert peak < 200 << 20


@pytest.mark.parametrize("q,r", [(2, 10), (4, 5)])
def test_code_table_leaves_d_exact_empty_over_the_table_limit(capsys, q, r):
    rc, out, err = run(capsys, "code-table", "--q", str(q), "--r", str(r),
                       "--ell", "1")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rc == 0 and err == ""
    assert len(rows) == 1 and rows[0]["d_exact"] == ""
    assert rows[0]["k_rank"] == rows[0]["k_formula"] == "2"


def _spec(p, a, b):
    return {"p": p, "field": {"p": p, "k": 1},
            "A": [{"j": j, "a_j_index": c} for j, c in sorted(a.items())],
            "B": list(b)}


# Text digests as in perfbench/expected.json; the JSON digests were
# recorded with the hand-written ClassificationResult.to_dict that
# dataclasses.asdict replaced.
@pytest.mark.parametrize("spec, field, fmt, digest", [
    (CASE_II_SPEC, 64, "text",
     "ff40f066d2ccb5a64c35d1cf065f1b67331859909171f664c3176ec276c7a547"),
    (CASE_II_SPEC, 64, "json",
     "af14b6eab38f4646028d4d8b6c4a223b042c38f4397b91594ef644705c327479"),
    (_spec(5, {0: 1, 1: 1}, (0, 0, 0, 1)), 25, "text",
     "fdadf3b8f6415eb7db31a8f1fb73ee491fc917da4c4877d15172e897868847e7"),
    (_spec(5, {0: 1, 1: 1}, (0, 0, 0, 1)), 25, "json",
     "34841bc7b43f851a480434ae27d13f2cb0e85dc4d90f841a241f28ec90770eaf"),
    (_spec(2, {0: 1, 1: 1, 2: 1}, (0, 1, 0, 1)), 64, "text",
     "02277f10ee4dc44d586e6b870f3e0cf310f1e7aea3e4cf97cfaf60e94d6f1880"),
    (_spec(2, {0: 1, 1: 1, 2: 1}, (0, 1, 0, 1)), 64, "json",
     "a931e8bf20c5d017c3a7a5d9edc9747780c76b0953c9bddca2a79307bc0e2564"),
], ids=["c08-case-ii-text", "c08-case-ii-json", "c08-case-i-text",
        "c08-case-i-json", "c10-text", "c10-json"])
def test_classify_output_is_pinned(capsys, tmp_path, spec, field, fmt, digest):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    rc, out, _ = run(capsys, "classify", "--spec", str(path),
                     "--search-field", str(field), "--format", fmt)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def src_env():
    """The environment with the package's own src/ first on PYTHONPATH,
    for a subprocess."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}


def test_python_m_entry_point_prints_what_main_prints(capsys, tmp_path):
    rc, want, _ = run(capsys, "field-info", "--q", "8")
    env = src_env()
    ok = subprocess.run([sys.executable, "-m", "normtrace", "field-info",
                         "--q", "8"], capture_output=True, text=True, env=env)
    bad = subprocess.run([sys.executable, "-m", "normtrace", "field-info",
                          "--q", "8", "--seed", "1"], capture_output=True,
                         text=True, env=env)
    assert (rc, ok.returncode, ok.stdout) == (0, 0, want)
    assert bad.returncode == 2 and bad.stdout == ""


def read_100_bytes_and_close(*argv):
    """(exit status, first 100 bytes, stderr) of python -m normtrace
    argv when its reader closes the pipe after 100 bytes."""
    proc = subprocess.Popen([sys.executable, "-m", "normtrace", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=src_env())
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    return proc.wait(timeout=60), head, err


def test_code_build_into_a_closed_pipe_is_one_error_line():
    # as `code-build ... | head -c 100`: the 5.9 MB of rows overrun the
    # pipe once the reader has gone, and neither the write nor the flush
    # at exit may print a traceback
    status, head, err = read_100_bytes_and_close(
        "code-build", "--q", "16", "--r", "2", "--ell", "16")
    assert status == 1
    assert head.startswith(b'{\n  "q": 16,')
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err == "error: cannot write stdout: Broken pipe\n"


def test_curve_info_into_a_closed_pipe_is_one_error_line():
    # the 2 MB of non-gaps of N_{2,10} come a block at a time, as
    # code-build's rows do; the single write of the whole text ended
    # with exit 0 and no word that the rest was lost
    status, head, err = read_100_bytes_and_close("curve-info", "--q", "2",
                                                 "--r", "10")
    assert status == 1
    assert head.startswith(b"norm-trace curve q=2 r=10 over GF(1024)\n")
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err == "error: cannot write stdout: Broken pipe\n"


def test_no_command_imports_numpy_ma(tmp_path):
    # the first np.unique or np.setdiff1d in a process imports numpy.ma,
    # about 30 ms of CPU that no command needs
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(CASE_II_SPEC))
    script = f"""
import contextlib, io, sys
from normtrace.cli import main
for argv in [["aut-verify", "--q", "2", "--r", "3", "--ell", "2"],
             ["code-build", "--q", "3", "--r", "3", "--ell", "2"],
             ["min-dist", "--q", "3", "--r", "3", "--ell", "2"],
             ["classify", "--spec", {str(spec)!r}, "--search-field", "64"],
             ["curve-info", "--q", "3", "--r", "3"]]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print("numpy.ma" in sys.modules)
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=src_env())
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr
