import csv
import io
import json
import time

import pytest

from normtrace.cli import main
from normtrace.gf import field_from_dict

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
