"""The generator-matrix writer of `code-build` (cli._matrix_text)
against the printers it replaced: json.dumps(indent=2) of the whole
report and csv.writer of the matrix rows, byte for byte, on real codes
and over random exponent tables and value tables with entries of every
width in fields p^k <= 2^12.  Likewise the non-gap writer of
`curve-info` (cli._int_list) against str(list) and json.dumps, over
ascending arrays of every decimal width."""

import csv
import hashlib
import io
import json
import re
import tracemalloc
from argparse import Namespace
from types import SimpleNamespace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from normtrace import cli, codes  # noqa: E402
from normtrace.codes import AGCode  # noqa: E402
from normtrace.curve import build_curve  # noqa: E402
from normtrace.gf import is_prime  # noqa: E402

ORDERS = sorted({p ** k for p in range(2, 4097) if is_prime(p)
                 for k in range(1, 13) if p ** k <= 4096})
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)


def random_entries(rng, order, shape):
    """Entries in 0..order-1 whose decimal widths are spread evenly over
    every width up to that of order - 1; 0 and order - 1 are placed when
    the array has room for them."""
    top = len(str(order - 1))
    widths = rng.integers(1, top + 1, size=shape)
    lo = np.where(widths == 1, 0, 10 ** (widths - 1))
    hi = np.minimum(10 ** widths, order)
    entries = lo + (rng.random(shape) * (hi - lo)).astype(np.int64)
    cells = rng.permutation(entries.size)[:2]
    entries.flat[cells] = [order - 1, 0][:len(cells)]
    return entries


@st.composite
def fake_codes(draw):
    """(code, exponents, matrix): an AGCode over a stand-in curve of
    field order Q whose exp table is a random value table of length
    2(Q - 1) + 1, random exponent tables in the layout of
    codes._exponent_tables, and the matrix they stand for.  The writer
    reads only the tables, the value table, Q and the report fields."""
    order = draw(st.sampled_from(ORDERS))
    k, n = draw(st.integers(1, 6)), draw(st.integers(2, 12))
    i_count, j_count = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = 2 * (order - 1) + 1
    values = random_entries(rng, order, size)
    exponents = (rng.integers(0, size, size=k),
                 rng.integers(0, order - 1, (i_count, n - 1), np.uint16),
                 rng.integers(0, i_count, size=k),
                 rng.integers(0, order - 1, (j_count, n - 1), np.uint16),
                 rng.integers(0, j_count, size=k))
    inf, i_table, i_rows, j_table, j_rows = exponents
    matrix = values[np.column_stack(
        [inf, i_table[i_rows].astype(np.int64) + j_table[j_rows]])]
    basis = rng.integers(-9, 10, size=(2, k))
    r = draw(st.integers(2, 5))
    curve = SimpleNamespace(q=order, r=r, h=order ** (r - 1),
                            ctx=SimpleNamespace(order=order, exp_np=values))
    code = AGCode(curve, draw(st.integers(1, 40)), basis,
                  n_inf=draw(st.sampled_from([0, 1])))
    return code, exponents, matrix


def code_build(code, fmt, exponents=None):
    """cmd_code_build's data output, a row at a time, joined; with
    exponents given, the curve, the code and its tables are stubbed."""
    with pytest.MonkeyPatch.context() as mp:
        if exponents is not None:
            mp.setattr(cli, "build_curve", lambda q, r: code.curve)
            mp.setattr(codes, "build_code", lambda curve, ell: code)
            mp.setattr(codes, "_exponent_tables",
                       lambda curve, basis, n_inf: exponents)
        status, data = cli.cmd_code_build(
            Namespace(q=code.curve.q, r=code.curve.r, ell=code.ell,
                      format=fmt))
    assert status == 0
    return "".join(data)


def report_json(code, matrix):
    report = {**code.to_report(), "matrix": matrix.tolist()}
    return json.dumps(report, indent=2) + "\n"


def csv_writer_rows(matrix):
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in matrix.tolist():
        writer.writerow(row)
    return buf.getvalue()


@SETTINGS
@given(fake_codes())
def test_writer_equals_json_dumps_and_csv_writer(fake):
    code, exponents, matrix = fake
    assert code_build(code, "json", exponents) == report_json(code, matrix)
    assert code_build(code, "text", exponents) == report_json(code, matrix)
    assert code_build(code, "csv", exponents) == csv_writer_rows(matrix)


@pytest.mark.parametrize("q, r, ells", [(2, 3, range(1, 8)),
                                        (3, 3, (1, 13, 26)), (4, 3, (31,))])
def test_streamed_code_equals_json_dumps_and_csv_writer(q, r, ells):
    curve = build_curve(q, r)
    for ell in ells:
        code = codes.build_code(curve, ell)
        assert code_build(code, "json") == report_json(code, code.matrix)
        assert code_build(code, "csv") == csv_writer_rows(code.matrix)


@pytest.mark.parametrize("argv, digest", [
    # the first two as in perfbench/expected.json
    ("--q 4 --r 3 --ell 8 --format json",
     "1a2d0cc1e2a413c8c2aa972866fb81b854f66b83e0c8ef533fce40d0f95df543"),
    ("--q 16 --r 2 --ell 8 --format json",
     "305d0013a33998f8bc111a339290c8cf8b7296011a13a0946217fc8e49bfd6a2"),
    ("--q 3 --r 3 --ell 2 --format csv",
     "da4fd57ae49778de5380dd6882b97fbeeec5c014af94c5c94e3d637d97b9f5a9"),
])
def test_code_build_stdout_is_pinned(capsys, argv, digest):
    rc = cli.main(["code-build", *argv.split()])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("bad", [-1, "size"])
def test_out_of_range_entry_is_an_error_not_output(capsys, monkeypatch,
                                                   fmt, bad):
    # numpy would read -1 as the last table string and print the zero
    # slot's value; an exponent sum of 2(Q - 1) + 1 = 15 would read past
    # the string table mid-output
    tables = codes._exponent_tables

    def doctored(curve, basis, n_inf):
        inf, i_table, i_rows, j_table, j_rows = tables(curve, basis, n_inf)
        j_table = j_table.astype(np.int64)
        j_table[-1, -1] = -1 if bad == -1 else 15 - i_table.max()
        return inf, i_table, i_rows, j_table, j_rows

    monkeypatch.setattr(codes, "_exponent_tables", doctored)
    rc = cli.main(["code-build", "--q", "2", "--r", "3", "--ell", "2",
                   "--format", fmt])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == "error: exponents must lie in 0..14\n"


def test_refused_code_build_writes_nothing(capsys, monkeypatch, tmp_path):
    # one byte under the estimate: no stdout and no --out file, as the
    # refusal comes before the first row
    argv = ["code-build", "--q", "2", "--r", "3", "--ell", "2"]
    monkeypatch.setattr(codes, "TABLE_MAX_BYTES", 0)
    assert cli.main(argv) == 1
    need = int(re.search(r"needs about (\d+) bytes",
                         capsys.readouterr().err)[1])
    monkeypatch.setattr(codes, "TABLE_MAX_BYTES", need - 1)
    path = tmp_path / "code.json"
    for extra in ([], ["--out", str(path)]):
        assert cli.main(argv + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(
            f"error: the 4 x 29 generator matrix needs about {need} bytes")
    assert not path.exists()
    monkeypatch.setattr(codes, "TABLE_MAX_BYTES", need)
    assert cli.main(argv + ["--out", str(path)]) == 0
    assert json.loads(path.read_text())["k"] == 4


def test_code_build_memory_is_bounded():
    # the (16,2) ell = 255 matrix (3961 x 4081) takes 129 MB as int64
    # and 171 MB as JSON text; read a row at a time, the command holds
    # its exponent tables and one row's text, and peaks at about 10 MB,
    # mostly the int64 i-table before it is narrowed
    for ell, fmt, length in [(16, "json", 5_910_659),
                             (255, "json", 171_030_053),
                             (255, "csv", 57_662_172)]:
        tracemalloc.start()
        try:
            status, rows = cli.cmd_code_build(
                Namespace(q=16, r=2, ell=ell, format=fmt))
            total = sum(map(len, rows))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 0 and total == length
        assert peak < 16 << 20, (ell, fmt, peak)


# 794,976 = 2g of N_{3,7}, the largest 2g that curve-info admits
NONGAP_TOP = 794_976
POWERS_OF_TEN = [v for w in range(1, 7) for v in (10 ** w - 1, 10 ** w)]


@st.composite
def ascending_arrays(draw):
    """Ascending arrays of distinct values in 0..NONGAP_TOP, as the
    non-gaps are, drawn to hold the empty array, single values and the
    values on both sides of every power of ten."""
    picks = st.one_of(st.integers(0, NONGAP_TOP),
                      st.sampled_from([0, NONGAP_TOP] + POWERS_OF_TEN))
    values = draw(st.sets(picks, max_size=40))
    dtype = draw(st.sampled_from([np.int64, np.intp, np.uint32]))
    return np.array(sorted(values), dtype=dtype)


@SETTINGS
@given(ascending_arrays())
def test_int_list_equals_str_and_json_dumps(values):
    as_list = values.tolist()
    assert cli._int_list(values) == str(as_list)
    assert cli._int_list(values, depth=0) == json.dumps(as_list, indent=2)
    # nested one level, as the last key of curve-info's record
    nested = json.dumps({"a": 1, "b": as_list}, indent=2)
    assert nested == ('{\n  "a": 1,\n  "b": '
                      + cli._int_list(values, depth=1) + "\n}")


def test_int_list_covers_every_uint32_width():
    values = np.array([0] + [10 ** w for w in range(1, 10)] + [2 ** 32 - 1])
    assert cli._int_list(values) == str(values.tolist())
    assert cli._joined_digits(values, "") == "".join(map(str, values.tolist()))


@pytest.mark.parametrize("values", [[2, 1], [-1, 3], [0, 2 ** 32]])
def test_int_list_refuses_what_it_cannot_write(values):
    # a descending pair would be written in the wrong run; -1 and 2^32
    # would wrap round in uint32
    with pytest.raises(ValueError, match="ascending"):
        cli._int_list(np.array(values))


@pytest.mark.parametrize("argv, digest", [
    # recorded before the non-gaps were written from their array
    ("--q 2 --r 10",
     "561b0f2fd9b5f1d51ff387287226de5d2f42d4a80232e1f50b4820858c52301c"),
    ("--q 2 --r 10 --format json",
     "e96066f4321d72247d7c3bc3af0098bd14bed47fa1dd8c68cdc4c5fc55d38ca3"),
    ("--q 3 --r 7",
     "224caead01b0e65b418eb1fa0594b3272ab9c99e9b4b354974335656e4292cab"),
    ("--q 3 --r 7 --format json",
     "f814be69fd35d25b3855faf49aa45111e715cc843b53d2f172c3f497d6265244"),
])
def test_curve_info_stdout_is_pinned(capsys, argv, digest):
    rc = cli.main(["curve-info", *argv.split()])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
