"""The generator-matrix writer of `code-build` (cli._matrix_rows)
against the printers it replaced: json.dumps(indent=2) of the whole
report and csv.writer of the matrix rows, byte for byte, over random
matrices with entries of every width in fields p^k <= 2^12.  Likewise
the non-gap writer of `curve-info` (cli._int_list) against str(list)
and json.dumps, over ascending arrays of every decimal width."""

import csv
import hashlib
import io
import json
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
from normtrace.gf import is_prime  # noqa: E402

ORDERS = sorted({p ** k for p in range(2, 4097) if is_prime(p)
                 for k in range(1, 13) if p ** k <= 4096})
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)


def random_entries(rng, order, shape):
    """Entries in 0..order-1 whose decimal widths are spread evenly over
    every width up to that of order - 1; 0 and order - 1 are placed when
    the matrix has room for them."""
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
    """An AGCode over a stand-in curve of field order Q whose matrix is
    random: the writer reads only the matrix, Q and the report fields."""
    order = draw(st.sampled_from(ORDERS))
    k, n = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dtype = draw(st.sampled_from([np.int64, np.uint16]))
    matrix = random_entries(rng, order, (k, n)).astype(dtype)
    basis = rng.integers(-9, 10, size=(2, k))
    r = draw(st.integers(2, 5))
    curve = SimpleNamespace(q=order, r=r, h=order ** (r - 1),
                            ctx=SimpleNamespace(order=order))
    return AGCode(curve, draw(st.integers(1, 40)), basis,
                  n_inf=draw(st.sampled_from([0, 1])), _matrix=matrix)


def code_build(code, fmt):
    """cmd_code_build's data output with the curve and code stubbed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "build_curve", lambda q, r: code.curve)
        mp.setattr(codes, "build_code", lambda curve, ell: code)
        status, data = cli.cmd_code_build(
            Namespace(q=code.curve.q, r=code.curve.r, ell=code.ell,
                      format=fmt))
    assert status == 0
    return data


def csv_writer_rows(matrix):
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in matrix.tolist():
        writer.writerow(row)
    return buf.getvalue()


@SETTINGS
@given(fake_codes())
def test_writer_equals_json_dumps_and_csv_writer(code):
    report = {**code.to_report(), "matrix": code.matrix.tolist()}
    assert code_build(code, "json") == json.dumps(report, indent=2) + "\n"
    assert code_build(code, "text") == code_build(code, "json")
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
@pytest.mark.parametrize("bad", [-1, "order"])
def test_out_of_range_entry_is_an_error_not_output(capsys, monkeypatch,
                                                   fmt, bad):
    # numpy would read -1 as the last table string and print Q - 1
    build = codes.build_code

    def doctored(curve, ell):
        code = build(curve, ell)
        code.matrix[-1, -1] = curve.ctx.order if bad == "order" else bad
        return code

    monkeypatch.setattr(codes, "build_code", doctored)
    rc = cli.main(["code-build", "--q", "2", "--r", "3", "--ell", "2",
                   "--format", fmt])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == "error: matrix entries must lie in 0..7\n"


def test_code_build_memory_is_bounded():
    # json.dumps(indent=2) of the 137 x 4081 matrix alone peaks at over
    # 45 MB; the writer's report, code included, stays near 20 MB
    args = Namespace(q=16, r=2, ell=16, format="json")
    tracemalloc.start()
    try:
        status, data = cli.cmd_code_build(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0 and len(data) == 5_910_659
    assert peak < 30 << 20


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
