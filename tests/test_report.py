"""The generator-matrix writer of `code-build` (cli._matrix_text)
against the printers it replaced: json.dumps(indent=2) of the whole
report and csv.writer of the matrix rows, byte for byte, over random
matrices with entries of every width in fields p^k <= 2^12."""

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
