"""The generator-matrix writer of `code-build` (cli._matrix_text)
against the printers it replaced: json.dumps(indent=2) of the whole
report and csv.writer of the matrix rows, byte for byte, on real codes
and over random exponent tables and value tables with entries of every
width in fields p^k <= 2^12.  Likewise the non-gap writer of
`curve-info` (cli._int_list), a block of the semigroup's sieve at a
time, against str(list) and json.dumps, over sieves marking values of
every decimal width, with blocks small enough to split them anywhere,
and its digit writer (cli._joined_digits) through reused buffers."""

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

from normtrace import cli, codes, rrspace  # noqa: E402
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
    reads only the tables, the value table, the zero slot log_np[0],
    Q and the report fields."""
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
                            ctx=SimpleNamespace(order=order, exp_np=values,
                                                log_np=np.array([size - 1])))
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
    basis = [{"i": i, "j": j} for i, j in zip(*code.basis.tolist())]
    report = {**code.parameters(), "basis": basis, "matrix": matrix.tolist()}
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


@pytest.mark.parametrize("q, r, ells", [
    (2, 3, range(1, 8)), (3, 3, (1, 13, 26)), (4, 3, (31,)),
    # Q = 256: entries of 1, 2 and 3 digits; Q = 4096: of 4 digits
    (16, 2, (1, 3, 16)), (64, 2, (1,))])
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


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_ascii_entry_template_is_an_error_not_output(capsys, monkeypatch,
                                                        fmt):
    # the decode drops every byte that is not valid UTF-8, so the entry
    # table must hold ASCII and its 0xFF pad only: a template outside
    # ASCII is refused as the table is made, before the first row
    curve = build_curve(2, 3)
    code = codes.build_code(curve, 2)
    exponents = codes._exponent_tables(curve, code.basis, code.n_inf)
    with pytest.raises(ValueError, match="ascii"):
        cli._matrix_text(curve.ctx, exponents, "{}\u00e9,", "{}\n")
    matrix_text = cli._matrix_text

    def doctored(ctx, exponents, entry, *rest):
        return matrix_text(ctx, exponents, "\u00e9" + entry, *rest)

    monkeypatch.setattr(cli, "_matrix_text", doctored)
    rc = cli.main(["code-build", "--q", "2", "--r", "3", "--ell", "2",
                   "--format", fmt])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: 'ascii' codec can't encode")


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
    # its exponent tables and one row's text, and peaks at about 6 MiB,
    # mostly the uint32 i-table before it is narrowed (10 MB in int64)
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
# NONGAP_BLOCK, and blocks small enough for the drawn values to straddle
BLOCKS = [1, 2, 3, 7, 10, 100, 1000, 10_000, cli.NONGAP_BLOCK]


@st.composite
def ascending_sieves(draw):
    """(values, marked, block): ascending distinct values in
    0..NONGAP_TOP, the sieve that marks them, as rrspace._marked marks
    the non-gaps, with up to 20 unmarked entries past the last value,
    and a block size that splits it into at most about 200 blocks.  The
    draws hold the empty array, single values and the values on both
    sides of every power of ten within reach of the block."""
    block = draw(st.sampled_from(BLOCKS))
    top = min(NONGAP_TOP, 200 * block)
    picks = st.one_of(st.integers(0, top), st.sampled_from(
        [v for v in [0, NONGAP_TOP] + POWERS_OF_TEN if v <= top]))
    values = sorted(draw(st.sets(picks, max_size=40)))
    marked = np.zeros((values[-1] + 1 if values else 0)
                      + draw(st.integers(0, 20)), dtype=bool)
    marked[values] = True
    return values, marked, block


def int_list(marked, depth=None, block=None):
    """The streamed non-gap writer's text, its blocks of the given size."""
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(cli, "NONGAP_BLOCK", block)
        return "".join(cli._int_list(marked, depth))


def assert_prints_as_list(values, marked, block=None):
    assert int_list(marked, block=block) == str(values)
    assert int_list(marked, 0, block) == json.dumps(values, indent=2)
    # nested one level, as the last key of curve-info's record
    nested = json.dumps({"a": 1, "b": values}, indent=2)
    assert nested == ('{\n  "a": 1,\n  "b": '
                      + int_list(marked, 1, block) + "\n}")


@SETTINGS
@given(ascending_sieves())
def test_int_list_equals_str_and_json_dumps(sieve):
    assert_prints_as_list(*sieve)


def text_of(piece):
    """A writer's piece as text: a str, or the bytes of a buffer view."""
    return piece if isinstance(piece, str) else bytes(piece).decode("ascii")


@SETTINGS
@given(ascending_sieves(), st.sampled_from([None, 0, 1]))
def test_int_list_pieces_outlive_its_buffers(sieve, depth):
    # every block is written through the same buffers: collected before
    # any is read, the pieces read as when each is read as it comes, so
    # none is a view of a buffer that the next block overwrites
    _, marked, block = sieve
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "NONGAP_BLOCK", block)
        eager = list(cli._int_list(marked, depth))
        lazy = "".join(map(text_of, cli._int_list(marked, depth)))
    assert "".join(map(text_of, eager)) == lazy


def digit_buffers(count, sep, slack=0):
    """The text and digit-column buffers of count values of any uint32
    width and slack more, filled with what the writer must overwrite or
    leave out of its text: 0xFF, which ASCII never holds, and 2^32 - 1."""
    size = count + slack
    return (np.full(size * (10 + len(sep)), 0xFF, dtype=np.uint8),
            np.full((3, size), 2 ** 32 - 1, dtype=np.uint32))


@st.composite
def uint32_arrays(draw):
    """Ascending values, repeats allowed, of decimal widths 1..10 drawn
    evenly, 0 and 2^32 - 1 among the bounds of the widths drawn."""
    widths = draw(st.lists(st.integers(1, 10), max_size=40))
    return sorted(draw(st.integers(0 if w == 1 else 10 ** (w - 1),
                                   min(10 ** w - 1, 2 ** 32 - 1)))
                  for w in widths)


# each separator with the brackets that its printer puts round the list
PRINTERS = {", ": ("[", "]", str),
            ",\n  ": ("[\n  ", "\n]", lambda v: json.dumps(v, indent=2))}


@SETTINGS
@given(st.lists(uint32_arrays(), min_size=1, max_size=3),
       st.sampled_from(sorted(PRINTERS)), st.booleans(), st.integers(0, 30))
def test_joined_digits_through_reused_buffers(arrays, sep, lead, slack):
    # one set of buffers, larger than needed, takes every array in turn,
    # as _int_list's blocks take theirs
    buffers = digit_buffers(max(map(len, arrays)), sep, slack)
    opening, closing, printer = PRINTERS[sep]
    for values in arrays:
        joined = cli._joined_digits(np.array(values, dtype=np.int64), sep,
                                    *buffers, lead)
        if lead:
            assert joined == "".join(sep + str(v) for v in values)
        elif values:
            assert opening + joined + closing == printer(values)
        else:
            assert joined == ""


@pytest.mark.parametrize("values, length, block", [
    ([0, 1, 9], 10, 4),        # entries 4..7 are an empty block
    ([0, 1, 2, 3, 9], 12, 4),  # 9 is a block of one value, 8..11
    ([0, 3, 9, 10, 11], 12, 10),  # width 2 starts the block at 10
    ([5, 99, 100], 101, 100),  # width 3 alone in the last block
    ([], 5, 2),                # no value: "[]" from blocks of nothing
    ([7], 8, 1),               # one-entry blocks, one value among them
])
def test_int_list_blocks_join_at_their_boundaries(values, length, block):
    marked = np.zeros(length, dtype=bool)
    marked[values] = True
    assert_prints_as_list(values, marked, block)


def test_int_list_covers_every_uint32_width():
    # the sieve writer reaches width 6 (2g <= NONGAP_TOP); its digits
    # routine writes every width that uint32 holds, sep before each value
    # but the first, or before the first too with lead
    values = np.array([0] + [10 ** w for w in range(1, 10)] + [2 ** 32 - 1])
    buffers = digit_buffers(len(values), ", ")
    assert f"[{cli._joined_digits(values, ', ', *buffers)}]" == str(
        values.tolist())
    assert cli._joined_digits(values, "", *buffers) == "".join(
        map(str, values.tolist()))
    assert cli._joined_digits(values, ", ", *buffers, lead=True) == "".join(
        f", {v}" for v in values.tolist())
    marked = np.zeros(NONGAP_TOP + 1, dtype=bool)
    marked[[0, 9, 10, 99, 100, 9999, 10 ** 5, NONGAP_TOP]] = True
    assert int_list(marked) == str(np.flatnonzero(marked).tolist())


@pytest.mark.parametrize("values", [[2, 1], [-1, 3], [0, 2 ** 32]])
def test_int_list_refuses_what_it_cannot_write(values):
    # a descending pair would be written in the wrong run; -1 and 2^32
    # would wrap round in uint32.  A sieve gives its writer no such
    # values, but one past 2^32 entries would wrap: it is refused before
    # the first string (a read-only view of 2^32 + 1 entries of one byte)
    with pytest.raises(ValueError, match="ascending"):
        cli._joined_digits(np.array(values), ", ", *digit_buffers(2, ", "))
    huge = np.broadcast_to(np.zeros(1, dtype=bool), (2 ** 32 + 1,))
    with pytest.raises(ValueError, match="0..2\\^32-1"):
        cli._int_list(huge)


def test_refused_non_gap_list_writes_nothing(capsys, monkeypatch, tmp_path):
    # the writer's check runs in cmd_curve_info, before the head: no
    # stdout, no --out file and one error line
    huge = np.broadcast_to(np.zeros(1, dtype=bool), (2 ** 32 + 1,))
    monkeypatch.setattr(rrspace, "_marked", lambda curve, bound: huge)
    path = tmp_path / "curve.txt"
    for fmt in ("text", "json"):
        for extra in ([], ["--out", str(path)]):
            assert cli.main(["curve-info", "--q", "2", "--r", "3",
                             "--format", fmt, *extra]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: values must lie in 0..2^32-1\n"
    assert not path.exists()


def test_curve_info_memory_is_a_block():
    # N_{3,7} has 397,489 non-gaps up to 2g, 4.8 MB of JSON; whole, the
    # text and its copies peaked at 22 MiB.  Streamed, the command holds
    # the sieve (0.8 MB), the divisor records, one block's values and
    # text, and the buffers made once per call that the block's digits
    # are written through: 1.08 / 1.35 / 1.34 / 2.03 MiB below, where
    # blocks of 2^16 values formed as fresh arrays peaked at 2.57 / 3.10 /
    # 2.92 / 3.49 MiB
    for q, r, fmt, length in [(2, 10, "text", 2_079_376),
                              (2, 10, "json", 3_182_873),
                              (3, 7, "text", 3_173_656),
                              (3, 7, "json", 4_848_044)]:
        tracemalloc.start()
        try:
            status, data = cli.cmd_curve_info(Namespace(q=q, r=r, format=fmt))
            total = sum(map(len, data))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 0 and total == length, (q, r, fmt)
        assert peak <= 2.25 * (1 << 20), (q, r, fmt, peak)


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
