"""Command-line surface for the toolkit.

Subcommands:
    field-info   canonical field record for GF(q)
    curve-info   genus, place counts, divisors, semigroup of N_{q,r}
    code-table   parameter table (ell, n, k by rank and by formula, d*)
    code-build   full report of one code (basis and generator matrix)
    min-dist     exhaustive minimum distance of one code
    aut-verify   automorphism group checks and code invariance
    classify     separated-curve classification and stabilizer search

Tables default to CSV with a header row; reports default to text; JSON
is available everywhere via --format json.  Data goes to stdout (or
--out FILE); progress and errors go to stderr.  The exit status is
nonzero iff a verification check fails or an error occurs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import os
import sys

import numpy as np

from . import autgroup, codes, rrspace, sepcurve
from .curve import build_curve
from .gf import build_field, prime_power

DEFAULT_BUDGET = 1 << 20


def _field_of_order(order: int):
    return build_field(*prime_power(order))


# ----------------------------------------------------------------------
# Commands: each takes the parsed arguments (with --format resolved to
# the command's default) and returns (exit_code, data): a string, or
# for curve-info and code-build an iterator of strings that main writes
# as they come
# ----------------------------------------------------------------------

def cmd_field_info(args):
    ctx = _field_of_order(args.q)
    rec = ctx.to_dict()
    if args.format == "json":
        return 0, json.dumps(rec, indent=2) + "\n"
    lines = [f"GF({args.q}) = GF({rec['p']}^{rec['k']})",
             f"modulus coefficients (low to high): {rec['modulus']}",
             f"generator index: {rec['generator_index']}"]
    return 0, "\n".join(lines) + "\n"


def cmd_curve_info(args):
    """The curve's record, its non-gaps up to 2g last.  The data is an
    iterator of strings: the head, then the non-gaps a block at a time
    from the semigroup's sieve (_int_list), then the closing bracket.
    |Omega| is h, and JSON's divisor records (x) = Omega - h P_inf and
    (y) = c P(0,0) - c P_inf are written from the fibre x = 0, so no
    place is built; every check and the sieve come before the return,
    so a refused curve prints nothing."""
    curve = build_curve(args.q, args.r)
    n_places, n_omega = curve.n_places, curve.h
    marked = rrspace._marked(curve, 2 * curve.genus)
    if args.format == "json":
        info = {
            "q": curve.q,
            "r": curve.r,
            "genus": curve.genus,
            "n_places": n_places,
            "n_omega": n_omega,
            "n_theta": n_places - n_omega,
            "div_x": [{"place": INF_RECORD, "coeff": -curve.h}] + [
                {"place": {**ORIGIN_RECORD, "y": y}, "coeff": 1}
                for y in curve._fibre(0).tolist()],
            "div_y": [{"place": INF_RECORD, "coeff": -curve.c},
                      {"place": ORIGIN_RECORD, "coeff": curve.c}],
        }
        # the record without its last key, the non-gaps, ends "\n}"
        head = f'{json.dumps(info, indent=2)[:-2]},\n  "nongaps_up_to_2g": '
        return 0, itertools.chain([head], _int_list(marked, depth=1),
                                  ["\n}\n"])
    lines = [
        f"norm-trace curve q={curve.q} r={curve.r} over GF({curve.q ** curve.r})",
        f"genus: {curve.genus}",
        f"rational places: {n_places}",
        f"|Omega| (zeros of x): {n_omega}",
        f"|Theta|: {n_places - n_omega}",
        f"(x) = sum(Omega) - {curve.h} * P_inf",
        f"(y) = {curve.c} * P(0,0) - {curve.c} * P_inf",
        "semigroup non-gaps up to 2g: ",
    ]
    return 0, itertools.chain(["\n".join(lines)], _int_list(marked), ["\n"])


# the places of the divisor records, as Place.to_dict writes them
INF_RECORD = {"kind": "infinity"}
ORIGIN_RECORD = {"kind": "affine", "x": 0, "y": 0}


# the sieve entries whose non-gaps _int_list writes as one string: a few
# large writes through buffers made once per call, as fresh arrays per
# block cost page faults; each block's values and text are still new, so
# blocks stay small (at 2^13 the per-block calls cost more CPU)
NONGAP_BLOCK = 1 << 14


def _int_list(marked: np.ndarray, depth: int | None = None):
    """The v with marked[v] set, ascending, as str(list) prints them, or
    with depth as json.dumps(indent=2) prints a list nested depth levels
    deep: an iterator of strings, the values of NONGAP_BLOCK entries of
    marked at a time (_joined_digits, through buffers made once).  No
    Python int per value and no array of all the values is made.
    ValueError before the first string if a value could pass 2^32 - 1."""
    if len(marked) > 2 ** 32:
        raise ValueError("values must lie in 0..2^32-1")
    if not marked.any():
        return iter(["[]"])
    pad = "" if depth is None else "\n" + "  " * (depth + 1)
    sep = ", " if depth is None else "," + pad
    count = min(NONGAP_BLOCK, len(marked))
    text = np.empty(count * (len(str(len(marked) - 1)) + len(sep)), np.uint8)
    columns = np.empty((3, count), dtype=np.uint32)

    def pieces():
        yield f"[{pad}"
        lead = False
        for lo in range(0, len(marked), NONGAP_BLOCK):
            values = np.flatnonzero(marked[lo:lo + NONGAP_BLOCK])
            if len(values):
                values += lo
                yield _joined_digits(values, sep, text, columns, lead)
                lead = True
        yield "]" if depth is None else f"\n{'  ' * depth}]"
    return pieces()


# the largest value of each decimal width 1..10 that uint32 holds
_WIDTH_TOPS = np.array([10 ** w - 1 for w in range(1, 10)] + [2 ** 32 - 1],
                       dtype=np.uint32)


def _joined_digits(values: np.ndarray, sep: str, text: np.ndarray,
                   columns: np.ndarray, lead: bool = False) -> str:
    """The decimal digits of the ascending values joined by sep, with sep
    before the first too if lead.  In an ascending array the values of
    one decimal width are a run, and each run is written as one
    fixed-width block of the caller's uint8 buffer text, sep then its
    digits, a column at a time in uint32 arithmetic in the caller's
    (3, >= len(values)) buffer columns; the written text is decoded to a
    new str, past the first sep unless lead."""
    values = np.asarray(values)
    if len(values) and not (0 <= values[0] and values[-1] < 2 ** 32
                            and (values[1:] >= values[:-1]).all()):
        raise ValueError("values must be ascending and lie in 0..2^32-1")
    sep_bytes = sep.encode()
    ends = np.searchsorted(values, _WIDTH_TOPS, side="right").tolist()
    ten, at = np.uint32(10), 0
    for width, lo, hi in zip(range(1, 11), [0] + ends, ends):
        if hi == lo:
            continue
        block = text[at:at + (hi - lo) * (width + len(sep_bytes))].reshape(
            hi - lo, -1)
        at += block.size
        for col, byte in enumerate(sep_bytes):
            block[:, col] = byte
        rest, quot, digit = columns[:, :hi - lo]
        rest[:] = values[lo:hi]
        for col in range(block.shape[1] - 1, len(sep_bytes) - 1, -1):
            np.floor_divide(rest, ten, out=quot)
            np.multiply(quot, ten, out=digit)
            np.subtract(rest, digit, out=digit)
            digit += ord("0")
            block[:, col] = digit
            rest, quot = quot, rest
    return str(text.data[0 if lead else len(sep_bytes):at], "ascii")


def _table_rows(args):
    curve = build_curve(args.q, args.r)
    top = args.q ** args.r - 1
    lo = 1 if args.ell is None else args.ell
    hi = args.ell_max if args.ell_max is not None else (
        top if args.ell is None else lo)
    if not 1 <= lo <= hi <= top:
        raise ValueError(f"ell range {lo}..{hi} is empty or not within 1..{top}")
    rows = []
    all_agree = True
    for ell in range(lo, hi + 1):
        code = codes.build_code(curve, ell)
        k_formula = codes.dimension_closed_form(args.q, args.r, ell)
        try:
            d_exact = codes.min_distance_exhaustive(code, args.budget,
                                                    stop_at=code.d_star)
        except codes.BudgetExceeded:  # over budget or the word-table limit
            d_exact = ""
        agree = code.k == k_formula
        all_agree = all_agree and agree
        rows.append({"ell": ell, "n": code.n, "k_rank": code.k,
                     "k_formula": k_formula, "d_star": code.d_star,
                     "d_exact": d_exact, "formulas_agree": agree})
    return rows, all_agree


def cmd_code_table(args):
    rows, all_agree = _table_rows(args)
    status = 0 if all_agree else 1
    if args.format == "json":
        return status, json.dumps(rows, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return status, buf.getvalue()


def _matrix_text(ctx, exponents, entry: str, last: str, row_head: str = "",
                 sep: str = ""):
    """The text of a code's matrix, three strings per row, from the
    exponent tables of codes._exponent_tables: each row's exponents are
    formed by one np.add into a reused buffer, and its text by one take
    from a byte table indexed by exponent, entry.format(v) for v =
    ctx.exp_np[e], the zero slot included, padded to one width with
    0xFF, which UTF-8 never holds and the decode drops.  Each row starts
    with row_head, rows after the first with sep before it, and ends
    with last.format(v).  The tables are checked, and the entries
    encoded as ASCII, before the first row: an exponent outside the
    table would print a wrong value (numpy reads a negative one from
    the end) or fail mid-output."""
    inf, i_table, i_rows, j_table, j_rows = exponents
    size = ctx.log_np.item(0) + 1
    if not (0 <= min(inf.min(), i_table.min(), j_table.min()) and max(
            int(inf.max()), int(i_table.max()) + int(j_table.max())) < size):
        raise ValueError(f"exponents must lie in 0..{size - 1}")
    values = ctx.exp_np[:size].tolist()
    cells = [entry.format(v).encode("ascii") for v in values]
    width = max(map(len, cells))
    table = np.array([c.ljust(width, b"\xff") for c in cells], f"S{width}")
    ends = [last.format(v) for v in values]
    row = np.empty(i_table.shape[1] + 1, dtype=np.uint16)
    heads = (row_head, sep + row_head)

    def rows():
        for r, (e, i, j) in enumerate(zip(inf.tolist(), i_rows.tolist(),
                                          j_rows.tolist())):
            row[0] = e
            np.add(i_table[i], j_table[j], out=row[1:])
            yield heads[r > 0]
            yield str(table.take(row[:-1]), "utf-8", "ignore")
            yield ends[row[-1]]
    return rows()


# one basis monomial as json.dumps(indent=2) prints it in the report
_BASIS_ENTRY = '    {{\n      "i": {},\n      "j": {}\n    }}'


def cmd_code_build(args):
    """The code's report as JSON, or its matrix as CSV; both print the
    matrix byte for byte as json.dumps(indent=2) and csv.writer would.
    The data is an iterator of strings: for JSON the scalar head
    (json.dumps) and the basis (_BASIS_ENTRY), then the matrix a row at
    a time (_matrix_text), then the closing brackets.  No matrix is
    built: every check, and the exponent tables, come before the
    return, so a refused code prints nothing."""
    curve = build_curve(args.q, args.r)
    code = codes.build_code(curve, args.ell)
    exponents = codes._exponent_tables(curve, code.basis, code.n_inf)
    if args.format == "csv":
        return 0, _matrix_text(curve.ctx, exponents, "{},", "{}\r\n")
    # the parameters as a record end "\n}"; the basis and matrix follow
    basis = ",\n".join(map(_BASIS_ENTRY.format, *code.basis.tolist()))
    head = (f'{json.dumps(code.parameters(), indent=2)[:-2]},\n'
            f'  "basis": [\n{basis}\n  ],\n  "matrix": [\n')
    rows = _matrix_text(curve.ctx, exponents, "      {},\n",
                        "      {}\n    ]", "    [\n", ",\n")
    return 0, itertools.chain([head], rows, ["\n  ]\n}\n"])


def cmd_min_dist(args):
    curve = build_curve(args.q, args.r)
    code = codes.build_code(curve, args.ell)
    codes.search_depth(code, args.budget, True)  # refuses before the notice
    Q = curve.ctx.order
    messages = (Q ** code.k - 1) // (Q - 1)  # one per line through 0
    if messages > 1 << 22:
        print(f"enumerating up to {messages} messages, stopping at weight "
              f"d* = {code.d_star} ...", file=sys.stderr)
    d = codes.min_distance_exhaustive(code, args.budget, stop_at=code.d_star)
    attains = d == code.d_star
    rec = {"q": args.q, "r": args.r, "ell": args.ell, "n": code.n, "k": code.k,
           "d_star": code.d_star, "d_exact": d, "attains_designed": attains}
    status = 0 if attains else 1
    if args.format == "json":
        return status, json.dumps(rec, indent=2) + "\n"
    return status, (f"[n={code.n}, k={code.k}] d* = {code.d_star}, "
                    f"exhaustive d = {d}\n")


def cmd_aut_verify(args):
    curve = build_curve(args.q, args.r)
    code = codes.build_code(curve, args.ell)  # refuses what it cannot build
    code.log_matrix  # the code checks read it: refuse it before the group
    a, b = autgroup.group_arrays(curve)
    checks, short = autgroup.group_checks(curve, a, b, args.seed)
    if all(passed for _, passed, _ in checks):  # once the group holds
        checks += autgroup.code_checks(code)

    ok = all(passed for _, passed, _ in checks)
    if args.format == "json":
        rec = {"q": args.q, "r": args.r, "ell": args.ell,
               "group_order": len(a),
               "short_orbit_sizes": sorted(len(o) for o in short),
               "short_orbits": [[P.to_dict() for P in o] for o in short],
               "checks": [{"name": nm, "pass": bool(ps), "detail": dt}
                          for nm, ps, dt in checks]}
        return (0 if ok else 1), json.dumps(rec, indent=2) + "\n"
    # for r = 2 the curve is Hermitian, outside the paper's theorem: its
    # full group is PGU(3, q), and the group checked is G alone
    name = f"N_{{{args.q},{args.r}}}"
    head = (f"automorphism group of {name}" if args.r >= 3 else
            f"group G of the maps (x, y) -> (bx, b^c y + a) on {name}")
    lines = [f"{head}: order {len(a)}"]
    lines += [f"{'PASS' if ps else 'FAIL'}  {nm}" + (f"  [{dt}]" if dt else "")
              for nm, ps, dt in checks]
    return (0 if ok else 1), "\n".join(lines) + "\n"


def cmd_classify(args):
    try:
        with open(args.spec) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise RuntimeError(f"cannot read spec file {args.spec}: {exc}")
    spec = sepcurve.spec_from_dict(raw)
    result = sepcurve.classify(spec)
    rec = result.to_dict()
    rec.update(p=spec.p, n=spec.n, m=spec.m, genus=sepcurve.genus(spec))
    status = 0
    if args.search_field is not None:
        field = _field_of_order(args.search_field)
        # classify has validated spec: map it once for search and checks
        spec_f = spec.map_coefficients(field)
        maps = sepcurve.brute_force_stabilizer_search(
            spec_f, field, budget=args.budget, validated=True)
        records = sepcurve.checks(spec_f, result, maps)
        rec["search_field"] = args.search_field
        rec["search_count"] = len(maps)
        rec["search_matches_prediction"] = {
            nm: ps for nm, ps, _ in records}.get("stabilizer order")
        for nm, ps, dt in records:
            if not ps:
                print(f"FAIL  {nm}  [{dt}]", file=sys.stderr)
        status = 0 if all(ps for _, ps, _ in records) else 1
    if args.format == "json":
        return status, json.dumps(rec, indent=2) + "\n"
    lines = [f"separated curve: p={spec.p}, n={spec.n}, m={spec.m}, "
             f"genus {rec['genus']}",
             f"case: {rec['case']} (d = {rec['d']})",
             f"predicted stabilizer order: {rec['predicted_stabilizer_order']}",
             f"predicted full order: {rec['predicted_full_order']}"]
    if result.h_bound:
        lines.append(f"|H| divides one of {list(result.h_bound.divisors)} "
                     f"({result.h_bound.kind})")
    for gen in result.generators:
        lines.append(f"generators [{gen.kind} x{gen.count}]: {gen.description}")
    if "search_count" in rec:
        lines.append(f"stabilizer search over GF({args.search_field}): "
                     f"{rec['search_count']} maps found")
    for note in result.notes:
        lines.append(f"note: {note}")
    return status, "\n".join(lines) + "\n"


_COMMANDS = {
    "field-info": (cmd_field_info, "text"),
    "curve-info": (cmd_curve_info, "text"),
    "code-table": (cmd_code_table, "csv"),
    "code-build": (cmd_code_build, "json"),
    "min-dist": (cmd_min_dist, "text"),
    "aut-verify": (cmd_aut_verify, "text"),
    "classify": (cmd_classify, "text"),
}


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every main call can share it."""
    parser = argparse.ArgumentParser(
        prog="normtrace",
        description="norm-trace curves, their automorphisms, and AG codes")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, budget=False):
        sp.add_argument("--format", choices=["csv", "json", "text"],
                        default=None)
        sp.add_argument("--out", default=None, help="write data to this file")
        if budget:
            sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                            help="max enumeration count for searches")

    sp = sub.add_parser("field-info", help="canonical GF(q) description")
    sp.add_argument("--q", type=int, required=True, help="field order")
    common(sp)

    sp = sub.add_parser("curve-info", help="curve invariants and divisors")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    common(sp)

    sp = sub.add_parser("code-table", help="code parameters over an ell range")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--ell", type=int, default=None, help="first ell (default 1)")
    sp.add_argument("--ell-max", type=int, default=None,
                    help="last ell (default q^r - 1)")
    common(sp, budget=True)

    for name in ("code-build", "min-dist", "aut-verify"):
        sp = sub.add_parser(name)
        sp.add_argument("--q", type=int, required=True)
        sp.add_argument("--r", type=int, required=True)
        sp.add_argument("--ell", type=int, required=True)
        common(sp, budget=name == "min-dist")
        if name == "aut-verify":
            sp.add_argument("--seed", type=int, default=0,
                            help="seed for sampled checks")

    sp = sub.add_parser("classify", help="separated-curve classification")
    sp.add_argument("--spec", required=True, help="path to a spec JSON file")
    sp.add_argument("--search-field", type=int, default=None,
                    help="order of the stabilizer search field")
    common(sp, budget=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    fn, default_fmt = _COMMANDS[args.command]
    args.format = args.format or default_fmt
    try:
        if getattr(args, "budget", 1) <= 0:
            raise ValueError("budget must be positive")
        if getattr(args, "seed", 0) < 0:
            raise ValueError("seed must be >= 0")
        status, data = fn(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if isinstance(data, str):
        data = [data]
    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.writelines(data)
        else:
            sys.stdout.writelines(data)
            sys.stdout.flush()
    except OSError as exc:
        if not args.out:  # a closed pipe: the flush at exit must not fail
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: cannot write {args.out or 'stdout'}: {exc.strerror}",
              file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
