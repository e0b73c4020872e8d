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
import json
import sys

import numpy as np

from . import autgroup, codes, sepcurve
from .curve import build_curve
from .gf import build_field, prime_power
from .rrspace import semigroup_nongaps

DEFAULT_BUDGET = 1 << 20


def _field_of_order(order: int):
    p, k = prime_power(order)
    return build_field(p, k)


# ----------------------------------------------------------------------
# Commands: each takes the parsed arguments (with --format resolved to
# the command's default) and returns (exit_code, data_string)
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
    curve = build_curve(args.q, args.r)
    n_places = curve.n_places
    n_theta = n_places - len(curve.omega)
    info = {
        "q": curve.q,
        "r": curve.r,
        "genus": curve.genus,
        "n_places": n_places,
        "n_omega": len(curve.omega),
        "n_theta": n_theta,
        "div_x": curve.principal_divisor_x().to_dict(),
        "div_y": curve.principal_divisor_y().to_dict(),
        "nongaps_up_to_2g": semigroup_nongaps(curve, 2 * curve.genus),
    }
    if args.format == "json":
        return 0, json.dumps(info, indent=2) + "\n"
    lines = [
        f"norm-trace curve q={curve.q} r={curve.r} over GF({curve.q ** curve.r})",
        f"genus: {curve.genus}",
        f"rational places: {n_places}",
        f"|Omega| (zeros of x): {len(curve.omega)}",
        f"|Theta|: {n_theta}",
        f"(x) = sum(Omega) - {curve.h} * P_inf",
        f"(y) = {curve.c} * P(0,0) - {curve.c} * P_inf",
        f"semigroup non-gaps up to 2g: {info['nongaps_up_to_2g']}",
    ]
    return 0, "\n".join(lines) + "\n"


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
        d_exact = ""
        if curve.ctx.order ** code.k <= args.budget:
            d_exact = codes.min_distance_exhaustive(code, args.budget,
                                                    stop_at=code.d_star)
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


def _matrix_text(matrix, order: int, entry: str, last: str,
                 row_head: str = "", row_sep: str = "") -> str:
    """Print a matrix of field-element indices by one gather from a
    table of order ready-made strings: entry.format(v) within a row and
    last.format(v) at its end.  Each row's text starts with row_head and
    the rows are joined by row_sep.  Every entry must lie in 0..order-1;
    a negative index would otherwise wrap round and print a wrong value."""
    if not 0 <= matrix.min() <= matrix.max() < order:
        raise ValueError(f"matrix entries must lie in 0..{order - 1}")
    table = np.array([entry.format(v) for v in range(order)], dtype=object)
    ends = [last.format(v) for v in range(order)]
    return row_sep.join(row_head + "".join(table[row[:-1]].tolist())
                        + ends[row[-1]] for row in matrix)


def cmd_code_build(args):
    """The code's report as JSON, or its matrix as CSV; both print the
    matrix byte for byte as json.dumps(indent=2) and csv.writer would."""
    curve = build_curve(args.q, args.r)
    code = codes.build_code(curve, args.ell)
    order = curve.ctx.order
    if args.format == "csv":
        return 0, _matrix_text(code.matrix, order, "{},", "{}\r\n")
    rows = _matrix_text(code.matrix, order, "      {},\n", "      {}\n    ]",
                        "    [\n", ",\n")
    # the report without its matrix ends "\n}"; the matrix is its last key
    head = json.dumps(code.to_report(include_matrix=False), indent=2)[:-2]
    return 0, f'{head},\n  "matrix": [\n{rows}\n  ]\n}}\n'


def cmd_min_dist(args):
    curve = build_curve(args.q, args.r)
    code = codes.build_code(curve, args.ell)
    Q = curve.ctx.order
    messages = (Q ** code.k - 1) // (Q - 1)  # one per line through 0
    if messages > 1 << 22:
        print(f"enumerating {messages} messages ...", file=sys.stderr)
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
    group = autgroup.enumerate_group(curve)
    checks, short = autgroup.group_checks(curve, group, args.seed)
    checks += autgroup.code_checks(code, group)

    ok = all(passed for _, passed, _ in checks)
    if args.format == "json":
        rec = {"q": args.q, "r": args.r, "ell": args.ell,
               "group_order": len(group),
               "short_orbit_sizes": sorted(len(o) for o in short),
               "short_orbits": autgroup.orbit_report(short),
               "checks": [{"name": nm, "pass": bool(ps), "detail": dt}
                          for nm, ps, dt in checks]}
        return (0 if ok else 1), json.dumps(rec, indent=2) + "\n"
    lines = [f"automorphism group of N_{{{args.q},{args.r}}}: order {len(group)}"]
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
    rec["p"] = spec.p
    rec["n"] = spec.n
    rec["m"] = spec.m
    rec["genus"] = sepcurve.genus(spec)
    status = 0
    if args.search_field is not None:
        field = _field_of_order(args.search_field)
        maps = sepcurve.brute_force_stabilizer_search(spec, field,
                                                      budget=args.budget)
        rec["search_field"] = args.search_field
        rec["search_count"] = len(maps)
        match = (None if result.case == sepcurve.NON_MONOMIAL
                 else len(maps) == result.predicted_stabilizer_order)
        rec["search_matches_prediction"] = match
        status = 1 if match is False else 0
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

    def common(sp):
        sp.add_argument("--format", choices=["csv", "json", "text"],
                        default=None)
        sp.add_argument("--out", default=None, help="write data to this file")
        sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="max enumeration count for searches")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for sampled checks")

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
    common(sp)

    for name in ("code-build", "min-dist", "aut-verify"):
        sp = sub.add_parser(name)
        sp.add_argument("--q", type=int, required=True)
        sp.add_argument("--r", type=int, required=True)
        sp.add_argument("--ell", type=int, required=True)
        common(sp)

    sp = sub.add_parser("classify", help="separated-curve classification")
    sp.add_argument("--spec", required=True, help="path to a spec JSON file")
    sp.add_argument("--search-field", type=int, default=None,
                    help="order of the stabilizer search field")
    common(sp)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    fn, default_fmt = _COMMANDS[args.command]
    args.format = args.format or default_fmt
    try:
        if args.budget <= 0:
            raise ValueError("budget must be positive")
        status, data = fn(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data)
    return status


if __name__ == "__main__":
    sys.exit(main())
