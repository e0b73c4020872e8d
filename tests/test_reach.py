"""Every function and method of src/ is entered by what the toolkit
offers: the demos, and one cli.main argv per subcommand and format on
small curves, classify specs of each case included.

The corpus runs in a fresh interpreter under sys.setprofile, so the
caches (functools.cache, cached_property, the canonical field table)
start cold whatever ran before it.  Each def of src/, found with ast,
is matched to the code objects entered by file and first line (the
first decorator's line for a decorated def, as co_firstlineno reads),
which works on every Python the package supports.  A def that the
corpus does not enter fails, unless UNREACHED lists it with reasons,
and each reason is checked, so that the table cannot go stale: a listed
name that the corpus enters fails too.

Run as a script, this file runs the corpus and prints the entered defs
of src/ as JSON lines of [module, first line, name].
"""

import ast
import contextlib
import functools
import importlib.util
import io
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "normtrace"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Each unreached def of src/ that stays, with why.  A reason is one of:
# ("export",): normtrace/__init__.py imports it;
# ("perfbench",): perfbench/tracing.py's _wrap_points wraps it, so
#     deleting it waits for the benchmark revision;
# ("waits", n): ROADMAP open item n names it as its deletion target;
# ("teeth", test): a failure branch, entered by that existing test;
# ("dunder",): a special method Python calls on demand.
UNREACHED = {
    "autgroup.code_action": (("perfbench",), ("waits", 6), ("waits", 14)),
    "codes._rref_diagonal": (("waits", 2),),
    "gf.FieldCtx.__hash__": (("dunder",),),
    "gf.FieldCtx.__repr__": (("dunder",),),
    "curve.NormTraceCurve.__hash__": (("dunder",),),
    "sepcurve.assert_group.<locals>.not_closed": (
        ("teeth",
         "tests/test_sepcurve.py::test_assert_group_detects_doctored_sets"),),
}

# Y^4 + Y^2 + Y = X^3 over GF(2): case (ii), 12 maps over GF(64)
CASE_II = {"p": 2, "field": {"p": 2, "k": 1},
           "A": [{"j": 0, "a_j_index": 1}, {"j": 1, "a_j_index": 1},
                 {"j": 2, "a_j_index": 1}],
           "B": [0, 0, 0, 1]}
# (name, spec, stabilizer search field)
SPECS = [
    ("case-ii", CASE_II, "64"),
    # Y^5 + Y = X^3 over GF(5): case (i)
    ("case-i", {"p": 5, "field": {"p": 5, "k": 1},
                "A": [{"j": 0, "a_j_index": 1}, {"j": 1, "a_j_index": 1}],
                "B": [0, 0, 0, 1]}, "25"),
    # B = X^3 + X has several roots
    ("non-monomial", {**CASE_II, "B": [0, 1, 0, 1]}, "64"),
    # GF(8) under X^3 + X^2 + 1, where the canonical modulus is
    # X^3 + X + 1: Ben-Or's test and the generator search run
    ("modulus", {**CASE_II, "field": {"p": 2, "k": 3,
                                      "modulus": [1, 0, 1, 1]}}, "64"),
]


def corpus(tmp: Path) -> list[list[str]]:
    """The cli.main argvs, their spec files written under tmp: each
    subcommand on (2,3), min-dist on (3,2) too, as its word kernel has
    a form for each of p = 2 and odd p, and each spec with and without a
    stabilizer search, all in every format."""
    curve = ["--q", "2", "--r", "3"]
    argvs = [["field-info", "--q", "8"], ["curve-info", *curve],
             ["code-table", *curve], ["code-build", *curve, "--ell", "2"],
             ["min-dist", *curve, "--ell", "2"],
             ["min-dist", "--q", "3", "--r", "2", "--ell", "2"],
             ["aut-verify", *curve, "--ell", "2"]]
    for name, spec, field in SPECS:
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(spec))
        argvs += [["classify", "--spec", str(path)],
                  ["classify", "--spec", str(path), "--search-field", field]]
    return [argv + ["--format", fmt] for argv in argvs
            for fmt in ("csv", "json", "text")]


def run_corpus() -> list[tuple[str, int, str]]:
    """(module, first line, name) of every code object of src/ that
    the corpus enters."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sink = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.setprofile(hook)
        try:
            from normtrace.cli import main
            for path in DEMOS:
                runpy.run_path(str(path), run_name="__main__")
            for argv in corpus(Path(tmp)):
                main(argv)
        finally:
            sys.setprofile(None)
    return sorted({(Path(c.co_filename).stem, c.co_firstlineno, c.co_name)
                   for c in entered
                   if Path(c.co_filename).parent == SRC})


@functools.cache
def entered() -> frozenset:
    """run_corpus's result, from a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, __file__], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return frozenset(tuple(json.loads(line))
                     for line in proc.stdout.splitlines())


@functools.cache
def src_defs() -> dict[tuple[str, int, str], str]:
    """(module, first line, name) -> qualified name, such as
    sepcurve.assert_group.<locals>.not_closed, for every def of src/."""
    defs = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([d.lineno for d in child.decorator_list]
                           + [child.lineno])
                defs[module, line, child.name] = f"{module}.{prefix}{child.name}"
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            else:
                walk(child, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    return defs


def reach_problems(defs, entered, table) -> list[str]:
    """The reach check on its inputs: each def that is neither entered
    nor listed in table, each listed name that is entered, and each
    listed name that is no def."""
    reached = {defs[key] for key in entered if key in defs}
    problems = [f"{name} is entered by no demo or command: call it, "
                "delete it, or list it in UNREACHED with a reason"
                for key, name in sorted(defs.items())
                if key not in entered and name not in table]
    problems += [f"{name} is listed in UNREACHED, but the corpus enters it"
                 for name in sorted(set(table) & reached)]
    problems += [f"{name} is listed in UNREACHED, but is no def of src/"
                 for name in sorted(set(table) - set(defs.values()))]
    return problems


def _exports() -> set[str]:
    """module.name for each name that normtrace/__init__.py imports."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {f"{node.module}.{alias.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def _wrapped() -> set[str]:
    """module.name, or module.Class.name, of every binding that the
    benchmark's tracer wraps, read from perfbench/tracing.py."""
    spec = importlib.util.spec_from_file_location(
        "_reach_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    nt = types.SimpleNamespace(**{
        path.stem: importlib.import_module(f"normtrace.{path.stem}")
        for path in SRC.glob("*.py") if not path.stem.startswith("__")})
    out = set()
    for owner, attr, _, _ in tracing._wrap_points(nt):
        if isinstance(owner, type):
            owner = f"{owner.__module__}.{owner.__name__}"
        else:
            owner = owner.__name__
        out.add(f"{owner.removeprefix('normtrace.')}.{attr}")
    return out


def _roadmap_items() -> dict[int, str]:
    """The text of each open item of ROADMAP.md, by number."""
    text = (ROOT / "ROADMAP.md").read_text().split("\n## Open items", 1)[1]
    parts = re.split(r"^(\d+)\. \*\*", text, flags=re.M)
    return {int(n): body for n, body in zip(parts[1::2], parts[2::2])}


def _test_exists(nodeid: str) -> bool:
    path, name = nodeid.split("::")
    path = ROOT / path
    return path.is_file() and any(
        isinstance(node, ast.FunctionDef) and node.name == name
        for node in ast.parse(path.read_text()).body)


def reason_problems(table) -> list[str]:
    """Each reason in table that does not hold."""
    exports, wrapped, items = _exports(), _wrapped(), _roadmap_items()
    problems = []
    for name, reasons in table.items():
        short = name.rsplit(".", 1)[1]
        for reason in reasons:
            kind = reason[0]
            if kind == "export":
                holds = name in exports
            elif kind == "perfbench":
                holds = name in wrapped
            elif kind == "waits":
                holds = short in items.get(reason[1], "")
            elif kind == "teeth":
                holds = _test_exists(reason[1])
            elif kind == "dunder":
                holds = re.fullmatch(r"__\w+__", short) is not None
            else:
                holds = False
            if not holds:
                problems.append(f"{name}: reason {reason} does not hold")
    return problems


def test_every_def_is_entered_or_listed():
    assert reach_problems(src_defs(), entered(), UNREACHED) == []


def test_every_listed_reason_holds():
    assert reason_problems(UNREACHED) == []


def test_an_uncalled_private_function_fails():
    defs = {**src_defs(), ("poly", 10 ** 6, "_orphan"): "poly._orphan"}
    problems = reach_problems(defs, entered(), UNREACHED)
    assert len(problems) == 1 and problems[0].startswith("poly._orphan ")


def test_a_listed_name_that_the_corpus_enters_fails():
    table = {**UNREACHED, "poly.mul": (("dunder",),)}
    assert reach_problems(src_defs(), entered(), table) == [
        "poly.mul is listed in UNREACHED, but the corpus enters it"]


def test_a_stale_reason_fails():
    # one reason of each kind that does not hold; code_action is an
    # export, so its first reason holds
    table = {"autgroup.code_action": (("export",), ("waits", 2)),
             "codes._rref_diagonal": (("perfbench",), ("export",)),
             "poly.mul": (("dunder",), ("teeth", "tests/test_poly.py::no"))}
    assert reason_problems(table) == [
        "autgroup.code_action: reason ('waits', 2) does not hold",
        "codes._rref_diagonal: reason ('perfbench',) does not hold",
        "codes._rref_diagonal: reason ('export',) does not hold",
        "poly.mul: reason ('dunder',) does not hold",
        "poly.mul: reason ('teeth', 'tests/test_poly.py::no') does not hold"]


if __name__ == "__main__":
    for key in run_corpus():
        print(json.dumps(key))
