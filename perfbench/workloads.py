"""The workloads: their inputs, shared fixtures and job lists.

Each workload is a fixed list of jobs.  The seed chooses the sampled
code automorphisms (all of equal cost), draws the coefficients of the
fixed-shape random specs, and sets the order of jobs in each pass; the
program only ever receives the generated argv, spec files and objects.

CLI jobs are checked against stdout digests recorded in expected.json.
Library and seeded jobs are checked against answers computed here,
independently of the package where the mathematics allows it.
"""

from __future__ import annotations

import json
import random

from jobs import CliResult, Job, cli_job, run_cli

BIG_BUDGET = str(8 ** 9)
SEARCH_BUDGET = str(2 ** 26)
# Jobs run this many times in each untraced pass, except those a part
# names in LONG (0.3 s or more at the commit that defined the benchmark),
# which run once.  Short jobs get more samples for the same time.
SHORT_REPEATS = 3


def designed_distance(q, r, ell):
    """d* = n - ell * q^(r-1) with n = q^(2r-1) + 1 - q^(r-1)."""
    return q ** (2 * r - 1) + 1 - (ell + 1) * q ** (r - 1)


def lattice_dimension(q, r, ell):
    """#{(i, j): i >= 0, 0 <= j < q^(r-1), i h + j c <= ell h}, the
    dimension of L(ell * Omega) counted straight from the semigroup."""
    h = q ** (r - 1)
    c = (q ** r - 1) // (q - 1)
    s = ell * h
    return sum(1 for j in range(h) for i in range(s // h + 1)
               if i * h + j * c <= s)


def _spec(p, k, a, b, modulus=None):
    field = {"p": p, "k": k}
    if modulus:
        field["modulus"] = modulus
    return {"p": p, "field": field,
            "A": [{"j": j, "a_j_index": c} for j, c in sorted(a.items())],
            "B": list(b)}


# Acceptance c08, case (ii): A = Y^4 + Y^2 + Y, B = X^3 over GF(2).
C08_CASE_II = _spec(2, 1, {0: 1, 1: 1, 2: 1}, (0, 0, 0, 1))


class Workload:
    """Inputs are made in __init__; setup builds the fixtures the library
    jobs share and is timed as setup_s; jobs lists one pass: the CLI
    jobs checked by digest, then the jobs whose answer is checked here.

    Every workload also runs a few small shared jobs that together call
    every traced layer, so that no per-layer time is a constant zero.
    """

    LONG: frozenset = frozenset()

    def __init__(self, seed: int, workdir, digests: dict):
        self.seed = seed
        self.workdir = workdir
        self.digests = digests
        self.shared_spec = self.write_spec("c08-case-ii", C08_CASE_II)

    def write_spec(self, name, spec) -> str:
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def cli_argvs(self) -> dict[str, list[str]]:
        """Name -> argv of the workload's own digest-checked CLI jobs."""
        return {}

    def digest_argvs(self) -> dict[str, list[str]]:
        """Name -> argv of every digest-checked CLI job, shared ones first."""
        return {"aut-verify --q 2 --r 3 --ell 2":
                ["aut-verify", "--q", "2", "--r", "3", "--ell", "2"],
                "classify c08-case-ii --search-field 64":
                ["classify", "--spec", self.shared_spec, "--search-field", "64",
                 "--budget", SEARCH_BUDGET],
                **self.cli_argvs()}

    def setup(self, nt):
        return None

    def checked_jobs(self, nt, fixtures) -> list[Job]:
        return []

    def jobs(self, nt, fixtures) -> list[Job]:
        def equivalence(cv):
            return nt.codes.monomial_equivalence_check(
                nt.codes.build_code(cv, 1), nt.codes.extended_one_point_code(cv, 1))
        shared = [
            Job("min_distance_exhaustive q=2 r=3 ell=1 with build",
                lambda: nt.codes.min_distance_exhaustive(
                    nt.codes.build_code(nt.curve.build_curve(2, 3), 1), 8 ** 9),
                lambda d: d == designed_distance(2, 3, 1)),
            Job("monomial_equivalence_check q=2 r=3 ell=1 with build",
                lambda: equivalence(nt.curve.build_curve(2, 3)),
                lambda wit: wit is not None),
        ]
        jobs = ([cli_job(nt, name, argv, self.digests)
                 for name, argv in self.digest_argvs().items()]
                + shared + self.checked_jobs(nt, fixtures))
        for job in jobs:
            job.repeats = 1 if job.name in self.LONG else SHORT_REPEATS
        return jobs


def _named(argvs):
    return {" ".join(argv): argv for argv in argvs}


class CodeLadder(Workload):
    """Code construction plus RREF, in characteristic 2 and odd."""

    EQUIV = [(2, 3, ell) for ell in range(1, 6)] + [(3, 3, 13)]
    LONG = frozenset({
        "code-table --q 3 --r 3 --ell 1 --ell-max 13",
        "code-table --q 3 --r 3 --ell 14 --ell-max 26",
        "code-build --q 4 --r 3 --ell 24 --format json",
        "code-build --q 4 --r 3 --ell 31 --format json",
        "code-build --q 3 --r 4 --ell 20 --format json",
        "code-build --q 16 --r 2 --ell 16 --format json"})

    def cli_argvs(self):
        # (3,3) is tabulated in two ell ranges: shorter jobs are timed
        # more steadily on a machine whose speed varies.
        argvs = [["code-table", "--q", "2", "--r", "3"],
                 ["code-table", "--q", "3", "--r", "3", "--ell", "1",
                  "--ell-max", "13"],
                 ["code-table", "--q", "3", "--r", "3", "--ell", "14",
                  "--ell-max", "26"],
                 ["code-table", "--q", "2", "--r", "4"]]
        argvs += [["code-build", "--q", str(q), "--r", str(r),
                   "--ell", str(ell), "--format", "json"]
                  for q, r, ells in [(4, 3, (8, 16, 24, 31)), (3, 4, (10, 20)),
                                     (16, 2, (8, 16))]
                  for ell in ells]
        return _named(argvs)

    def setup(self, nt):
        curves = {(q, r): nt.curve.build_curve(q, r)
                  for q, r in {(q, r) for q, r, _ in self.EQUIV}}
        return [(q, r, ell, nt.codes.build_code(curves[q, r], ell),
                 nt.codes.extended_one_point_code(curves[q, r], ell))
                for q, r, ell in self.EQUIV]

    def checked_jobs(self, nt, pairs):
        def check(q, r, ell, a, b):
            want = lattice_dimension(q, r, ell)
            return lambda wit: (
                wit is not None
                and a.k == b.k == nt.codes.dimension_closed_form(q, r, ell)
                == want)
        return [Job(f"monomial_equivalence_check q={q} r={r} ell={ell}",
                    lambda a=a, b=b: nt.codes.monomial_equivalence_check(a, b),
                    check(q, r, ell, a, b))
                for q, r, ell, a, b in pairs]


class MinDistance(Workload):
    """The enumeration kernel: early-stop CLI searches and full sweeps."""

    # (2,4) ell=3 (16^6 words, about 12 s) is left out: one such job would
    # fill a whole run, leaving a single sample per job.
    SWEEPS = [(2, 3, 3), (2, 4, 2), (3, 3, 2), (4, 3, 1)]
    LONG = frozenset({f"min-dist --q 2 --r 3 --ell 4 --budget {BIG_BUDGET}",
                      f"min-dist --q 4 --r 3 --ell 2 --budget {BIG_BUDGET}",
                      "min_distance_exhaustive q=3 r=3 ell=2"})

    def cli_argvs(self):
        return _named(
            ["min-dist", "--q", str(q), "--r", str(r), "--ell", str(ell),
             "--budget", BIG_BUDGET]
            for q, r, ells in [(2, 3, (1, 2, 3, 4)), (3, 3, (1, 2)),
                               (2, 4, (1, 2, 3)), (4, 3, (1, 2))]
            for ell in ells)

    def setup(self, nt):
        return [(q, r, ell, nt.codes.build_code(nt.curve.build_curve(q, r), ell))
                for q, r, ell in self.SWEEPS]

    def checked_jobs(self, nt, sweeps):
        # No stop_at: every one of the Q^k messages is enumerated.
        return [Job(f"min_distance_exhaustive q={q} r={r} ell={ell}",
                    lambda code=code: nt.codes.min_distance_exhaustive(
                        code, code.curve.ctx.order ** code.k),
                    lambda d, want=designed_distance(q, r, ell): d == want)
                for q, r, ell, code in sweeps]


class AutVerify(Workload):
    """Many single-row reductions and the scalar field path."""

    SAMPLED = [(3, 3, 13), (4, 3, 8)]
    MAPS_PER_CODE = 8
    LONG = frozenset({"aut-verify --q 3 --r 3 --ell 2",
                      "aut-verify --q 2 --r 4 --ell 2"})

    def cli_argvs(self):
        return _named(["aut-verify", "--q", str(q), "--r", str(r),
                       "--ell", str(ell)]
                      for q, r, ell in [(2, 3, 2), (2, 3, 4), (3, 3, 2),
                                        (2, 4, 2)])

    def setup(self, nt):
        rng = random.Random(self.seed)
        out = []
        for q, r, ell in self.SAMPLED:
            curve = nt.curve.build_curve(q, r)
            code = nt.codes.build_code(curve, ell)
            group = nt.autgroup.enumerate_group(curve)
            for i in range(self.MAPS_PER_CODE):
                g = nt.autgroup.CodeAut(rng.choice(group),
                                        frob=rng.randrange(curve.ctx.k),
                                        scalar=rng.randrange(1, curve.ctx.order))
                out.append((f"is_code_automorphism q={q} r={r} ell={ell} "
                            f"map={i}", code, g))
        return out

    def checked_jobs(self, nt, sampled):
        return [Job(name, lambda code=code, g=g:
                    nt.autgroup.is_code_automorphism(code, g),
                    lambda verdict: verdict is True)
                for name, code, g in sampled]


# GF(4) = GF(2)[w]/(w^2 + w + 1), element index = c0 + 2 c1.
GF4_MODULUS = [1, 1, 1]
GF4_MUL = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]

# Two-term A = a2 Y^4 + a0 Y and B = b3 (X + s)^3 over GF(4): p^n = 4,
# m = 3, d = 2, so the classification is case (ii) with stabilizer order
# p^n * m * (p^d - 1) = 36 for every draw, and GF(64) already holds all
# of those maps.  The search cost depends only on the search field.
RANDOM_SPEC_FIELDS = (64, 64, 64, 64)
RANDOM_SPEC_ORDER = 4 * 3 * (4 - 1)


def random_spec(rng):
    a0, a2, b3 = (rng.randrange(1, 4) for _ in range(3))
    s = rng.randrange(4)
    s2 = GF4_MUL[s][s]
    s3 = GF4_MUL[s2][s]
    # (X + s)^3 = X^3 + s X^2 + s^2 X + s^3 in characteristic 2
    b = [GF4_MUL[b3][s3], GF4_MUL[b3][s2], GF4_MUL[b3][s], b3]
    return _spec(2, 2, {0: a0, 2: a2}, b, GF4_MODULUS)


class FieldsSearch(Workload):
    """Field bootstrap, place enumeration and the stabilizer search."""

    LONG = frozenset({"field-info --q 59049", "field-info --q 262144",
                      "curve-info --q 4 --r 5", "curve-info --q 2 --r 10",
                      "curve-info --q 64 --r 2", "curve-info --q 16 --r 3"})

    FIXED_SPECS = {
        # acceptance c08: case (ii) over GF(2) and case (i) over GF(5)
        "c08-case-ii": (C08_CASE_II, (64, 4096)),
        "c08-case-i": (_spec(5, 1, {0: 1, 1: 1}, (0, 0, 0, 1)), (25, 625)),
        # acceptance c10: non-monomial B = X^3 + X
        "c10-x3-plus-x": (_spec(2, 1, {0: 1, 1: 1, 2: 1}, (0, 1, 0, 1)),
                          (64, 4096)),
    }

    def __init__(self, seed, workdir, digests):
        super().__init__(seed, workdir, digests)
        self.spec_paths = {name: self.write_spec(name, spec)
                           for name, (spec, _) in self.FIXED_SPECS.items()}
        rng = random.Random(self.seed)
        self.random_specs = [
            (self.write_spec(f"random-{i}", random_spec(rng)), field)
            for i, field in enumerate(RANDOM_SPEC_FIELDS)]

    def cli_argvs(self):
        argvs = {}
        for q in (2 ** 16, 3 ** 9, 5 ** 6, 7 ** 5, 3 ** 10, 2 ** 18):
            argv = ["field-info", "--q", str(q)]
            argvs[" ".join(argv)] = argv
        for q, r in [(4, 5), (2, 10), (64, 2), (16, 3)]:
            argv = ["curve-info", "--q", str(q), "--r", str(r)]
            argvs[" ".join(argv)] = argv
        for name, (_, fields) in self.FIXED_SPECS.items():
            for field in fields:
                argvs[f"classify {name} --search-field {field}"] = [
                    "classify", "--spec", self.spec_paths[name],
                    "--search-field", str(field), "--budget", SEARCH_BUDGET]
        return argvs

    def checked_jobs(self, nt, fixtures):
        def check(res: CliResult):
            rec = json.loads(res.stdout)
            return (res.status == 0 and rec["case"] == "monomial-case-ii"
                    and rec["search_count"] == RANDOM_SPEC_ORDER
                    == rec["predicted_stabilizer_order"])
        return [Job(f"classify random-{i} --search-field {field}",
                    lambda argv=["classify", "--spec", path, "--search-field",
                                 str(field), "--budget", SEARCH_BUDGET,
                                 "--format", "json"]: run_cli(nt, argv),
                    check)
                for i, (path, field) in enumerate(self.random_specs)]


class Combined(Workload):
    """Several parts run as one workload: their CLI jobs, fixtures and
    checked jobs together in every pass."""

    PARTS: tuple = ()

    def __init__(self, seed, workdir, digests):
        super().__init__(seed, workdir, digests)
        self.parts = [part(seed, workdir, digests) for part in self.PARTS]
        self.LONG = frozenset().union(*(part.LONG for part in self.PARTS))

    def cli_argvs(self):
        return {name: argv for part in self.parts
                for name, argv in part.cli_argvs().items()}

    def setup(self, nt):
        return [part.setup(nt) for part in self.parts]

    def checked_jobs(self, nt, fixtures):
        return [job for part, fx in zip(self.parts, fixtures)
                for job in part.checked_jobs(nt, fx)]


# Two workloads of about 15 s a pass, so that a 50 s run holds three
# passes within the time the benchmark may take.  Each pairs two parts
# that stress different layers; between them every layer is stressed.
class CodesAutgroup(Combined):
    PARTS = (CodeLadder, AutVerify)


class EnumFields(Combined):
    PARTS = (MinDistance, FieldsSearch)


WORKLOADS = {
    "codes-autgroup": CodesAutgroup,
    "enum-fields": EnumFields,
}
