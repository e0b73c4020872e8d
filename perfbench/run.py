"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload codes-autgroup --seed 1 --seconds 50 --trace 0

Run from the repository root.  The package is imported from ``src/``
in-process, from one thread, and set up several times; then a fixed
number of passes, set by ``--seconds``, run the workload's fixed job
list in a seeded order.  Every job's output is checked.  Times are CPU
times of the process, scaled to a reference machine speed by the
calibration timed between jobs (see calibration.py).

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics are
printed.  The last line of stdout is the result object; failed jobs
are listed on stderr.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

from calibration import calibrate, scaled
from jobs import run_job
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One pass over either workload's job list took about this long at the
# commit that defined the benchmark, with the machine in its fast state.
# A run makes --seconds / PASS_S passes, so that both sides of a
# comparison time every job equally often.
PASS_S = 20.0
# Safety stop: no pass starts that the longest pass so far would carry
# past STOP_FACTOR * --seconds.  It fires only when the machine runs well
# under the speed PASS_S was measured at, and bounds the time a set of
# runs takes; a job's time is a median, so fewer passes do not bias it.
STOP_FACTOR = 1.3
# Cold set-ups before each pass; setup_s is the median of all of them.
SETUPS_PER_PASS = 4
# A job past this many seconds is recorded as failed and the run goes on.
JOB_LIMIT_S = 30.0
# No job starts after this many seconds, so a run always ends in time.
RUN_LIMIT_S = 150.0
MODULES = ("gf", "curve", "rrspace", "linalg", "codes", "autgroup",
           "sepcurve", "cli")


def cap_threads():
    """BLAS/OpenMP pools no wider than the CPUs this process may use;
    must run before numpy is imported."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = n


def load_package():
    """A fresh import of the package from src/, so each set-up pays the
    import again; returns its modules by layer name."""
    for name in [m for m in sys.modules
                 if m == "normtrace" or m.startswith("normtrace.")]:
        del sys.modules[name]
    pkg = importlib.import_module("normtrace")
    if Path(pkg.__file__).resolve().parent != SRC / "normtrace":
        raise RuntimeError(f"normtrace imported from {pkg.__file__}, "
                           f"not from {SRC}")
    return argparse.Namespace(**{m: importlib.import_module(f"normtrace.{m}")
                                 for m in MODULES})


def run_pass(jobs, order_rng, run_deadline, tracer=None, nt=None):
    """One pass over the job list in a seeded order.  Untraced, each job
    runs ``job.repeats`` times, the copies spread through the pass by the
    shuffle; traced, each runs once.  Returns the outcomes, with times
    scaled to the reference speed, and when traced the span summary."""
    order = [job for job in jobs for _ in range(1 if tracer else job.repeats)]
    order_rng.shuffle(order)
    if tracer:
        tracer.install(nt)
    try:
        outcomes, cals = [], [calibrate()]
        for job in order:
            outcomes.append(run_job(job, min(JOB_LIMIT_S,
                                             run_deadline - time.perf_counter())))
            gc.collect(0)
            cals.append(calibrate())
    finally:
        if tracer:
            tracer.uninstall()
    for o, before, after in zip(outcomes, cals, cals[1:]):
        o.seconds = scaled(o.seconds, before, after)
    if not tracer:
        return outcomes, None
    tracer.counts["cli.output_bytes"] += sum(o.output_bytes for o in outcomes)
    return outcomes, tracer.take()


def job_times(passes):
    """Each job's median successful (scaled) time over the passes."""
    times = {}
    for outcomes in passes:
        for o in outcomes:
            if o.ok:
                times.setdefault(o.name, []).append(o.seconds)
    return {name: statistics.median(ts) for name, ts in times.items()}


def measure(workload, seed, seconds, trace):
    import tracing  # imports numpy, so only after cap_threads

    digests = json.loads((HERE / "expected.json").read_text())
    # As timeit does, the cyclic garbage collector is paused while timing:
    # when it runs depends on everything allocated before, so it would add
    # a cost that differs from pass to pass.  It runs between jobs instead.
    gc.disable()
    order_rng = random.Random(seed)
    tracer = tracing.Tracer() if trace else None
    # A traced run needs an untraced and a traced pass at least.
    least = 2 if trace else 1
    passes = max(least, round(seconds / PASS_S))
    setup_s, plain, traced, summaries = [], [], [], []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        wl = WORKLOADS[workload](seed, Path(tmp), digests)
        start = time.perf_counter()
        run_deadline = start + RUN_LIMIT_S
        longest = 0.0
        for i in range(passes):
            if i >= least and (time.perf_counter() + longest
                               > start + STOP_FACTOR * seconds):
                break
            t0 = time.perf_counter()
            # Cold set-ups before every pass, so that they are spread over
            # the run like the jobs; the last one serves the pass.
            cal = calibrate()
            for _ in range(SETUPS_PER_PASS):
                gc.collect()
                t1 = time.process_time()
                nt = load_package()
                fixtures = wl.setup(nt)
                t1 = time.process_time() - t1
                after = calibrate()
                setup_s.append(scaled(t1, cal, after))
                cal = after
            # With tracing, every other pass is traced.
            use_tracer = tracer if i % 2 else None
            outcomes, summary = run_pass(wl.jobs(nt, fixtures), order_rng,
                                         run_deadline, use_tracer, nt)
            (traced if use_tracer else plain).append(outcomes)
            if summary:
                summaries.append(summary)
            longest = max(longest, time.perf_counter() - t0)

    everything = plain + traced
    failed = [o for outcomes in everything for o in outcomes if not o.ok]
    attempted = sum(len(outcomes) for outcomes in everything)
    for o in failed:
        print(f"FAILED {o.name}: {o.error}", file=sys.stderr)
    times = job_times(plain)
    if trace:
        metrics = tracing.layer_metrics(summaries)
        metrics["trace.overhead_s"] = {
            "value": sum(job_times(traced).values()) - sum(times.values()),
            "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "cpu_s": {"value": sum(times.values()), "unit": "s"},
            "job_p50_cpu_s": {"value": statistics.median(times.values())
                              if times else 0.0, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024, "unit": "MB"},
            "ok_frac": {"value": 1 - len(failed) / attempted,
                        "unit": "ratio"},
        }
    print(f"{workload}: {len(plain)} plain and {len(traced)} traced passes "
          f"in {time.perf_counter() - start:.1f} s, {len(failed)} of "
          f"{attempted} jobs failed", file=sys.stderr)
    return {"correct": not failed, "attempted": attempted,
            "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "normtrace" / "__init__.py").is_file():
        print(f"error: no normtrace package under {SRC}", file=sys.stderr)
        return 2
    cap_threads()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  imported once, before the timed set-ups

    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
