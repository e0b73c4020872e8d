"""Steadiness report: run each workload repeatedly and compare the
spread of every end-to-end metric with its bound in BENCHMARK.json.

    python3 perfbench/steady.py

Run from the repository root.  It makes two rounds of ten runs of every
workload in BENCHMARK.json, each run a fresh process with its own seed
(round r, run i uses seed 10 r + i + 1).  For each metric the report
gives the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median as a share of the metric's bound, and how far
the second round's median moved from the first's, in the metric's worse
direction, as a share of the bound.  The report ends with one JSON line
holding every value measured.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
ROUNDS = 2


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed}: {result['failed']} of "
              f"{result['attempted']} jobs failed\n{proc.stderr}",
              file=sys.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else 0.0


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    values = {}  # (workload, round) -> metric -> [values]
    for rnd in range(ROUNDS):
        for workload in workloads:
            runs = [run_once(workload, rnd * RUNS + i + 1, bench["run_seconds"])
                    for i in range(RUNS)]
            values[workload, rnd] = {name: [r[name] for r in runs]
                                     for name in metrics}

    print(f"{'workload':14} {'metric':12} {'round':>5} {'median':>10} "
          f"{'q1':>10} {'q3':>10} {'spread':>7} {'/bound':>7} {'moved':>7}")
    for (workload, rnd), per_metric in values.items():
        for name, vals in per_metric.items():
            med, q1, q3, rel = spread(vals)
            bound = metrics[name]["bound"]
            moved = ""
            if rnd > 0:
                first = statistics.median(values[workload, 0][name])
                worse = (med - first if metrics[name]["better"] == "lower"
                         else first - med)
                moved = f"{worse / first / bound:7.2f}" if first else ""
            print(f"{workload:14} {name:12} {rnd:5} {med:10.4g} {q1:10.4g} "
                  f"{q3:10.4g} {rel:7.3f} {rel / bound:7.2f} {moved}")
    print(json.dumps({f"{w}/{r}": v for (w, r), v in values.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
