"""Checks that the benchmark's own checks have teeth.

    python3 -m pytest -q perfbench/test_teeth.py

Run from the repository root.  A doctored expected digest, a wrong
answer, an error and a timeout must each count as a failed job.
"""

import gc
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run
import tracing
from jobs import Job, run_job
from workloads import SHORT_REPEATS

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_doctored_digest_counts_as_failed(tmp_path, monkeypatch):
    digests = json.loads((run.HERE / "expected.json").read_text())
    doctored = "min-dist --q 2 --r 3 --ell 1 --budget 134217728"
    digests[doctored] = "0" * 64
    (tmp_path / "expected.json").write_text(json.dumps(digests))
    monkeypatch.setattr(run, "HERE", tmp_path)
    monkeypatch.syspath_prepend(str(run.SRC))

    try:
        result = run.measure("enum-fields", seed=1, seconds=0.1, trace=0)
    finally:
        gc.enable()  # measure leaves the collector paused; a run then exits

    assert result["correct"] is False
    # A short job: it runs SHORT_REPEATS times in the run's one pass.
    assert result["failed"] == SHORT_REPEATS
    assert result["metrics"]["ok_frac"]["value"] < 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


def test_wrong_answer_error_and_timeout_fail():
    assert run_job(Job("right", lambda: 7, lambda v: v == 7), 5).ok
    wrong = run_job(Job("wrong", lambda: 8, lambda v: v == 7), 5)
    assert not wrong.ok and wrong.error == "wrong output"
    boom = run_job(Job("boom", lambda: 1 // 0, lambda v: True), 5)
    assert not boom.ok and boom.error.startswith("ZeroDivisionError")
    slow = run_job(Job("slow", lambda: time.sleep(5), lambda v: True), 0.2)
    assert not slow.ok and slow.error.startswith("timeout")
    assert slow.seconds < 2


def test_per_layer_names_match_benchmark_json():
    names = set(tracing.LAYER_METRICS) | {"trace.overhead_s"}
    assert names == {m["name"] for m in BENCH["per_layer"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable] + BENCH["command"][1:]
        + ["--workload", "codes-autgroup", "--seed", "1", "--seconds", "1",
           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not Path(tmp_path / "src").exists()
