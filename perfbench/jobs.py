"""Jobs: one timed call into the program plus a check of its output.

A job fails if it raises, runs past its time limit, exits with an
unexpected status or produces the wrong output.  A failed job counts
toward the failure fraction and never toward a time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import signal
import time
from dataclasses import dataclass
from typing import Any, Callable


class JobTimeout(Exception):
    """Raised in the job by the interval timer when its limit passes."""


@dataclass
class Job:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    repeats: int = 1  # runs in each untraced pass


@dataclass
class Outcome:
    name: str
    seconds: float
    ok: bool
    error: str | None = None
    output_bytes: int = 0


@dataclass
class CliResult:
    status: int
    stdout: str


def run_cli(nt, argv) -> CliResult:
    """Run one subcommand in-process as a user would, capturing stdout.
    ``nt.cli.main`` is looked up at call time so a traced run sees it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = nt.cli.main(list(argv))
    return CliResult(status, out.getvalue())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_job(nt, name, argv, digests) -> Job:
    """A CLI job whose stdout must match the digest recorded for its name."""
    want = digests.get(name)
    return Job(name, lambda: run_cli(nt, argv),
               lambda res: res.status == 0 and sha256(res.stdout) == want)


def _on_alarm(signum, frame):
    raise JobTimeout


def run_job(job: Job, limit: float) -> Outcome:
    """Run one job under a wall-clock limit in seconds (main thread only).
    The outcome's ``seconds`` is the CPU time the process spent in it."""
    if limit <= 0:
        return Outcome(job.name, 0.0, False, "not run: run deadline passed")
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.process_time()
    try:
        # The timer is disarmed inside the outer try, so an alarm that
        # lands while the call returns is still caught here.
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            value = job.call()
            seconds = time.process_time() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        return Outcome(job.name, time.process_time() - start, False,
                       f"timeout after {limit:.1f} s")
    except Exception as exc:  # a job error is recorded, the run goes on
        return Outcome(job.name, time.process_time() - start, False,
                       f"{type(exc).__name__}: {exc}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    try:
        ok = bool(job.check(value))
    except Exception as exc:
        return Outcome(job.name, seconds, False,
                       f"check raised {type(exc).__name__}: {exc}")
    return Outcome(job.name, seconds, ok, None if ok else "wrong output",
                   len(value.stdout.encode()) if isinstance(value, CliResult)
                   else 0)
