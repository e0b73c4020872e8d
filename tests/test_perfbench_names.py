"""The library names that perfbench/ reaches by name, checked in
milliseconds: tracing.Tracer wraps its bindings on the package modules
as run.py's load_package gathers them, and the automorphism workload
builds CodeAut from autgroup.enumerate_group.  A deleted or renamed
binding fails here, not only in a traced benchmark run."""

import argparse
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench/ on sys.path, its modules forgotten again afterwards;
    yields a function importing one of them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module
    for name, module in list(sys.modules.items()):
        if Path(getattr(module, "__file__", None) or "/").parent == PERFBENCH:
            del sys.modules[name]


def package(run):
    """The modules run.MODULES names, by layer name.  load_package also
    imports them afresh; here the loaded ones serve, so the other tests
    keep their classes."""
    return argparse.Namespace(**{m: importlib.import_module(f"normtrace.{m}")
                                 for m in run.MODULES})


def test_tracer_wraps_and_restores_every_binding(perfbench):
    tracing = perfbench("tracing")
    nt = package(perfbench("run"))
    points = tracing._wrap_points(nt)
    before = [vars(owner)[attr] if isinstance(owner, type)
              else getattr(owner, attr) for owner, attr, _, _ in points]
    tracer = tracing.Tracer()
    tracer.install(nt)
    try:
        assert len(tracer._originals) == len(points)
        curve = nt.curve.build_curve(2, 3)
        group = nt.autgroup.enumerate_group(curve)
        code = nt.codes.build_code(curve, 2)
        assert nt.autgroup.is_code_automorphism(
            code, nt.autgroup.CodeAut(group[5], frob=1, scalar=3))
    finally:
        tracer.uninstall()
    summary = tracer.take()
    assert summary.counts["autgroup.is_code_automorphism.calls"] == 1
    assert summary.inclusive["autgroup.enumerate_group"] > 0
    assert [vars(owner)[attr] if isinstance(owner, type)
            else getattr(owner, attr)
            for owner, attr, _, _ in points] == before


def test_aut_workload_builds_code_auts_from_the_group(perfbench, tmp_path):
    workloads = perfbench("workloads")
    nt = package(perfbench("run"))
    curve = nt.curve.build_curve(2, 3)
    group = nt.autgroup.enumerate_group(curve)
    assert len(group) == 28
    assert all(isinstance(s, nt.autgroup.CurveAut) for s in group)
    assert all(nt.autgroup.CodeAut(s, frob=1, scalar=3).aut is s
               for s in group)
    aut = workloads.AutVerify(1, tmp_path, {})
    jobs = aut.checked_jobs(nt, aut.setup(nt))
    assert len(jobs) == 2 * aut.MAPS_PER_CODE
    assert all(job.check(job.call()) for job in jobs[:2])
