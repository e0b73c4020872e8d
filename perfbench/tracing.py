"""Per-layer tracing from outside the package.

The tracer wraps the library's public functions at the binding each
caller uses (a module attribute, a name imported into another module,
or a method on a class) and records one span per call: name, start,
end and the index of the enclosing span.  Counts are recorded at the
same wraps.  Nothing inside ``src/`` is changed; ``uninstall`` puts the
original objects back.

The scalar ``FieldCtx`` operations (add, mul, pow, frobenius) are not
wrapped: they run millions of times per job, and their cost shows up as
the self time of the spans that call them (``autgroup.code_action``,
``sepcurve.search``).
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from collections import Counter
from functools import cached_property

import numpy as np


def _count_calls(key):
    def count(counts, args, kwargs, result, seconds):
        counts[key] += 1
    return count


def _count_vec(counts, args, kwargs, result, seconds):
    # Bytes are computed from array sizes and dtypes (inputs read plus
    # output written), not measured: cache behaviour is not seen.
    counts["gf.vec.calls"] += 1
    counts["gf.vec.elems"] += result.size
    counts["gf.vec.bytes"] += result.nbytes + sum(
        a.nbytes for a in args if isinstance(a, np.ndarray))


def _count_places(counts, args, kwargs, result, seconds):
    counts["curve.places.count"] += len(result)


def _count_rref(counts, args, kwargs, result, seconds):
    rows, cols = np.shape(args[1])
    counts["linalg.rref.calls"] += 1
    counts["linalg.rref.cells"] += rows * cols


def _count_min_distance(counts, args, kwargs, result, seconds):
    # Q^k words are swept exactly only when the search cannot stop early.
    stop_at = kwargs.get("stop_at", args[2] if len(args) > 2 else None)
    if stop_at is None:
        code = args[0]
        counts["codes.min_distance.words"] += code.curve.ctx.order ** code.k
        counts["codes.min_distance.full_sweep_s"] += seconds


def _count_search(counts, args, kwargs, result, seconds):
    # The (a, b, c0) loop size, as the search computes its budget cost:
    # a ranges over the nonzero a with a^(p^j) = a for every A-exponent j,
    # which is the subfield of order p^gcd(k, j...).
    spec = args[0]
    field = kwargs.get("search_field", args[1] if len(args) > 1 else None)
    sub = math.gcd(field.k, *spec.a_coeffs)
    counts["sepcurve.search.candidates"] += ((field.p ** sub - 1)
                                             * (field.order - 1) * field.order)
    counts["sepcurve.search.found"] += len(result)


VECTOR_OPS = ("vadd", "vneg", "vscale", "vmul", "vpow", "vmul_outer")


def _wrap_points(nt):
    """(owner, attribute, span name, count) for every wrapped binding."""
    ctx_cls = nt.gf.FieldCtx
    points = [(ctx_cls, "__init__", "gf.build_field",
               _count_calls("gf.build_field.calls"))]
    points += [(ctx_cls, op, f"gf.{op}", _count_vec) for op in VECTOR_OPS]
    points.append((nt.curve.NormTraceCurve, "places", "curve.places",
                   _count_places))
    # codes imports these rrspace functions by name, so both bindings
    # are wrapped; basis_multipoint calls basis_one_point and
    # extended_evaluate calls evaluate through the rrspace globals.
    for owner in (nt.rrspace, nt.codes):
        points += [
            (owner, "basis_multipoint", "rrspace.basis", None),
            (owner, "basis_one_point", "rrspace.basis", None),
            (owner, "evaluate", "rrspace.evaluate",
             _count_calls("rrspace.evaluate.calls")),
        ]
    points += [
        (nt.linalg, "rref", "linalg.rref", _count_rref),
        (nt.linalg, "reduce_vector", "linalg.reduce_vector",
         _count_calls("linalg.reduce_vector.calls")),
        (nt.codes, "build_code", "codes.build_code", None),
        (nt.codes, "min_distance_exhaustive", "codes.min_distance",
         _count_min_distance),
        (nt.codes, "monomial_equivalence_check", "codes.equivalence", None),
        (nt.autgroup, "enumerate_group", "autgroup.enumerate_group", None),
        (nt.autgroup, "fixed_places", "autgroup.fixed_places", None),
        (nt.autgroup, "code_action", "autgroup.code_action",
         _count_calls("autgroup.code_action.calls")),
        (nt.autgroup, "is_code_automorphism", "autgroup.is_code_automorphism",
         _count_calls("autgroup.is_code_automorphism.calls")),
        (nt.sepcurve, "brute_force_stabilizer_search", "sepcurve.search",
         _count_search),
        (nt.sepcurve, "assert_group", "sepcurve.assert_group", None),
        (nt.sepcurve, "classify", "sepcurve.classify", None),
        (nt.cli, "main", "cli", None),
    ]
    return points


class Tracer:
    """Spans and counts of the wrapped calls made while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _wrap(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1:3] = start, end
            if count is not None:
                count(counts, args, kwargs, result, end - start)
            return result
        return traced

    def install(self, nt):
        for owner, attr, name, count in _wrap_points(nt):
            original = vars(owner)[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            if isinstance(original, cached_property):
                wrapped = cached_property(self._wrap(name, original.func, count))
                wrapped.__set_name__(owner, attr)
            else:
                wrapped = self._wrap(name, original, count)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def take(self) -> "Summary":
        """Summarise and clear what was recorded since the last take."""
        summary = Summary(self.spans, self.counts)
        self.spans.clear()
        self.counts.clear()
        return summary


class Summary:
    """Inclusive and self time per span name, plus the counts.

    Inclusive time counts only the outermost span of a name, so a call
    nested in a span of the same name is not counted twice.  Self time is
    a span's duration minus the durations of its direct children.
    """

    def __init__(self, spans, counts):
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self.inclusive: Counter = Counter()
        self.self_time: Counter = Counter()
        for index, (name, start, end, parent) in enumerate(spans):
            self.self_time[name] += end - start - child[index]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                self.inclusive[name] += end - start
        self.counts = Counter(counts)


def _ratio(num, den):
    return num / den if den else 0.0


# metric name -> (unit, value from one traced pass's Summary)
LAYER_METRICS = {
    "gf.build_field.s": ("s", lambda s: s.inclusive["gf.build_field"]),
    "gf.build_field.calls": ("count", lambda s: s.counts["gf.build_field.calls"]),
    "gf.vadd.s": ("s", lambda s: s.inclusive["gf.vadd"]),
    "gf.vscale.s": ("s", lambda s: s.inclusive["gf.vscale"]),
    "gf.vmul.s": ("s", lambda s: s.inclusive["gf.vmul"]),
    "gf.vpow.s": ("s", lambda s: s.inclusive["gf.vpow"]),
    "gf.vmul_outer.s": ("s", lambda s: s.inclusive["gf.vmul_outer"]),
    "gf.vec.calls": ("count", lambda s: s.counts["gf.vec.calls"]),
    "gf.vec.elems": ("count", lambda s: s.counts["gf.vec.elems"]),
    "gf.vec.bytes": ("bytes_computed", lambda s: s.counts["gf.vec.bytes"]),
    "curve.places.s": ("s", lambda s: s.inclusive["curve.places"]),
    "curve.places.count": ("count", lambda s: s.counts["curve.places.count"]),
    "rrspace.basis.s": ("s", lambda s: s.inclusive["rrspace.basis"]),
    "rrspace.evaluate.s": ("s", lambda s: s.inclusive["rrspace.evaluate"]),
    "rrspace.evaluate.calls": ("count",
                               lambda s: s.counts["rrspace.evaluate.calls"]),
    "linalg.rref.s": ("s", lambda s: s.inclusive["linalg.rref"]),
    "linalg.rref.self_s": ("s", lambda s: s.self_time["linalg.rref"]),
    "linalg.rref.calls": ("count", lambda s: s.counts["linalg.rref.calls"]),
    "linalg.rref.cells": ("count", lambda s: s.counts["linalg.rref.cells"]),
    "linalg.reduce_vector.s": ("s", lambda s: s.inclusive["linalg.reduce_vector"]),
    "linalg.reduce_vector.calls": (
        "count", lambda s: s.counts["linalg.reduce_vector.calls"]),
    "codes.build_code.self_s": ("s", lambda s: s.self_time["codes.build_code"]),
    "codes.min_distance.s": ("s", lambda s: s.inclusive["codes.min_distance"]),
    "codes.min_distance.self_s": ("s",
                                  lambda s: s.self_time["codes.min_distance"]),
    "codes.min_distance.words": ("count",
                                 lambda s: s.counts["codes.min_distance.words"]),
    "codes.min_distance.words_per_s": ("1/s", lambda s: _ratio(
        s.counts["codes.min_distance.words"],
        s.counts["codes.min_distance.full_sweep_s"])),
    "codes.equivalence.s": ("s", lambda s: s.inclusive["codes.equivalence"]),
    "autgroup.enumerate_group.s": (
        "s", lambda s: s.inclusive["autgroup.enumerate_group"]),
    "autgroup.fixed_places.s": ("s",
                                lambda s: s.inclusive["autgroup.fixed_places"]),
    "autgroup.code_action.s": ("s",
                               lambda s: s.inclusive["autgroup.code_action"]),
    "autgroup.code_action.calls": (
        "count", lambda s: s.counts["autgroup.code_action.calls"]),
    "autgroup.is_code_automorphism.s": (
        "s", lambda s: s.inclusive["autgroup.is_code_automorphism"]),
    "autgroup.maps_per_s": ("1/s", lambda s: _ratio(
        s.counts["autgroup.is_code_automorphism.calls"],
        s.inclusive["autgroup.is_code_automorphism"])),
    "sepcurve.search.s": ("s", lambda s: s.inclusive["sepcurve.search"]),
    "sepcurve.assert_group.s": ("s",
                                lambda s: s.inclusive["sepcurve.assert_group"]),
    "sepcurve.classify.s": ("s", lambda s: s.inclusive["sepcurve.classify"]),
    "sepcurve.search.candidates": (
        "count", lambda s: s.counts["sepcurve.search.candidates"]),
    "sepcurve.search.found": ("count",
                              lambda s: s.counts["sepcurve.search.found"]),
    "sepcurve.search.yield": ("ratio", lambda s: _ratio(
        s.counts["sepcurve.search.found"],
        s.counts["sepcurve.search.candidates"])),
    "cli.self_s": ("s", lambda s: s.self_time["cli"]),
    "cli.output_bytes": ("bytes", lambda s: s.counts["cli.output_bytes"]),
}


def layer_metrics(summaries: list[Summary]) -> dict:
    """Median of each per-layer metric over the traced passes (0 if the
    run ended before a traced pass)."""
    return {name: {"value": statistics.median([get(s) for s in summaries])
                   if summaries else 0.0, "unit": unit}
            for name, (unit, get) in LAYER_METRICS.items()}
