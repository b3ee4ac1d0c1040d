"""Span tracing for the benchmark, installed from outside the library.

Each layer boundary is an exported public name of a goodsemi module.  The
tracer wraps the function once and rebinds the wrapper under every name
that refers to the original, in every loaded goodsemi module and on the
owning class, so calls are recorded where the caller looks the name up
(``curves.span_basis``, ``duality.validate``, ``IdealFrame.membership_box``,
``SeriesVector.__mul__``).  A boundary that no longer exists is listed in
``Tracer.missing``; the metrics that depend on it are then absent.

Spans are kept in memory as small lists and summarised at the end:
self time = a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time

# span record layout
NAME, PARENT, START, END, QUERY, COUNTS = range(6)


def _cells(lo, hi) -> int:
    return math.prod(int(h) - int(l) + 1 for l, h in zip(lo, hi))


def _scan_counts(args, kwargs, result):
    basis, hi = args[0], args[1] if len(args) > 1 else kwargs["hi"]
    lines = 0
    for i in range(len(hi)):
        lines += math.prod(int(hi[k]) + 1 for k in range(len(hi)) if k != i)
    return {"lines": lines, "N": basis.N, "dim": basis.dim}


def _span_counts(args, kwargs, result):
    return {"dim": result.dim, "N": result.N}


def _box_counts(args, kwargs, result):
    return {"cells": int(result.size)}


def _difference_counts(args, kwargs, result):
    # the window and kernel boxes that duality.difference scans
    E, F = args[0], args[1]
    fhi = [max(fg, eg - em + fm) for fg, eg, em, fm in zip(F.gamma, E.gamma, E.mu, F.mu)]
    kernel = _cells(F.mu, fhi)
    window = _cells(E.mu, [eg - fm + h for eg, fm, h in zip(E.gamma, F.mu, fhi)])
    return {"cells": window * kernel}


def _steps(args, kwargs, result):
    return {"steps": int(result)}


def _validate_name(args, kwargs) -> str:
    has_ambient = (len(args) > 1 and args[1] is not None) or kwargs.get("S") is not None
    return "ideals.validate_additivity" if has_ambient else "ideals.validate_axioms"


# (span name, module, attribute path, counter).  ``validate`` records one
# of two span names, chosen by whether an ambient semigroup is passed.
BOUNDARIES = [
    ("curves.value_ideal", "goodsemi.ringbridge.curves", "value_ideal", None),
    ("curves.colon_value_ideal", "goodsemi.ringbridge.curves", "colon_value_ideal", None),
    ("curves.length_quotient", "goodsemi.ringbridge.curves", "length_quotient", None),
    ("curves.conductor_of", "goodsemi.ringbridge.curves", "conductor_of", None),
    ("modules.value_semigroup_ideal", "goodsemi.ringbridge.modules", "value_semigroup_ideal", _scan_counts),
    ("modules.span_basis", "goodsemi.ringbridge.modules", "span_basis", _span_counts),
    ("modules.colon_solution_basis", "goodsemi.ringbridge.modules", "colon_solution_basis", None),
    ("series.mul", "goodsemi.ringbridge.series", "SeriesVector.__mul__", None),
    ("ideals.validate", "goodsemi.ideals", "validate", None),
    ("ideals.membership_box", "goodsemi.ideals", "IdealFrame.membership_box", _box_counts),
    ("ideals.sum_ideals", "goodsemi.ideals", "sum_ideals", None),
    ("ideals.from_json", "goodsemi.ideals", "from_json", None),
    ("ideals.product_semigroups", "goodsemi.ideals", "product_semigroups", None),
    ("ideals.decompose", "goodsemi.ideals", "decompose", None),
    ("duality.canonical_normalized", "goodsemi.duality", "canonical_normalized", None),
    ("duality.dualize", "goodsemi.duality", "dualize", None),
    ("duality.difference", "goodsemi.duality", "difference", _difference_counts),
    ("metric.distance_between", "goodsemi.metric", "distance_between", _steps),
    ("metric.relative_distance", "goodsemi.metric", "relative_distance", None),
]

CLI_BOUNDARY = ("cli.main", "goodsemi.cli", "main", None)


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.query: str | None = None
        self._stack: list[int] = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = _validate_name(args, kwargs) if name == "ideals.validate" else name
            rec = [label, stack[-1] if stack else -1, clock(), 0.0, self.query, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if counter is not None:
                rec[COUNTS] = counter(args, kwargs, result)
            return result

        return traced

    def install(self, boundaries=BOUNDARIES) -> None:
        loaded = [m for n, m in sys.modules.items() if n.startswith("goodsemi") and m is not None]
        for name, modname, path, counter in boundaries:
            try:
                owner = importlib.import_module(modname)
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                orig = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, orig, counter)
            if cls_path:
                for key, val in list(vars(owner).items()):
                    if val is orig:
                        setattr(owner, key, wrapper)
            else:
                for mod in loaded + [owner]:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapper)


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the union of child intervals.

    Children of one span never overlap (one thread), so the union is the
    sum of their durations.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]


def _nearest(spans, idx, prefix) -> int:
    """Index of the nearest ancestor whose name starts with ``prefix``."""
    p = spans[idx][PARENT]
    while p >= 0 and not spans[p][NAME].startswith(prefix):
        p = spans[p][PARENT]
    return p


def summarize(spans, extra=None) -> dict:
    """Per-layer metrics of one pass from its spans (and cli timings)."""
    selfs = self_times(spans)
    out: dict[str, float] = {}

    def add(key, val):
        out[key] = out.get(key, 0) + val

    for rec, st in zip(spans, selfs):
        add(rec[NAME] + ".self_s", st)
        add(rec[NAME] + ".calls", 1)
        for k, v in (rec[COUNTS] or {}).items():
            if k == "N":
                out["modules.max_N"] = max(out.get("modules.max_N", 0), v)
            elif k == "lines":
                add("modules.scan_lines", v)
            elif k == "steps":
                add("metric.steps", v)
            elif k == "dim" and rec[NAME] == "modules.span_basis":
                add("modules.span_basis.dim", v)
            elif k == "cells":
                add(rec[NAME] + ".cells", v)

    scans = [i for i, r in enumerate(spans) if r[NAME] == "modules.value_semigroup_ideal"]
    owners = {_nearest(spans, i, "curves.") for i in scans}
    answers = sum(
        1
        for i in owners
        if i >= 0 and spans[i][NAME] in ("curves.value_ideal", "curves.colon_value_ideal")
    )
    out["curves.scan_useful_ratio"] = answers / len(scans) if scans else 0.0
    scanned = set()
    for i in scans:
        p = spans[i][PARENT]
        while p >= 0:
            scanned.add(p)
            p = spans[p][PARENT]
    out["curves.gamma_cache_hits"] = sum(
        1 for i, r in enumerate(spans) if r[NAME] == "curves.value_ideal" and i not in scanned
    )
    colon_q = out.get("curves.colon_value_ideal.calls", 0)
    colon_solves = out.get("modules.colon_solution_basis.calls", 0)
    out["curves.colon_attempts_ratio"] = colon_solves / colon_q if colon_q else 0.0
    for key, val in (extra or {}).items():
        add(key, val)
    return out
