"""Spans at the layer boundaries of ``powersum``, recorded from outside.

A boundary is a module-level name at the point where one layer calls into
another; the tracer replaces that name in the calling module with a wrapper
that records a span (name, start, end, parent span) and a few counts taken
from the call's arguments and result, and puts the original back afterwards.
A boundary whose module or name no longer exists is skipped and listed in
``Tracer.missing``; its metrics then read 0.

Spans stay in memory for one pass and are reduced to the per-layer metrics by
``layer_metrics``.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from collections import defaultdict


def bruck_ryser_excludes(q: int) -> bool:
    if q % 4 not in (1, 2):
        return False
    return not any(math.isqrt(q - a * a) ** 2 == q - a * a
                   for a in range(math.isqrt(q) + 1))


def wilbrink_excludes(q: int) -> bool:
    return q >= 6 and q % 9 in (3, 6)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _search_info(args, kwargs, result):
    return {"nodes": result[1], "budget": _arg(args, kwargs, 3, "budget")}


def _order_info(args, kwargs, result):
    q = _arg(args, kwargs, 0, "q")
    return {"after_theory": bruck_ryser_excludes(q) or wilbrink_excludes(q)}


def _verify_info(args, kwargs, result):
    return {"valid": bool(result.valid)}


def _minimize_info(args, kwargs, result):
    config = _arg(args, kwargs, 0, "config")
    bound = math.sqrt(config.n - 1)
    return {"n": config.n, "restarts": config.restarts,
            "hits": sum(v <= bound + 1e-6 for v in result.per_restart_values),
            "solved": result.recovered.status.value == "IsMinimizer"}


# (module, name in that module, span name, counts taken from the call).
# The "powersum" rows are the workload's own direct calls.
BOUNDARIES = (
    ("powersum._search", "subtree_first", "search.first", _search_info),
    ("powersum._search", "subtree_all", "search.all", _search_info),
    ("powersum.pds", "exhaustive_search", "pds.exhaustive_search", _order_info),
    ("powersum.pds", "singer_construct", "pds.singer_construct", None),
    ("powersum.pds", "make_field", "gf.make_field", None),
    ("powersum.pds", "primitive_element", "gf.primitive_element", None),
    ("powersum.pds", "verify", "pds.verify", None),
    ("powersum.sums", "verify", "pds.verify", None),
    ("powersum.sums", "power_sums", "sums.power_sums", None),
    ("powersum.minimax", "verify", "minimax.verify", _verify_info),
    ("powersum.minimax", "recover_structure", "sums.recover_structure", None),
    ("powersum", "feasibility", "pds.feasibility", None),
    ("powersum", "exhaustive_search", "pds.exhaustive_search", _order_info),
    ("powersum", "enumerate_all", "pds.enumerate_all", None),
    ("powersum", "canonical_form", "pds.canonical_form", None),
    ("powersum", "singer_construct", "pds.singer_construct", None),
    ("powersum", "power_sums", "sums.power_sums", None),
    ("powersum", "fejer_certificate", "sums.fejer_certificate", None),
    ("powersum", "recover_structure", "sums.recover_structure", None),
    ("powersum", "minimize", "minimax.minimize", _minimize_info),
)

MINIMAX_NS = (3, 4, 5, 6, 7)  # the n of the optimize workload


class Tracer:
    """Context manager that wraps the boundaries while it is open."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, span_name, info in self.boundaries:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, info))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, span_name: str, info):
        def traced(*args, **kwargs):
            span = {"name": span_name,
                    "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span.update(info(args, kwargs, result))
            return result
        traced.__wrapped__ = fn
        return traced


def _unit(name: str) -> tuple[str, str]:
    leaf = name.rsplit(".", 1)[-1]
    if leaf.endswith("_per_s"):
        return "1/s", "higher"
    if leaf.endswith("_ms"):
        return "ms", "lower"
    if leaf.endswith("_s"):
        return "s", "lower"
    if leaf in ("hit_rate", "budget_used_frac"):
        return "fraction", "higher"
    if leaf == "overhead_frac":
        return "fraction", "lower"
    if leaf in ("hits", "solved", "verify_valid"):
        return "count", "higher"
    return "count", "lower"


def _names() -> tuple[str, ...]:
    names = []
    for kind in ("first", "all"):
        names += [f"search.{kind}.{m}" for m in ("calls", "nodes", "busy_s", "nodes_per_s")]
    names += ["search.budget_used_frac",
              "pds.feasibility.busy_s", "pds.exhaustive_search.busy_s",
              "pds.exhaustive_search.calls", "pds.search_after_theory_s",
              "pds.enumerate_all.busy_s", "pds.canonical_form.busy_s",
              "pds.singer_construct.self_s", "pds.verify.calls", "pds.verify.busy_s",
              "gf.make_field.busy_s", "gf.primitive_element.busy_s",
              "sums.power_sums.busy_s", "sums.fejer_certificate.busy_s",
              "sums.recover_structure.busy_s"]
    for n in MINIMAX_NS:
        names += [f"minimax.n{n}.{m}" for m in ("busy_s", "restart_ms", "hit_rate")]
    names += ["minimax.snap.verify_calls", "minimax.snap.verify_valid",
              "minimax.hits", "minimax.hits_per_s", "minimax.solved",
              "trace.wall_ref_s", "trace.untraced_wall_ref_s", "trace.overhead_frac"]
    return tuple(names)


# name -> (unit, better); the per_layer list of BENCHMARK.json mirrors it.
PER_LAYER = {name: _unit(name) for name in _names()}


def layer_metrics(spans: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose program calls took wall_s.

    The trace.* entries need the untraced passes too and are filled in by
    the caller.
    """
    busy = defaultdict(float)
    calls = defaultdict(int)
    child_s = defaultdict(float)
    for span in spans:
        duration = span["end"] - span["start"]
        busy[span["name"]] += duration
        calls[span["name"]] += 1
        if span["parent"] is not None:
            child_s[span["parent"]] += duration

    # A call that raised has no counts; .get treats it as zero.
    def total(name, key):
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for kind in ("first", "all"):
        name = f"search.{kind}"
        nodes = total(name, "nodes")
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.nodes"] = nodes
        out[f"{name}.busy_s"] = busy[name]
        out[f"{name}.nodes_per_s"] = ratio(nodes, busy[name])
    granted = total("search.first", "budget") + total("search.all", "budget")
    out["search.budget_used_frac"] = ratio(
        out["search.first.nodes"] + out["search.all.nodes"], granted)

    for name in ("pds.feasibility", "pds.exhaustive_search", "pds.enumerate_all",
                 "pds.canonical_form", "pds.verify", "gf.make_field",
                 "gf.primitive_element", "sums.power_sums",
                 "sums.fejer_certificate", "sums.recover_structure"):
        out[f"{name}.busy_s"] = busy[name]
    out["pds.exhaustive_search.calls"] = calls["pds.exhaustive_search"]
    out["pds.verify.calls"] = calls["pds.verify"]
    out["pds.search_after_theory_s"] = sum(
        s["end"] - s["start"] for s in spans
        if s["name"] == "pds.exhaustive_search" and s.get("after_theory"))
    out["pds.singer_construct.self_s"] = sum(
        s["end"] - s["start"] - child_s[i] for i, s in enumerate(spans)
        if s["name"] == "pds.singer_construct")

    runs = [s for s in spans if s["name"] == "minimax.minimize"]
    for n in MINIMAX_NS:
        mine = [s for s in runs if s.get("n") == n]
        restarts = sum(s["restarts"] for s in mine)
        n_busy = sum(s["end"] - s["start"] for s in mine)
        out[f"minimax.n{n}.busy_s"] = n_busy
        out[f"minimax.n{n}.restart_ms"] = 1e3 * ratio(n_busy, restarts)
        out[f"minimax.n{n}.hit_rate"] = ratio(sum(s["hits"] for s in mine), restarts)
    snaps = [s for s in spans if s["name"] == "minimax.verify"]
    out["minimax.snap.verify_calls"] = len(snaps)
    out["minimax.snap.verify_valid"] = sum(s.get("valid", 0) for s in snaps)
    hits = sum(s.get("hits", 0) for s in runs)
    out["minimax.hits"] = hits
    out["minimax.hits_per_s"] = ratio(hits, wall_s)
    out["minimax.solved"] = sum(s.get("solved", 0) for s in runs if s.get("n", 0) <= 6)
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
