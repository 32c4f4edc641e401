"""Span tracer for the benchmark's traced run.

The traced run measures where a pass's host time goes, layer by layer,
without editing the program: :func:`install` wraps the public entry point
of each layer and records one span per call (name, start, end, parent).
A layer's self time is its spans' duration minus the part their child
spans cover, so nested layers (an experiment calls trace synthesis, which
calls a cache load) are never counted twice.

A wrapper only sees calls that go through the binding it replaced, so
each wrapped function is re-bound in every loaded ``repro`` module that
imported it by name (``repro.swap.executor.replay_run`` as well as
``repro.swap.replay.replay_run``).  The caller then asserts that each
boundary a workload must cross recorded a span, so a dead wrapper cannot
report 0 s.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

__all__ = ["Tracer", "install", "CACHE_KINDS"]

#: artifact kinds of ``repro.cache``, one load/store pair each
CACHE_KINDS = ("trace", "features", "replay", "tune", "fleet")

_CACHE_FUNCS = {"trace": ("load_trace", "store_trace"),
                "features": ("load_features", "store_features"),
                "replay": ("load_replay", "store_replay"),
                "tune": ("load_tune_point", "store_tune_point"),
                "fleet": ("load_fleet_node", "store_fleet_node")}

#: (span name, module, function) of every wrapped module-level function
_FUNCTIONS = [
    ("swap.classify", "repro.swap.replay", "classify_trace"),
    ("swap.batch", "repro.swap.replay", "replay_run"),
    ("swap.multi", "repro.swap.replay", "replay_run_multi"),
    ("swap.hybrid", "repro.swap.plan", "hybrid_run"),
    ("swap.tenants", "repro.swap.executor", "run_tenants"),
    ("mem.reuse", "repro.mem.reuse", "reuse_histogram"),
    ("trace.fuse", "repro.trace.fusion", "fuse"),
    ("tune.search", "repro.tune.search", "select_config"),
    ("tune.search", "repro.tune.search", "slo_bisection"),
    ("tune.validate", "repro.tune.validate", "validate_shortlist"),
    ("cluster.plan_fleet", "repro.cluster.fleet", "plan_fleet"),
    ("cluster.simulate_node", "repro.cluster.fleet", "simulate_node"),
] + [
    (f"cache.{op}.{kind}", "repro.cache", func)
    for kind, pair in _CACHE_FUNCS.items()
    for op, func in zip(("load", "store"), pair)
]

#: (span name, module, class, method) of every wrapped method
_METHODS = [
    ("mem.lru_replay", "repro.mem.lru", "ActiveInactiveLRU", "replay"),
    ("swap.run", "repro.swap.executor", "SwapExecutor", "run"),
    ("workloads.trace", "repro.workloads.base", "Workload", "trace"),
]

#: a run/run_tenants span with none of these children kept the event loop
_DISPATCHED = frozenset({"swap.batch", "swap.hybrid", "swap.multi", "swap.run"})


class Tracer:
    """In-memory span log plus the counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._classified: set = set()
        self._hybrid_event_time = 0.0
        self._hybrid_time = 0.0

    # -- recording -------------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body (when active)."""
        if not self.active:
            yield
            return
        idx = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(idx)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """``fn`` with a span per call; ``after(args, kwargs, result)``
        takes counts outside the span so they do not inflate its time."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- per-boundary counts ---------------------------------------------------
    def _after_classify(self, args, kwargs, _result) -> None:
        trace = args[0] if args else kwargs["trace"]
        capacity = args[1] if len(args) > 1 else kwargs["capacity"]
        ratio = args[2] if len(args) > 2 else kwargs.get("active_ratio", 0.5)
        self.counts["swap.classify_calls"] += 1
        self._classified.add((trace.content_digest(), capacity, ratio))

    def _after_lru_replay(self, args, kwargs, _result) -> None:
        pages = args[1] if len(args) > 1 else kwargs["pages"]
        self.counts["mem.lru_accesses"] += len(pages)

    def _after_hybrid(self, args, kwargs, _result) -> None:
        executor = args[0] if args else kwargs["executor"]
        plan = executor.execution_plan
        for seg in plan.segments:
            self._hybrid_time += seg.duration
            if seg.engine == "event":
                self._hybrid_event_time += seg.duration

    def _after_load(self, kind: str):
        def after(_args, _kwargs, result) -> None:
            outcome = "misses" if result is None else "hits"
            self.counts[f"cache.{outcome}.{kind}"] += 1
        return after

    def _after_simulate_node(self, _args, _kwargs, _result) -> None:
        self.counts["cluster.node_jobs"] += 1

    # -- results ---------------------------------------------------------------
    def self_times(self) -> tuple[dict[str, float], int]:
        """Self seconds per span name, plus how many executor runs kept
        the event loop (their self time is filed under ``swap.event``)."""
        covered = [0.0] * len(self.spans)
        dispatched = [False] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
                if name in _DISPATCHED:
                    dispatched[parent] = True
        out: Counter = Counter()
        event_runs = 0
        for i, (name, start, end, _) in enumerate(self.spans):
            own = (end - start) - covered[i]
            if name in ("swap.run", "swap.tenants"):
                if not dispatched[i]:
                    out["swap.event"] += own
                    event_runs += 1
            elif name.startswith("experiments."):
                out[name] += end - start  # inclusive: attributes the pass wall
            else:
                out[name] += own
        return dict(out), event_runs

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values of one pass, keyed by metric name sans pass."""
        times, event_runs = self.self_times()
        counts = self.counts
        calls = counts["swap.classify_calls"]
        out = {
            "mem.lru_replay_s": times.get("mem.lru_replay", 0.0),
            "mem.lru_accesses": counts["mem.lru_accesses"],
            "swap.classify_s": times.get("swap.classify", 0.0),
            "swap.classify_calls": calls,
            "swap.classify_distinct": len(self._classified),
            "swap.classify_useful_ratio":
                len(self._classified) / calls if calls else 0.0,
            "swap.batch_s": times.get("swap.batch", 0.0),
            "swap.multi_s": times.get("swap.multi", 0.0),
            "swap.hybrid_s": times.get("swap.hybrid", 0.0),
            "swap.event_s": times.get("swap.event", 0.0),
            "swap.hybrid_event_time_fraction":
                self._hybrid_event_time / self._hybrid_time
                if self._hybrid_time > 0 else 0.0,
            "workloads.trace_s": times.get("workloads.trace", 0.0),
            "trace.fuse_s": times.get("trace.fuse", 0.0),
            "mem.reuse_s": times.get("mem.reuse", 0.0),
            "tune.search_s": times.get("tune.search", 0.0),
            "tune.validate_s": times.get("tune.validate", 0.0),
            "cluster.plan_fleet_s": times.get("cluster.plan_fleet", 0.0),
            "cluster.simulate_node_s": times.get("cluster.simulate_node", 0.0),
            "cluster.node_jobs": counts["cluster.node_jobs"],
        }
        for engine, span in (("batch", "swap.batch"), ("hybrid", "swap.hybrid"),
                             ("multi", "swap.multi")):
            out[f"swap.dispatch.{engine}"] = self.fired(span)
        out["swap.dispatch.event"] = event_runs
        for kind in CACHE_KINDS:
            out[f"cache.load_s.{kind}"] = times.get(f"cache.load.{kind}", 0.0)
            out[f"cache.store_s.{kind}"] = times.get(f"cache.store.{kind}", 0.0)
            out[f"cache.hits.{kind}"] = counts[f"cache.hits.{kind}"]
            out[f"cache.misses.{kind}"] = counts[f"cache.misses.{kind}"]
        for name, value in times.items():
            if name.startswith("experiments."):
                out[f"{name}_s"] = value
        return out

    def fired(self, name: str) -> int:
        """How many spans named ``name`` were recorded."""
        return sum(1 for span in self.spans if span[0] == name)

    def write(self, path: Path, meta: dict) -> None:
        """Dump every span as JSON: name, start, end, parent index."""
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def _rebind(original, replacement) -> int:
    """Point every ``repro`` module global bound to ``original`` at
    ``replacement``; returns how many bindings changed."""
    n = 0
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "repro" or modname.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                n += 1
    return n


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary.  Import the program's modules first, so
    that each by-name import of a wrapped function is re-bound too."""
    after = {"swap.classify": tracer._after_classify,
             "swap.hybrid": tracer._after_hybrid,
             "cluster.simulate_node": tracer._after_simulate_node}
    for kind, (load, _) in _CACHE_FUNCS.items():
        after[f"cache.load.{kind}"] = tracer._after_load(kind)
    for name, modname, func in _FUNCTIONS:
        original = getattr(importlib.import_module(modname), func)
        if _rebind(original, tracer.wrap(name, original, after.get(name))) == 0:
            raise RuntimeError(f"no binding of {modname}.{func} to wrap")
    for name, modname, clsname, method in _METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        hook = tracer._after_lru_replay if name == "mem.lru_replay" else None
        setattr(cls, method, tracer.wrap(name, getattr(cls, method), hook))
