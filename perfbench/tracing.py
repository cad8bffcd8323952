"""Span tracing from outside the program.

The tracer wraps the public entry points of each layer, patching the
attribute where callers look it up (the defining module, every module
that imported the name, or the class for methods).  Each call records a
span ``[name, start, end, parent, request_id, counts]`` in memory; the
per-layer metrics are computed from the spans when the run ends.  A
layer's self time is its spans' duration minus the part covered by
their child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# Span fields.
NAME, START, END, PARENT, RID, COUNTS = range(6)


class Tracer:
    """Collects spans and installs the wrappers that record them."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.recording = True
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    # -- request identity ------------------------------------------------

    def set_request(self, request_id: Optional[str]) -> None:
        self._local.request_id = request_id

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- spans -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None,
             prepare: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call.

        ``count(result, args, kwargs, token)`` returns the counters to
        attach to the span; ``token`` is what ``prepare()`` returned
        just before the call (``None`` without ``prepare``).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    getattr(tracer._local, "request_id", None), None]
            token = prepare() if prepare is not None else None
            stack.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(span)
            if count is not None:
                span[COUNTS] = count(result, args, kwargs, token)
            return result

        return traced

    def patch_function(self, module_name: str, attr: str, name: str,
                       count: Optional[Callable] = None,
                       prepare: Optional[Callable] = None) -> None:
        """Wrap a module-level function in every module that holds it."""
        original = getattr(importlib.import_module(module_name), attr)
        traced = self.wrap(name, original, count, prepare)
        for module in list(sys.modules.values()):
            if getattr(module, attr, None) is original:
                setattr(module, attr, traced)
                self._undo.append(
                    functools.partial(setattr, module, attr, original))

    def patch_method(self, module_name: str, cls_name: str, attr: str,
                     name: str, count: Optional[Callable] = None) -> None:
        """Wrap a method on the class that defines it."""
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, count))
        self._undo.append(functools.partial(setattr, cls, attr, original))

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()


def self_times(spans: List[list], keep=None) -> Dict[str, dict]:
    """Per-name self seconds, calls and summed counters.

    ``keep(span)`` selects the spans to report; a kept span's children
    are subtracted from it whether or not they are kept themselves.
    """
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            child_time[id(span[PARENT])] += span[END] - span[START]
    out: Dict[str, dict] = {}
    for span in spans:
        if keep is not None and not keep(span):
            continue
        entry = out.setdefault(span[NAME], {"self_s": 0.0, "calls": 0,
                                            "counts": defaultdict(float)})
        entry["self_s"] += span[END] - span[START] - child_time[id(span)]
        entry["calls"] += 1
        for key, value in (span[COUNTS] or {}).items():
            entry["counts"][key] += value
    return out


def _sessions(result, args, kwargs, token):
    return {"sessions": result.sessions}


def _arrivals(result, args, kwargs, token):
    return {"arrivals": len(args[0])}


def _fit_trees(result, args, kwargs, token):
    return {"trees": len(result.trees_)}


def _predict_rows(result, args, kwargs, token):
    return {"rows": len(result)}


def _predict_one_rows(result, args, kwargs, token):
    return {"rows": 1}


def _shard_bytes(result, args, kwargs, token):
    return {"bytes_written": result}


def _replayed():
    from repro.runtime.observability import KERNEL_STATS
    return KERNEL_STATS.snapshot().sched_replay_blocks


def _stitch_blocks(result, args, kwargs, before):
    return {"blocks": sum(unit.n_blocks for unit in args[1].units),
            "replay_blocks": _replayed() - before}


def _kernel_events():
    from repro.runtime.observability import KERNEL_STATS
    return KERNEL_STATS.snapshot().events_processed


def _events(result, args, kwargs, before):
    # The kernel keeps one process-wide tally; page loads running in
    # two threads at once would each see the other's events.
    return {"events": _kernel_events() - before}


#: (kind, module, [class,] attribute, layer name, counters[, prepare])
LAYERS = (
    ("method", "repro.capacity.finite_source",
     "FiniteSourceCapacitySimulator", "run", "capacity.finite_source",
     _sessions),
    ("method", "repro.capacity.simulator", "CapacitySimulator", "run",
     "capacity.mgn", _sessions),
    ("function", "repro.fleet.capacity", "resolve_drops", "fleet.drops",
     _arrivals),
    ("function", "repro.fleet.capacity", "resolve_drops_block",
     "fleet.drops", _arrivals),
    ("method", "repro.stream.aggregate", "ServiceAggregate", "add_block",
     "stream.aggregate", None),
    ("method", "repro.stream.aggregate", "PartialServiceAggregate",
     "add_block", "stream.aggregate", None),
    ("function", "repro.stream.aggregate", "stitch_service_aggregates",
     "stream.aggregate", None),
    ("function", "repro.stream.sweep", "sweep_point", "stream.sweep_point",
     None),
    ("method", "repro.stream.shard", "ShardStore", "put", "stream.shard",
     _shard_bytes),
    ("method", "repro.stream.shard", "ShardStore", "get", "stream.shard",
     None),
    ("function", "repro.sched.units", "plan_point", "sched.plan", None),
    ("function", "repro.sched.worker", "run_unit", "sched.unit", None),
    ("function", "repro.sched.stitch", "stitch_point", "sched.stitch",
     _stitch_blocks, _replayed),
    ("method", "repro.ml.gbrt", "GradientBoostedRegressor", "fit",
     "ml.gbrt.fit", _fit_trees),
    ("method", "repro.ml.gbrt", "GradientBoostedRegressor", "predict",
     "ml.gbrt.predict", _predict_rows),
    ("method", "repro.ml.gbrt", "GradientBoostedRegressor", "predict_one",
     "ml.gbrt.predict", _predict_one_rows),
    ("function", "repro.traces.generator", "generate_trace",
     "traces.generate", None),
    ("function", "repro.webpages.generator", "generate_page",
     "webpages.generate", None),
    ("function", "repro.ablation.objective", "evaluate_setups",
     "ablation.evaluate", None),
    ("function", "repro.ablation.objective", "variant_hold_pool",
     "ablation.hold_pool", None),
    ("method", "repro.serve.service", "WhatIfService", "predict",
     "serve.predict", None),
)

#: Modules imported before patching, so every importer of a wrapped
#: name is in ``sys.modules`` when the patch looks for it.
IMPORTS = (
    "repro.experiments.fig11_capacity",
    "repro.experiments.fig15_prediction_accuracy",
    "repro.sched.executor",
    "repro.stream.pipeline",
    "repro.serve.service",
    "repro.serve.http",
    "repro.webpages.corpus",
    "repro.core.comparison",
)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point listed in :data:`LAYERS`."""
    for module in IMPORTS:
        importlib.import_module(module)
    for spec in LAYERS:
        if spec[0] == "method":
            _, module, cls, attr, name, count = spec
            tracer.patch_method(module, cls, attr, name, count)
        else:
            _, module, attr, name, count, *prepare = spec
            tracer.patch_function(module, attr, name, count, *prepare)
    tracer.patch_function("repro.core.session", "browse_and_read",
                          "core.page_load", _events,
                          prepare=_kernel_events)


def dump_spans(spans: List[list], path) -> None:
    """Write spans as JSON; parents become the parent span's key."""
    with open(path, "w") as handle:
        json.dump([[s[NAME], s[START], s[END],
                    None if s[PARENT] is None else id(s[PARENT]),
                    s[RID], s[COUNTS], id(s)] for s in spans], handle)


def load_spans(path) -> List[list]:
    """Read spans written by :func:`dump_spans`, relinking parents."""
    with open(path) as handle:
        raw = json.load(handle)
    by_key = {}
    spans = []
    for name, start, end, parent, rid, counts, key in raw:
        span = [name, start, end, parent, rid, counts]
        by_key[key] = span
        spans.append(span)
    for span in spans:
        if span[PARENT] is not None:
            span[PARENT] = by_key.get(span[PARENT])
    return spans


def memo_stats() -> Dict[str, float]:
    """Summed hit/miss counters of every SingleFlight memo loaded."""
    from repro.runtime.singleflight import SingleFlight
    seen = set()
    hits = misses = 0
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro."):
            continue
        for value in vars(module).values():
            if isinstance(value, SingleFlight) and id(value) not in seen:
                seen.add(id(value))
                stats = value.stats()
                hits += stats["hits"]
                misses += stats["misses"]
    return {"hits": hits, "misses": misses}


def load_cache_stats():
    """(hits, lookups) of the ablation page-load cache, if loaded."""
    module = sys.modules.get("repro.ablation.objective")
    if module is None:
        return 0, 0
    stats = module.load_cache_stats()
    hits = stats["memo_hits"] + stats["disk_hits"]
    return hits, hits + stats["loads"]


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
