"""Spans around the service's layers, recorded from outside the program.

:func:`install` replaces public functions and methods of the layers
with wrappers that record one span per call: name, start, end, parent
span, request id and a few attributes read off the arguments or the
return value.  Wrappers keep the wrapped signature (``functools.wraps``)
because the service inspects solver signatures.  They are installed
before the process pool forks, so worker processes record spans too;
each process keeps its spans in memory and writes them to
``<out_dir>/spans-<pid>.json`` when it finishes.

A layer's self time is its span's duration minus the part of that
interval covered by its child spans.  Shards of a fleet dispatch run on
pool threads that carry no context of their own; their spans are
adopted by the dispatch span that is open at the time, which is exact
because the fleet workload serves one request at a time.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

class Tracer:
    """In-memory span store of one process.

    A span is the tuple ``(id, name, start, end, parent id, request id,
    attrs)``; times are ``time.perf_counter()`` seconds.
    """

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        #: (span id, request id) of the open fleet dispatch, if any
        self._ambient: Optional[Tuple[int, Any]] = None
        self.counters: Dict[str, float] = defaultdict(float)

    def reset(self) -> None:
        self.spans = []
        self.counters = defaultdict(float)

    def traced(
        self,
        original: Callable,
        name: str,
        request_of: Optional[Callable] = None,
        attrs_of: Optional[Callable] = None,
        adopt: bool = False,
        ambient: bool = False,
    ) -> Callable:
        """Wrap ``original`` so every call records a ``name`` span."""

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = self._current.get()
            if parent is None and adopt:
                parent = self._ambient
            span_id = next(self._ids)
            request = request_of(args) if request_of is not None else None
            if request is None and parent is not None:
                request = parent[1]
            token = self._current.set((span_id, request))
            previous_ambient = self._ambient
            if ambient:
                self._ambient = (span_id, request)
            attrs = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                if attrs_of is not None:
                    attrs = attrs_of(args, result)
                return result
            finally:
                end = time.perf_counter()
                if ambient:
                    self._ambient = previous_ambient
                self._current.reset(token)
                self.spans.append(
                    (span_id, name, start, end, parent[0] if parent else None, request, attrs)
                )

        return wrapper

    def traced_submit(self, original: Callable, name: str) -> Callable:
        """Wrap ``submit(request) -> Future``: the span ends when the
        future resolves and records the service time the worker reports."""

        @functools.wraps(original)
        def wrapper(scheduler, request):
            parent = self._current.get()
            span_id = next(self._ids)
            start = time.perf_counter()
            future = original(scheduler, request)

            def done(fut) -> None:
                end = time.perf_counter()
                attrs = None
                if fut.exception() is None:
                    attrs = {"service_ms": fut.result().elapsed_ms}
                self.spans.append(
                    (span_id, name, start, end, parent[0] if parent else None,
                     request.request_id, attrs)
                )

            future.add_done_callback(done)
            return future

        return wrapper

    def write(self, **meta: Any) -> str:
        """Write this process's spans and counters; returns the path."""
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"pid": os.getpid(), "spans": self.spans, "counters": dict(self.counters),
                 **meta},
                handle,
            )
        return path


_INHERITED = object()


def _patch(owner: Any, attr: str, wrapper: Callable, undo: List) -> None:
    if isinstance(owner, type):
        # unwrapping an inherited method deletes the override again
        undo.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
    else:
        undo.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced layer; returns a function that unwraps them."""
    import repro.serialization as serialization
    import repro.server.pool as pool
    import repro.service.core as core
    import repro.service.problems as problems
    import repro.sql.pipeline as sql_pipeline
    import repro.hybrid.solver as hybrid_solver
    from repro.annealers import AnnealerDevice, AnnealerFleet
    from repro.annealing.simulated_annealing import SimulatedAnnealingSampler
    from repro.hybrid.solver import DecomposingSolver
    from repro.hybrid.tabu import TabuSampler
    from repro.joinorder.direct_qubo import DirectJoinOrderQubo
    from repro.mqo.qubo import MqoQuboBuilder
    from repro.service.cache import CompilationCache

    undo: List = []
    t = tracer

    def bqm_size(_args, bqm):
        return {"variables": bqm.num_variables, "interactions": bqm.num_interactions}

    fingerprint = t.traced(problems.problem_fingerprint, "problems.fingerprint")
    _patch(problems, "problem_fingerprint", fingerprint, undo)
    _patch(core, "problem_fingerprint", fingerprint, undo)
    coalesce = t.traced(core.coalesce_key, "scheduler.coalesce_key")
    _patch(core, "coalesce_key", coalesce, undo)
    _patch(pool, "coalesce_key", coalesce, undo)
    _patch(core, "make_adapter", t.traced(core.make_adapter, "problems.adapter"), undo)
    _patch(sql_pipeline, "plan_query", t.traced(sql_pipeline.plan_query, "sql.plan"), undo)
    _patch(problems, "compile_bqm", t.traced(problems.compile_bqm, "qubo.compile"), undo)
    for builder in (MqoQuboBuilder, DirectJoinOrderQubo):
        _patch(builder, "build", t.traced(builder.build, "qubo.build", attrs_of=bqm_size), undo)
    _patch(
        core, "run_chain",
        t.traced(core.run_chain, "chain.run",
                 attrs_of=lambda _a, out: {"stages": len(out.stage_trace)}),
        undo,
    )
    _patch(
        core.OptimizationService, "optimize",
        t.traced(core.OptimizationService.optimize, "service.optimize",
                 request_of=lambda args: args[1].request_id),
        undo,
    )
    _patch(
        DecomposingSolver, "solve",
        t.traced(DecomposingSolver.solve, "hybrid.solve",
                 attrs_of=lambda _a, out: {
                     key: out.info.get(key, 0)
                     for key in ("rounds", "subproblems", "block_cache_hits", "block_cache_misses")
                 }),
        undo,
    )
    _patch(TabuSampler, "sample", t.traced(TabuSampler.sample, "tabu.sample"), undo)
    _patch(
        SimulatedAnnealingSampler, "sample",
        t.traced(SimulatedAnnealingSampler.sample, "sa.sample", adopt=True), undo,
    )
    _patch(
        AnnealerFleet, "dispatch",
        t.traced(AnnealerFleet.dispatch, "annealers.dispatch", ambient=True,
                 attrs_of=lambda args, _out: {"subproblems": len(args[1])}),
        undo,
    )
    _patch(
        AnnealerDevice, "fits",
        t.traced(AnnealerDevice.fits, "annealers.fits", adopt=True), undo,
    )
    _patch(
        hybrid_solver, "reconcile_boundary",
        t.traced(hybrid_solver.reconcile_boundary, "reconcile"), undo,
    )
    _patch(
        serialization, "dumps",
        t.traced(serialization.dumps, "serialization.dumps",
                 attrs_of=lambda _a, text: {"bytes": len(text)}),
        undo,
    )
    _patch(serialization, "loads", t.traced(serialization.loads, "serialization.loads"), undo)
    _patch(
        pool.ProcessPoolScheduler, "submit",
        t.traced_submit(pool.ProcessPoolScheduler.submit, "pool.submit"), undo,
    )

    for method, section in (("put_compiled", "compiled"), ("put_result", "results")):
        original = getattr(CompilationCache, method)

        def put(cache, key, value, _original=original, _section=section):
            # a put always follows a miss on the same key, so any shrink
            # relative to "size + 1" is an eviction
            before = cache.stats()[_section]["size"]
            _original(cache, key, value)
            t.counters["cache.evictions"] += before + 1 - cache.stats()[_section]["size"]

        _patch(CompilationCache, method, functools.wraps(original)(put), undo)

    worker_main = pool._worker_main

    @functools.wraps(worker_main)
    def traced_worker(*args, **kwargs):
        # forked workers inherit the parent's spans: start clean
        t.reset()
        try:
            return worker_main(*args, **kwargs)
        finally:
            t.write()

    _patch(pool, "_worker_main", traced_worker, undo)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    return uninstall


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def load_span_files(paths: Iterable[str]) -> List[Dict[str, Any]]:
    """Span dumps of several processes (one dict per process)."""
    dumps = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            dumps.append(json.load(handle))
    return dumps


def self_times(spans: List[tuple]) -> Dict[int, float]:
    """Span id -> self time: duration minus the union of its children."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append((span[2], span[3]))
    result = {}
    for span_id, _name, start, end, _parent, _req, _attrs in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span_id] = (end - start) - covered
    return result


def nesting_errors(spans: List[tuple]) -> List[str]:
    """Spans whose parent is missing or does not contain them."""
    by_id = {span[0]: span for span in spans}
    errors = []
    for span in spans:
        parent_id = span[4]
        if parent_id is None:
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            errors.append(f"{span[1]} #{span[0]}: parent #{parent_id} missing")
        elif span[2] < parent[2] or span[3] > parent[3]:
            errors.append(f"{span[1]} #{span[0]}: outside parent {parent[1]} #{parent_id}")
    return errors


#: span name -> per-layer metric holding its mean self time per call
SELF_TIME_METRICS = {
    "sql.plan": "sql.plan_ms",
    "problems.adapter": "problems.adapter_ms",
    "problems.fingerprint": "problems.fingerprint_ms",
    "scheduler.coalesce_key": "scheduler.coalesce_key_ms",
    "qubo.build": "qubo.build_ms",
    "qubo.compile": "qubo.compile_ms",
    "chain.run": "chain.run_ms",
    "hybrid.solve": "hybrid.solve_ms",
    "tabu.sample": "tabu.sample_ms",
    "sa.sample": "sa.sample_ms",
    "annealers.dispatch": "annealers.dispatch_ms",
    "annealers.fits": "annealers.fits_ms",
    "reconcile": "reconcile.ms",
    "serialization.dumps": "serialization.dumps_ms",
    "serialization.loads": "serialization.loads_ms",
}

#: span name -> per-layer metric counting its calls per served request
CALL_COUNT_METRICS = {
    "sql.plan": "sql.calls",
    "problems.fingerprint": "problems.fingerprint_calls",
    "reconcile": "reconcile.calls",
}


def layer_metrics(dumps: List[Dict[str, Any]], requests: int) -> Dict[str, float]:
    """Per-layer figures from every process's spans.

    ``requests`` is the number of requests served while tracing; call
    and event counts are reported per request.
    """
    per_call: Dict[str, List[float]] = defaultdict(list)
    calls: Dict[str, int] = defaultdict(int)
    attrs: Dict[str, List[dict]] = defaultdict(list)
    counters: Dict[str, float] = defaultdict(float)
    for dump in dumps:
        spans = [tuple(span) for span in dump["spans"]]
        own = self_times(spans)
        for span in spans:
            name = span[1]
            per_call[name].append(own[span[0]])
            calls[name] += 1
            if span[6] is not None:
                attrs[name].append(span[6])
        for key, value in dump.get("counters", {}).items():
            counters[key] += value

    def mean(values: List[float]) -> float:
        return statistics.fmean(values) if values else 0.0

    def attr_mean(name: str, key: str) -> float:
        return mean([a[key] for a in attrs[name] if key in a])

    metrics: Dict[str, float] = {}
    for name, metric in SELF_TIME_METRICS.items():
        metrics[metric] = mean(per_call[name]) * 1000.0
    for name, metric in CALL_COUNT_METRICS.items():
        metrics[metric] = calls[name] / requests
    metrics["qubo.variables"] = attr_mean("qubo.build", "variables")
    metrics["qubo.interactions"] = attr_mean("qubo.build", "interactions")
    metrics["chain.stages"] = attr_mean("chain.run", "stages")
    metrics["hybrid.rounds"] = attr_mean("hybrid.solve", "rounds")
    metrics["hybrid.subproblems"] = attr_mean("hybrid.solve", "subproblems")
    hits = sum(a.get("block_cache_hits", 0) for a in attrs["hybrid.solve"])
    lookups = hits + sum(a.get("block_cache_misses", 0) for a in attrs["hybrid.solve"])
    metrics["hybrid.block_cache_hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["annealers.subproblems"] = (
        sum(a["subproblems"] for a in attrs["annealers.dispatch"]) / requests
    )
    metrics["serialization.bytes"] = attr_mean("serialization.dumps", "bytes")
    metrics["cache.evictions"] = counters["cache.evictions"] / requests
    service = [a["service_ms"] for a in attrs["pool.submit"]]
    metrics["pool.service_ms"] = mean(service)
    return metrics


def scheduler_latency_ms(dumps: List[Dict[str, Any]]) -> Dict[str, Tuple[float, float]]:
    """Request id -> (scheduler latency, reported service time), in ms."""
    latencies = {}
    for dump in dumps:
        for span in dump["spans"]:
            if span[1] == "pool.submit" and span[6] is not None:
                latencies[span[5]] = ((span[3] - span[2]) * 1000.0, span[6]["service_ms"])
    return latencies
