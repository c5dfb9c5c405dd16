"""The traced run: replay a request sequence and split its time by layer.

The replay goes through an in-process ``ServiceExecutor`` built with
the same arguments as the benchmarked ``serve``.  Every request gets a
real :class:`repro.obs.trace.Trace`, so the executor's own span tree
(admission, cache_lookup, queue_wait, plan, engine:<method>, merge,
mutate, compact) is recorded.  For the duration of the replay only,
the public functions listed in :func:`_targets` are wrapped so that each
call opens a ``layer:<name>`` span in the active request's trace.

A layer's self time is the duration of its spans minus the part covered
by nested spans of other layers.  Program spans that are not layer
boundaries (``traverse``, ``frontier_expand``, ...) count toward the
enclosing layer.  Time left on the request's root span and on the
``engine:*`` dispatch spans is reported as ``unattributed``.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACE, Trace
from repro.service.cache import ResultCache
from repro.service.executor import Query, ServiceExecutor

from serve import SERVE_FLAGS

__all__ = ["traced_replay"]

SPAN_PREFIX = "layer:"
#: Executor spans that mark a layer boundary, and the layer they belong to.
PROGRAM_SPANS = {
    "admission": "executor.admission",
    "cache_lookup": "cache.lookup",
    "queue_wait": "executor.queue_wait",
    "plan": "planner.plan",
    "merge": "executor.merge",
    "compact": "mutation.compact",
}
#: Layers whose work happens at registration as well as inside requests;
#: they are reported as total milliseconds, set-up included.
SETUP_LAYERS = ("bigraph.degree_order", "planner.profile")
#: Layers reported as self milliseconds per replayed request, by metric.
REQUEST_METRICS = {
    "executor.admission": "executor.admission_ms",
    "executor.queue_wait": "executor.queue_wait_ms",
    "executor.merge": "executor.merge_ms",
    "cache.lookup": "cache.lookup_ms",
    "planner.plan": "planner.plan_ms",
    "matrix": "matrix.self_ms",
    "epivoter": "epivoter.self_ms",
    "frontier": "frontier.self_ms",
    "intersect": "intersect.self_ms",
    "zigzag": "zigzag.self_ms",
    "adaptive": "adaptive.self_ms",
    "hybrid": "hybrid.self_ms",
    "mutation.apply": "mutation.apply_ms",
    "mutation.compact": "mutation.compact_ms",
    "mutation.delta_count": "mutation.delta_count_ms",
}


def _targets() -> list:
    """``(owner, attribute, layer)`` for every wrapped public function.

    Module-level names are wrapped where the caller binds them (the
    executor, ``core.frontier``), so the wrapper sits on the call the
    service actually makes.  ``hybrid_count_single`` drives the
    samplers' engine classes directly, so its sampling is hybrid self
    time.  A name the owner does not bind (``intersect_size_many`` in
    ``core.frontier`` today) is skipped.
    """
    import repro.core.frontier as frontier
    import repro.service.executor as executor
    from repro.core.epivoter import EPivoter
    from repro.graph.bigraph import BipartiteGraph
    from repro.service.mutation import MutableGraphState
    from repro.service.planner import GraphProfile

    targets = [
        (executor, "cache_key", "fingerprint.cache_key"),
        (executor, "matrix_count_single", "matrix"),
        (EPivoter, "count_single", "epivoter"),
        (EPivoter, "count_all", "epivoter"),
        (frontier, "run_frontier", "frontier"),
        (frontier, "intersect_arena_many", "intersect"),
        (frontier, "intersect_size_many", "intersect"),
        (executor, "zigzag_count_single", "zigzag"),
        (executor, "zigzagpp_count_single", "zigzag"),
        (executor, "adaptive_count", "adaptive"),
        (executor, "hybrid_count_single", "hybrid"),
        (MutableGraphState, "apply_batch", "mutation.apply"),
        (MutableGraphState, "maintained_count", "mutation.delta_count"),
        (BipartiteGraph, "degree_ordered", "bigraph.degree_order"),
        (GraphProfile, "from_graph", "planner.profile"),
    ]
    return [t for t in targets if t[1] in vars(t[0])]


class LayerTracer:
    """Installs and removes the layer wrappers; counts calls and rows."""

    def __init__(self):
        #: The trace of the request being replayed (None between requests).
        self.active: "Trace | None" = None
        self.calls: Counter = Counter()
        self.intersect_rows = 0
        #: Seconds spent in each layer while no request was active.
        self.outside: "defaultdict[str, float]" = defaultdict(float)
        self._saved: list = []

    def install(self) -> None:
        for owner, attr, layer in _targets():
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, layer))
            else:
                wrapped = self._wrap(original, layer)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, layer: str):
        name = SPAN_PREFIX + layer
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[layer] += 1
            if layer == "intersect":
                tracer.intersect_rows += len(args[2])
            trace = tracer.active
            if trace is None:
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.outside[layer] += time.perf_counter() - start
            with trace.span(name):
                return fn(*args, **kwargs)

        return wrapper


def _layer_of(span) -> "str | None":
    if span.name.startswith(SPAN_PREFIX):
        return span.name[len(SPAN_PREFIX):]
    return PROGRAM_SPANS.get(span.name)


def self_times(root) -> "tuple[dict, dict]":
    """``(self_seconds, inclusive_seconds)`` per layer for one span tree.

    Inclusive time counts only the outermost span of a layer, so a layer
    that calls itself (``count_single`` into ``count_all``) is not
    counted twice.
    """
    own: "defaultdict[str, float]" = defaultdict(float)
    inclusive: "defaultdict[str, float]" = defaultdict(float)

    def visit(span, layer: str, outer: frozenset) -> None:
        covered = sum(descend(child, outer | {layer}) for child in span.children)
        own[layer] += (span.duration or 0.0) - covered

    def descend(span, outer: frozenset) -> float:
        layer = _layer_of(span)
        if layer is None:
            return sum(descend(child, outer) for child in span.children)
        if layer not in outer:
            inclusive[layer] += span.duration or 0.0
        visit(span, layer, outer)
        return span.duration or 0.0

    visit(root, "unattributed", frozenset())
    return own, inclusive


def _query_from_body(kind: str, body: dict) -> Query:
    """The executor query ``POST /v1/<kind>`` builds from ``body``."""
    deadline_ms = body.get("deadline_ms")
    return Query(
        graph_id=body["graph"],
        kind=kind,
        p=body["p"],
        q=body["q"],
        method=body.get("method", "auto"),
        deadline=None if deadline_ms is None else float(deadline_ms) / 1000.0,
        delta=body.get("delta"),
        epsilon=body.get("epsilon"),
        samples=body.get("samples"),
        seed=body.get("seed"),
    )


def _execute(executor: ServiceExecutor, op, trace) -> dict:
    if op.kind == "patch":
        name = op.path.rsplit("/", 1)[1]
        return executor.mutate(
            name,
            add_edges=[tuple(e) for e in op.body.get("add_edges", [])],
            remove_edges=[tuple(e) for e in op.body.get("remove_edges", [])],
            trace=trace,
        )
    return executor.execute(_query_from_body(op.kind, op.body), trace=trace)


def _predicted_over_actual(trace: Trace) -> "float | None":
    """Planner prediction over the engine's actual time for one request.

    Only plans that ran the engine they priced count: a plan degraded
    upfront carries the rejected exact prediction, not the estimator's.
    """
    spans = trace.root.children
    for i, span in enumerate(spans):
        predicted = span.attributes.get("predicted_seconds")
        if span.name != "plan" or predicted is None:
            continue
        if span.attributes.get("degraded"):
            return None
        engine = f"engine:{span.attributes.get('engine')}"
        for later in spans[i + 1:]:
            if later.name == engine and later.duration:
                return predicted / later.duration
    return None


def traced_replay(workload, ops: list, untraced_request_ms: "list[float]") -> dict:
    """Replay ``ops`` with tracing on; returns ``{metric: (value, unit)}``.

    ``untraced_request_ms`` is the server-side ``request_ms`` of the
    same requests in the untraced run, for the tracing overhead ratio.
    """
    tracer = LayerTracer()
    tracer.install()
    obs = MetricsRegistry()
    try:
        executor = ServiceExecutor(
            max_queue=SERVE_FLAGS["queue_size"],
            threads=SERVE_FLAGS["threads"],
            cache=ResultCache(capacity=SERVE_FLAGS["cache_capacity"], obs=obs),
            obs=obs,
            trace_ring=SERVE_FLAGS["trace_ring"],
        )
        try:
            for name, graph in workload.graphs.items():
                executor.register(graph, name=name)
            for op in workload.warmup:
                _execute(executor, op, NULL_TRACE)
            calls_at_start = Counter(tracer.calls)
            rows_at_start = tracer.intersect_rows
            nodes_at_start = obs.counters.get("epivoter.nodes_expanded", 0)
            traces = []
            for op in ops:
                trace = Trace(op.kind)
                tracer.active = trace
                try:
                    _execute(executor, op, trace)
                except Exception:  # noqa: BLE001 - the untraced run counts failures
                    pass
                finally:
                    tracer.active = None
                traces.append(trace.finish())
        finally:
            executor.shutdown(save_cache=False)
    finally:
        tracer.restore()

    own: "defaultdict[str, float]" = defaultdict(float)
    inclusive: "defaultdict[str, float]" = defaultdict(float)
    for trace in traces:
        t_own, t_inclusive = self_times(trace.root)
        for layer, seconds in t_own.items():
            own[layer] += seconds
        for layer, seconds in t_inclusive.items():
            inclusive[layer] += seconds
    n = max(1, len(traces))
    total_s = sum(trace.duration for trace in traces)
    calls = tracer.calls - calls_at_start
    nodes = obs.counters.get("epivoter.nodes_expanded", 0) - nodes_at_start

    metrics: dict = {}
    for layer, metric in REQUEST_METRICS.items():
        metrics[metric] = (own[layer] * 1000.0 / n, "ms/req")
    for layer in SETUP_LAYERS:
        total = own[layer] + tracer.outside[layer]
        metrics[f"{layer}_ms"] = (total * 1000.0, "ms")
    key_calls = calls["fingerprint.cache_key"]
    key_s = own["fingerprint.cache_key"]
    metrics["fingerprint.cache_key_us"] = (
        key_s * 1e6 / key_calls if key_calls else 0.0, "us"
    )
    for layer in ("matrix", "epivoter", "intersect", "zigzag"):
        metrics[f"{layer}.calls"] = (calls[layer], "count")
    metrics["intersect.rows"] = (tracer.intersect_rows - rows_at_start, "count")
    epivoter_s = inclusive["epivoter"]
    metrics["intersect.share"] = (
        own["intersect"] / epivoter_s if epivoter_s else 0.0, "ratio"
    )
    metrics["epivoter.nodes_per_s"] = (nodes / epivoter_s if epivoter_s else 0.0, "1/s")
    ratios = [r for r in map(_predicted_over_actual, traces) if r is not None]
    metrics["planner.predicted_over_actual"] = (
        statistics.median(ratios) if ratios else 0.0, "ratio"
    )
    untraced_s = sum(untraced_request_ms) / 1000.0
    metrics["obs.trace_overhead_ratio"] = (
        total_s / untraced_s - 1.0 if untraced_s else 0.0, "ratio"
    )
    metrics["unattributed_ms"] = (own["unattributed"] * 1000.0 / n, "ms/req")
    metrics["unattributed.share"] = (
        own["unattributed"] / total_s if total_s else 0.0, "ratio"
    )
    metrics["traced.request_ms"] = (total_s * 1000.0 / n, "ms/req")
    return metrics
