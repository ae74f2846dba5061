"""Outside-in layer trace: timing wrappers around the public seams.

No file under ``src/`` is instrumented.  :func:`tracing` resolves every
entry of :data:`TARGETS` by dotted name at run time, swaps in a wrapper
that records one span per call into a :class:`Recorder`, and restores
the originals on exit.  A target that no longer exists (ROADMAP item 2
will delete some) is listed in ``Recorder.missing`` instead of raising;
the per-layer metrics that depended on it then read 0.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``op`` the index of the benchmark
operation — one timed call of a workload — that caused it.  A layer's
self time is its duration minus the part its child spans cover; the
program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: ``(span name, module, attribute path)``.  Several targets may share a
#: span name (the three scheduler entry points are one layer).
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("datasets.load", "repro.datasets.catalog", "load_dataset"),
    ("datasets.ground_truth", "repro.datasets.ground_truth", "exact_knn"),
    ("metrics.recall", "repro.metrics.recall", "recall_at_k"),
    ("core.index.build", "repro.core.index", "GannsIndex.build"),
    ("core.index.search", "repro.core.index", "GannsIndex.search_report"),
    ("core.index.save", "repro.core.index", "GannsIndex.save"),
    ("core.index.load", "repro.core.index", "GannsIndex.load"),
    ("core.ganns.search", "repro.core.ganns", "ganns_search"),
    ("perf.engine.fast", "repro.perf.engine", "ganns_search_fast"),
    ("perf.engine.staged", "repro.perf.engine", "ganns_search_staged"),
    ("perf.distance.pairs", "repro.perf.distance",
     "GroupDistanceEngine.pairs"),
    ("perf.distance.make_engine", "repro.perf.distance",
     "make_distance_engine"),
    ("perf.quant.pairs", "repro.perf.quant", "QuantizedGroupEngine.pairs"),
    ("perf.quant.table_build", "repro.perf.quant", "quantize_points"),
    ("perf.arena.get", "repro.perf.arena", "get_arena"),
    ("perf.arena.compact", "repro.perf.arena", "SearchArena.compact"),
    ("perf.descent.batch", "repro.perf.descent",
     "hnsw_entry_descent_batch"),
    ("gpusim.tracker.charge", "repro.gpusim.tracker",
     "CycleTracker.charge"),
    ("core.pipeline.stream_batches", "repro.core.pipeline",
     "stream_batches"),
    ("serve.engine.replay", "repro.serve.engine", "ServeEngine.replay"),
    ("serve.scheduler", "repro.serve.scheduler",
     "MicroBatchScheduler.submit"),
    ("serve.scheduler", "repro.serve.scheduler",
     "MicroBatchScheduler.poll"),
    ("serve.scheduler", "repro.serve.scheduler",
     "MicroBatchScheduler.drain"),
    ("serve.cache", "repro.serve.cache", "ResultCache.get"),
    ("serve.cache", "repro.serve.cache", "ResultCache.put"),
    ("serve.report", "repro.serve.report",
     "ServeReport.verify_against_metrics"),
    ("serve.report", "repro.serve.report", "ServeReport.to_bytes"),
    ("serve.trace.gen", "repro.serve.trace", "synthetic_trace"),
    ("cluster.engine.build", "repro.cluster.engine",
     "ClusterEngine.__init__"),
    ("cluster.engine.replay", "repro.cluster.engine",
     "ClusterEngine.replay"),
    ("cluster.router", "repro.cluster.router", "ReplicaRouter.route"),
    ("cluster.merge", "repro.cluster.merge", "merge_topk"),
    ("cluster.placement", "repro.cluster.placement", "ShardMap.from_ring"),
    ("cluster.report", "repro.cluster.report",
     "ClusterReport.verify_against_metrics"),
    ("cluster.report", "repro.cluster.report", "ClusterReport.to_bytes"),
    ("heal.plan_repairs", "repro.heal.controller",
     "RepairController.plan_repairs"),
    ("core.construction.nsw", "repro.core.construction", "build_nsw_gpu"),
    ("core.construction.merge", "repro.core.construction",
     "merge_group_into_graph"),
    ("core.hnsw.build", "repro.core.hnsw", "build_hnsw_gpu"),
    ("core.knng.build", "repro.core.knng", "build_knn_graph_gpu"),
    ("core.cagra.build", "repro.core.cagra", "build_cagra_gpu"),
    ("core.cagra.rank_prune", "repro.core.cagra", "rank_prune"),
    ("core.cagra.reverse_merge", "repro.core.cagra", "reverse_merge"),
    ("perf.construction.insert", "repro.perf.construction",
     "insert_bidirectional_batch"),
    ("perf.construction.merge_forward", "repro.perf.construction",
     "merge_forward_batch"),
    ("perf.construction.merge_segments", "repro.perf.construction",
     "merge_segments_batch"),
    ("graphs.validation", "repro.graphs.validation", "validate_graph"),
    ("graphs.stats.digest", "repro.graphs.stats", "graph_digest"),
    ("mutable.build", "repro.mutable.index", "MutableIndex.build"),
    ("mutable.insert", "repro.mutable.index", "MutableIndex.insert"),
    ("mutable.delete", "repro.mutable.index", "MutableIndex.delete"),
    ("mutable.compact", "repro.mutable.index", "MutableIndex.compact"),
    ("mutable.checkpoint", "repro.mutable.index",
     "MutableIndex.checkpoint"),
    ("mutable.snapshot", "repro.mutable.index", "MutableIndex.snapshot"),
    ("mutable.search", "repro.mutable.index", "MutableIndex.search"),
    ("mutable.recover", "repro.mutable.recovery", "recover"),
)

#: The paper's Fig. 7 split: phase names of the search cycle tracker.
SIM_PHASES = ("candidate_locating", "neighborhood_exploration",
              "bulk_distance", "lazy_check", "sorting", "candidate_update")


class Recorder:
    """In-memory span store plus the exact counts taken at the seams."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.ops: List[int] = []
        #: One entry per benchmark operation: its label and phase.
        self.op_labels: List[Dict[str, object]] = []
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._op = -1
        #: Exact counts accumulated by the call hooks, per phase.
        self.phase_counts: Dict[str, Dict[str, float]] = {}
        self.counts: Dict[str, float] = {}
        #: ``(args, kwargs, root layer)`` of every ``ganns_search`` call
        #: since :meth:`clear_captures` — the bare-kernel denominators
        #: of the overhead ratios re-run exactly these.
        self.kernel_calls: List[Tuple[tuple, dict, str]] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, label: str, phase: str,
                  round_index: int) -> Iterator[None]:
        """Root span of one benchmark operation."""
        self._op = len(self.op_labels)
        self.op_labels.append({"op": self._op, "label": label,
                               "phase": phase, "round": round_index})
        self.counts = self.phase_counts.setdefault(phase, {})
        index = self.open("op." + label)
        try:
            yield
        finally:
            self.close(index)
            self._op = -1

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def enclosing(self, names: Tuple[str, ...]) -> str:
        """Innermost open span whose name is in ``names`` ('' if none)."""
        for index in reversed(self._stack):
            if self.names[index] in names:
                return self.names[index]
        return ""

    def clear_captures(self) -> None:
        self.kernel_calls.clear()

    # -- analysis ------------------------------------------------------

    def _ops_of(self, phase: str, round_index: Optional[int]) -> set:
        return {entry["op"] for entry in self.op_labels
                if entry["phase"] == phase
                and round_index in (None, entry["round"])}

    def durations(self, phase: str, round_index: Optional[int] = None
                  ) -> Dict[str, List[float]]:
        """``name -> [total, self, calls]`` over the spans of one phase
        (of one round of it, when ``round_index`` is given)."""
        wanted = self._ops_of(phase, round_index)
        child_time = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[index] - self.starts[index]
        table: Dict[str, List[float]] = {}
        for index, name in enumerate(self.names):
            if self.ops[index] not in wanted:
                continue
            span = self.ends[index] - self.starts[index]
            row = table.setdefault(name, [0.0, 0.0, 0.0])
            row[0] += span
            row[1] += span - child_time[index]
            row[2] += 1
        return table

    def check_forest(self) -> List[str]:
        """Well-formedness defects: empty when every child lies inside
        its parent and every operation has exactly one root."""
        defects = []
        roots: Dict[int, int] = {}
        for index, parent in enumerate(self.parents):
            if self.ends[index] < self.starts[index]:
                defects.append(f"span {index} ends before it starts")
            if parent < 0:
                roots[self.ops[index]] = roots.get(self.ops[index], 0) + 1
                continue
            if not (self.starts[parent] <= self.starts[index]
                    and self.ends[index] <= self.ends[parent]):
                defects.append(f"span {index} ({self.names[index]}) "
                               f"leaks out of parent {parent}")
            if self.ops[parent] != self.ops[index]:
                defects.append(f"span {index} changes operation")
        for op, n_roots in roots.items():
            if op < 0 or n_roots != 1:
                defects.append(f"operation {op} has {n_roots} roots")
        return defects

    def coverage(self, phase: str) -> float:
        """Share of the phase's operation time covered by named spans."""
        wanted = self._ops_of(phase, None)
        total = covered = 0.0
        for index, parent in enumerate(self.parents):
            if self.ops[index] not in wanted:
                continue
            span = self.ends[index] - self.starts[index]
            if parent < 0:
                total += span
            elif self.parents[parent] < 0:
                covered += span
        return covered / total if total > 0 else 0.0

    def to_json(self) -> Dict[str, object]:
        return {
            "operations": self.op_labels,
            "missing_layers": self.missing,
            "spans": [
                {"id": i, "name": self.names[i], "start": self.starts[i],
                 "end": self.ends[i], "parent": self.parents[i],
                 "op": self.ops[i]}
                for i in range(len(self.names))],
        }


# ----------------------------------------------------------------------
# Call hooks: exact counts read off arguments and results at the seams.
# ----------------------------------------------------------------------

_KERNEL_ROOTS = ("core.index.search", "serve.engine.replay")


def _hook_ganns(rec: Recorder, args, kwargs, result) -> None:
    rec.kernel_calls.append((args, kwargs, rec.enclosing(_KERNEL_ROOTS)))
    rec.count("ganns.queries", len(result.ids))
    rec.count("ganns.iterations", float(result.iterations.sum()))
    rec.count("ganns.distances", float(result.n_distance_computations))
    for phase, cycles in result.tracker.phase_totals().items():
        rec.count("sim_cycles." + phase, float(cycles))


def _hook_pairs(rec: Recorder, args, kwargs, result) -> None:
    queries = getattr(args[0], "queries", None)
    if queries is not None:
        rec.count("distance.bytes_gathered",
                  float(result.size) * queries.shape[1] * queries.itemsize)


def _hook_table(rec: Recorder, args, kwargs, result) -> None:
    rec.counts["quant.bytes_per_vector"] = float(result.bytes_per_vector())


def _hook_batches(rec: Recorder, args, kwargs, result) -> None:
    for batch in result:
        rec.count("scheduler.batches")
        rec.count("scheduler.queries", batch.n_queries)


def _hook_cache_get(rec: Recorder, args, kwargs, result) -> None:
    rec.count("cache.lookups")
    if result is not None:
        rec.count("cache.hits")


def _hook_route(rec: Recorder, args, kwargs, result) -> None:
    rec.count("router.failovers", result.n_failovers)


def _hook_repairs(rec: Recorder, args, kwargs, result) -> None:
    rec.count("heal.repairs", len(result))


_HOOKS: Dict[str, Callable] = {
    "ganns_search": _hook_ganns,
    "GroupDistanceEngine.pairs": _hook_pairs,
    "quantize_points": _hook_table,
    "MicroBatchScheduler.submit": _hook_batches,
    "MicroBatchScheduler.poll": _hook_batches,
    "MicroBatchScheduler.drain": _hook_batches,
    "ResultCache.get": _hook_cache_get,
    "ReplicaRouter.route": _hook_route,
    "RepairController.plan_repairs": _hook_repairs,
}


def _make_wrapper(fn: Callable, name: str, rec: Recorder,
                  hook: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result
    return traced


def _rebind(mapping: Dict[int, Tuple[object, object]]) -> None:
    """Replace ``old`` by ``new`` in every repro module namespace.

    ``from x import f`` copies ``f`` into the importing namespace, so a
    module-level function has to be rebound wherever it is held.
    """
    for key, module in list(sys.modules.items()):
        if module is None or not (key == "repro"
                                  or key.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = mapping.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


@contextlib.contextmanager
def tracing(rec: Recorder) -> Iterator[None]:
    """Install the wrappers; restore every original on exit."""
    methods: List[Tuple[object, str, object]] = []
    functions: List[Tuple[object, object]] = []
    rec.missing = []
    for name, module_name, path in TARGETS:
        hook = _HOOKS.get(path)
        try:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            rec.missing.append(f"{module_name}:{path}")
            continue
        if not owner_name:
            functions.append((raw, _make_wrapper(raw, name, rec, hook)))
        elif isinstance(raw, (classmethod, staticmethod)):
            methods.append((owner, attr, raw))
            setattr(owner, attr, type(raw)(
                _make_wrapper(raw.__func__, name, rec, hook)))
        else:
            methods.append((owner, attr, raw))
            setattr(owner, attr, _make_wrapper(raw, name, rec, hook))
    _rebind({id(raw): (raw, new) for raw, new in functions})
    try:
        yield
    finally:
        # Also catches namespaces that imported a wrapper meanwhile.
        _rebind({id(new): (new, raw) for raw, new in functions})
        for owner, attr, raw in methods:
            setattr(owner, attr, raw)


# ----------------------------------------------------------------------
# Per-layer metrics: the names BENCHMARK.json declares under per_layer.
# ----------------------------------------------------------------------

#: ``(metric, unit, span name, field)`` with field one of total / self /
#: calls.  A layer's value comes from the first phase it ran in: the
#: rounds (mean per traced round), else the traced setup, else verify.
SPAN_METRICS: Tuple[Tuple[str, str, str, str], ...] = (
    ("datasets.load_s", "s", "datasets.load", "total"),
    ("datasets.ground_truth_s", "s", "datasets.ground_truth", "total"),
    ("metrics.recall_s", "s", "metrics.recall", "total"),
    ("core.index.build_s", "s", "core.index.build", "total"),
    ("core.index.search_s", "s", "core.index.search", "total"),
    ("core.index.save_s", "s", "core.index.save", "total"),
    ("core.index.load_s", "s", "core.index.load", "total"),
    ("core.ganns.search_s", "s", "core.ganns.search", "total"),
    ("core.ganns.calls", "count", "core.ganns.search", "calls"),
    ("perf.engine.staged_s", "s", "perf.engine.staged", "total"),
    ("perf.distance.pairs_s", "s", "perf.distance.pairs", "total"),
    ("perf.distance.pairs_calls", "count", "perf.distance.pairs", "calls"),
    ("perf.distance.make_engine_s", "s", "perf.distance.make_engine",
     "total"),
    ("perf.arena.get_s", "s", "perf.arena.get", "total"),
    ("perf.arena.compact_s", "s", "perf.arena.compact", "total"),
    ("perf.arena.compact_calls", "count", "perf.arena.compact", "calls"),
    ("perf.quant.pairs_s", "s", "perf.quant.pairs", "total"),
    ("perf.descent.batch_s", "s", "perf.descent.batch", "total"),
    ("gpusim.tracker.charge_s", "s", "gpusim.tracker.charge", "total"),
    ("gpusim.tracker.charge_calls", "count", "gpusim.tracker.charge",
     "calls"),
    ("core.pipeline.stream_batches_s", "s", "core.pipeline.stream_batches",
     "total"),
    ("core.pipeline.stream_calls", "count", "core.pipeline.stream_batches",
     "calls"),
    ("serve.engine.replay_s", "s", "serve.engine.replay", "total"),
    ("serve.engine.self_s", "s", "serve.engine.replay", "self"),
    ("serve.scheduler.s", "s", "serve.scheduler", "total"),
    ("serve.cache.s", "s", "serve.cache", "total"),
    ("serve.report.s", "s", "serve.report", "total"),
    ("serve.trace.gen_s", "s", "serve.trace.gen", "total"),
    ("cluster.engine.build_s", "s", "cluster.engine.build", "total"),
    ("cluster.engine.replay_s", "s", "cluster.engine.replay", "total"),
    ("cluster.engine.self_s", "s", "cluster.engine.replay", "self"),
    ("cluster.merge.s", "s", "cluster.merge", "total"),
    ("cluster.merge.calls", "count", "cluster.merge", "calls"),
    ("cluster.router.s", "s", "cluster.router", "total"),
    ("cluster.router.calls", "count", "cluster.router", "calls"),
    ("cluster.placement.s", "s", "cluster.placement", "total"),
    ("cluster.report.s", "s", "cluster.report", "total"),
    ("heal.plan_repairs_s", "s", "heal.plan_repairs", "total"),
    ("core.construction.nsw_s", "s", "core.construction.nsw", "total"),
    ("core.construction.merge_s", "s", "core.construction.merge", "total"),
    ("core.construction.merge_calls", "count", "core.construction.merge",
     "calls"),
    ("core.hnsw.build_s", "s", "core.hnsw.build", "total"),
    ("core.knng.build_s", "s", "core.knng.build", "total"),
    ("core.cagra.build_s", "s", "core.cagra.build", "total"),
    ("core.cagra.rank_prune_s", "s", "core.cagra.rank_prune", "total"),
    ("core.cagra.reverse_merge_s", "s", "core.cagra.reverse_merge",
     "total"),
    ("perf.construction.insert_s", "s", "perf.construction.insert",
     "total"),
    ("perf.construction.merge_forward_s", "s",
     "perf.construction.merge_forward", "total"),
    ("perf.construction.merge_segments_s", "s",
     "perf.construction.merge_segments", "total"),
    ("graphs.validation.s", "s", "graphs.validation", "total"),
    ("graphs.stats.digest_s", "s", "graphs.stats.digest", "total"),
    ("mutable.build_s", "s", "mutable.build", "total"),
    ("mutable.insert_s", "s", "mutable.insert", "total"),
    ("mutable.insert_calls", "count", "mutable.insert", "calls"),
    ("mutable.delete_s", "s", "mutable.delete", "total"),
    ("mutable.compact_s", "s", "mutable.compact", "total"),
    ("mutable.compact_calls", "count", "mutable.compact", "calls"),
    ("mutable.checkpoint_s", "s", "mutable.checkpoint", "total"),
    ("mutable.search_s", "s", "mutable.search", "total"),
    ("mutable.search_filter_s", "s", "mutable.search", "self"),
    ("mutable.recover_s", "s", "mutable.recover", "total"),
)

#: Per-layer metrics passed through from the harness or the workload.
EXTRA_METRICS: Tuple[Tuple[str, str], ...] = (
    ("host.wall_s", "s"),
    ("host.calib_cpu_s", "s"),
    ("host.calib_mem_s", "s"),
    ("host.trace_overhead_ratio", "ratio"),
    ("host.rss_peak_mb", "mb"),
    ("host.span_coverage", "ratio"),
    ("core.index.file_bytes", "bytes"),
    ("serve.sim_p99_ms", "ms"),
    ("observability.tracer_overhead_ratio", "ratio"),
    ("observability.spans", "count"),
    ("cluster.partial_ratio", "ratio"),
    ("cluster.sim_p99_ms", "ms"),
    ("faults.events", "count"),
    ("core.construction.sim_seconds", "s"),
    ("mutable.wal_bytes", "bytes"),
    ("mutable.checkpoint_bytes", "bytes"),
    ("mutable.write_amp", "ratio"),
)

_FIELD = {"total": 0, "self": 1, "calls": 2}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, traced_rounds: List[int],
                  extras: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of one traced run, as ``(value, unit)``.

    ``traced_rounds`` are the indices of the traced rounds.  ``extras``
    carries what spans cannot know: the harness's ``host.*`` values, the
    bare-kernel seconds of the last traced round's captured batches, and
    the exact counts a workload reads off its reports (file sizes,
    simulated percentiles).  A layer the workload never entered reads 0.
    """
    scale = 1.0 / max(len(traced_rounds), 1)
    last = rec.durations("round", traced_rounds[-1]) if traced_rounds \
        else {}

    def last_total(name: str) -> float:
        return last[name][0] if name in last else 0.0
    phases = [(rec.durations("round"), scale),
              (rec.durations("setup"), 1.0),
              (rec.durations("verify"), 1.0)]
    counts = {key: value * scale for key, value in
              rec.phase_counts.get("round", {}).items()}

    def span(name: str, field: str, only: Optional[int] = None) -> float:
        chosen = phases if only is None else [phases[only]]
        for table, factor in chosen:
            if name in table:
                return table[name][_FIELD[field]] * factor
        return 0.0

    out = {metric: (span(name, field), unit)
           for metric, unit, name, field in SPAN_METRICS}

    ganns_s = span("core.ganns.search", "total", only=0)
    queries = counts.get("ganns.queries", 0.0)
    in_cluster = span("cluster.engine.replay", "calls") > 0
    mutate_s = sum(span(f"mutable.{part}", "total") for part in
                   ("insert", "delete", "compact", "checkpoint"))
    derived = {
        # Both overhead ratios compare the last traced round with the
        # bare kernel re-run on that round's captured batches.
        "core.index.overhead_ratio": (_ratio(
            last_total("core.index.search"),
            extras.get("bare.core.index.search", 0.0)), "ratio"),
        "core.ganns.iterations_per_query": (_ratio(
            counts.get("ganns.iterations", 0.0), queries), "count"),
        "core.ganns.dist_per_query": (_ratio(
            counts.get("ganns.distances", 0.0), queries), "count"),
        "perf.engine.self_s": (span("perf.engine.fast", "self")
                               + span("perf.engine.staged", "self"), "s"),
        "perf.distance.share": (_ratio(
            span("perf.distance.pairs", "total", only=0)
            + span("perf.quant.pairs", "total", only=0), ganns_s), "ratio"),
        "perf.distance.bytes_gathered": (
            counts.get("distance.bytes_gathered", 0.0), "bytes"),
        # The table is built once, in setup; later calls are cache hits.
        "perf.quant.table_build_s": (
            span("perf.quant.table_build", "total", only=1), "s"),
        "perf.quant.bytes_per_vector": (max(
            (c.get("quant.bytes_per_vector", 0.0)
             for c in rec.phase_counts.values()), default=0.0), "bytes"),
        "serve.engine.overhead_ratio": (_ratio(
            last_total("serve.engine.replay"),
            extras.get("bare.serve.engine.replay", 0.0)), "ratio"),
        "serve.scheduler.batches": (
            counts.get("scheduler.batches", 0.0), "count"),
        "serve.scheduler.mean_batch": (_ratio(
            counts.get("scheduler.queries", 0.0),
            counts.get("scheduler.batches", 0.0)), "count"),
        "serve.cache.lookups": (counts.get("cache.lookups", 0.0), "count"),
        "serve.cache.hit_rate": (_ratio(
            counts.get("cache.hits", 0.0),
            counts.get("cache.lookups", 0.0)), "ratio"),
        "cluster.serve_replays": (
            span("serve.engine.replay", "calls") if in_cluster else 0.0,
            "count"),
        "cluster.serve_replay_s": (
            span("serve.engine.replay", "total") if in_cluster else 0.0,
            "s"),
        "cluster.router.failovers": (
            counts.get("router.failovers", 0.0), "count"),
        "cluster.fanout_ratio": (_ratio(
            queries, extras.get("cluster.answered_queries", 0.0))
            if in_cluster else 0.0, "ratio"),
        "heal.repairs": (counts.get("heal.repairs", 0.0), "count"),
        "mutable.mutate_pps": (_ratio(
            extras.get("mutable.mutated_items", 0.0), mutate_s), "1/s"),
        "mutable.search_qps": (_ratio(
            extras.get("mutable.searched_queries", 0.0),
            span("mutable.search", "total")), "1/s"),
    }
    out.update(derived)
    for phase in SIM_PHASES:
        out["gpusim.sim_cycles." + phase] = (
            counts.get("sim_cycles." + phase, 0.0), "cycles")
    for name, unit in EXTRA_METRICS:
        out[name] = (float(extras.get(name, 0.0)), unit)
    return out
