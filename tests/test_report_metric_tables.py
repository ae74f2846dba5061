"""Every row of every report's metric table is actually verified.

Each report (``ServeReport``, ``FaultReport``, ``ClusterReport``,
``MutationReport``) lists what the registry must hold exactly once, in
``metric_rows()``, and ``verify_against_metrics`` reconciles against
that list.  For every row of every table this suite moves the matching
registry entry by one and demands an :class:`ObservabilityError` that
names the metric — so a counter cannot drift unnoticed just because
nobody thought to test it.  The cluster table is also what the engine
publishes from, so it round-trips into a fresh registry byte for byte.
"""

import copy

import pytest

from repro.cluster import ClusterEngine
from repro.core.params import SearchParams
from repro.datasets.synthetic import gaussian_mixture
from repro.errors import ObservabilityError
from repro.faults import (
    AdmissionGovernor,
    BreakerPolicy,
    RetryPolicy,
    named_fault_plan,
)
from repro.faults.plan import FAULT_WORKER_LOSS, FaultEvent, FaultPlan
from repro.heal import HealPolicy
from repro.mutable import run_mutation_sim
from repro.observability import MetricsRegistry
from repro.serve import BatchPolicy, ResultCache, ServeEngine, synthetic_trace

PARAMS = SearchParams(k=5, l_n=32)


def _pool(seed=11):
    return gaussian_mixture(200, 24, n_clusters=8, cluster_std=0.3,
                            intrinsic_dim=8, seed=seed)


def _serve_report(small_graph, small_points, quant=None):
    """A chaos replay that exercises every fault-tolerance path."""
    params = SearchParams(k=5, l_n=32, quant=quant)
    n_requests, qps = 250, 20_000.0
    engine = ServeEngine(
        small_graph, small_points, params,
        policy=BatchPolicy(max_batch=32, max_wait_seconds=5e-4,
                           max_queue=128),
        cache=ResultCache(capacity=512),
        faults=named_fault_plan("aggressive", seed=4,
                                horizon_seconds=2.0 * n_requests / qps),
        retry=RetryPolicy(max_retries=1, base_seconds=2e-4,
                          cap_seconds=2e-3),
        breaker=BreakerPolicy(failure_threshold=2,
                              cooldown_seconds=1e-3),
        governor=AdmissionGovernor.default_for(params),
        default_deadline_seconds=2e-3)
    trace = synthetic_trace(_pool(), n_requests, mean_qps=qps,
                            repeat_fraction=0.3, seed=21)
    return engine.replay(trace)


def _cluster_replay(registry=None):
    """Every single-replica shard loses its replica; rebuilds are
    corrupted often enough that some quarantine and some give up."""
    points = gaussian_mixture(300, 16, n_clusters=4, cluster_std=0.4,
                              seed=21)
    pool = gaussian_mixture(40, 16, n_clusters=4, cluster_std=0.4,
                            seed=22)
    plan = FaultPlan(events=[
        FaultEvent(kind=FAULT_WORKER_LOSS, at_seconds=at, magnitude=1.0,
                   target=slot)
        for slot, at in ((0, 0.0005), (1, 0.001), (2, 0.003))], seed=1)
    engine = ClusterEngine(points, n_shards=3, n_replicas=1,
                           params=PARAMS, faults=plan,
                           heal=HealPolicy(corruption_probability=0.7,
                                           max_rebuild_attempts=2))
    trace = synthetic_trace(pool, 120, mean_qps=20_000.0, seed=1)
    return engine.replay(trace, metrics=registry)


def _mutation_report():
    plan = named_fault_plan("compaction-crash", horizon_seconds=25.0,
                            seed=0)
    return run_mutation_sim(
        n_points=200, n_dims=16, n_ops=24, seed=0, batch_size=8, k=5,
        l_n=32, compact_every=6, checkpoint_every=9, fault_plan=plan,
        metrics=MetricsRegistry())


@pytest.fixture(scope="module")
def reports(small_graph, small_points):
    """``kind -> (report, registry, verify(registry))``."""
    def attached(report):
        def verify(registry):
            report.metrics = registry
            report.verify_against_metrics()
        return report, report.metrics, verify

    serve = _serve_report(small_graph, small_points)
    ledger = serve.fault_report
    return {
        "serve": attached(serve),
        "serve-quant": attached(
            _serve_report(small_graph, small_points, quant="fp16")),
        "faults": (ledger, serve.metrics,
                   lambda registry: registry.reconcile(
                       ledger.metric_rows())),
        "cluster": attached(_cluster_replay()),
        "mutable": attached(_mutation_report()),
    }


def _move_by_one(registry, row):
    if row.kind == "counter":
        registry.counter(row.name).inc()
    elif row.kind == "gauge":
        registry.gauge(row.name).set(row.value + 1)
    else:
        registry.histogram(row.name).observe(0.0)


@pytest.mark.parametrize(
    "kind", ["serve", "serve-quant", "faults", "cluster", "mutable"])
def test_every_row_detects_drift(reports, kind):
    report, registry, verify = reports[kind]
    verify(registry)  # the untouched registry reconciles
    rows = report.metric_rows()
    assert len({row.name for row in rows}) == len(rows) > 5
    assert {row.kind for row in rows} <= {"counter", "gauge",
                                          "histogram"}
    try:
        for row in rows:
            sabotaged = copy.deepcopy(registry)
            _move_by_one(sabotaged, row)
            with pytest.raises(ObservabilityError) as caught:
                verify(sabotaged)
            assert repr(row.name) in str(caught.value), row
    finally:
        verify(registry)  # re-attach the real registry


def test_tables_cover_the_paths_they_claim(reports):
    """The fixtures are not vacuous: the interesting rows are non-zero."""
    def nonzero(kind):
        return {row.name for row in reports[kind][0].metric_rows()
                if row.value}

    assert {"faults.injected", "faults.fatal", "faults.retries",
            "faults.fast_failed", "faults.degraded_batches",
            "faults.breaker.open", "faults.breaker.probe_successes",
            "faults.delivered.kernel_timeout", "serve.degraded",
            "serve.outcomes.failed", "serve.outcomes.cache_hit",
            "serve.latency_seconds"} <= nonzero("serve")
    assert {"quant.batches", "quant.rerank_pool_size"
            } <= nonzero("serve-quant")
    assert {"cluster.outcomes.partial", "cluster.outcomes.failed",
            "cluster.shard_misses", "cluster.latency_seconds",
            "heal.deaths_detected", "heal.quarantines",
            "heal.repairs_abandoned", "heal.unhealed_replicas",
            "heal.mttr_seconds"} <= nonzero("cluster")
    assert {"faults.delivered.crash", "recovery.runs",
            "recovery.checkpoint_lsn", "mutate.epoch"
            } <= nonzero("mutable")


def test_serve_report_checks_the_whole_fault_ledger(reports):
    serve, ledger = reports["serve"][0], reports["faults"][0]
    assert set(ledger.metric_rows()) <= set(serve.metric_rows())


def test_cluster_table_round_trips_through_publication():
    registry = MetricsRegistry()
    report = _cluster_replay(registry)
    fresh = MetricsRegistry()
    report.publish_metrics(fresh)
    assert fresh.to_json_bytes() == registry.to_json_bytes()
    report.metrics = fresh
    report.verify_against_metrics()
    # Sparse counters are verified at zero but never published at zero.
    sparse_zero = [row.name for row in report.metric_rows()
                   if row.sparse and not row.value]
    assert sparse_zero and not any(name in fresh for name in sparse_zero)


def test_empty_cluster_replay_publishes_no_per_record_counter():
    points = gaussian_mixture(120, 8, n_clusters=3, seed=5)
    report = ClusterEngine(points, n_shards=2, n_replicas=1,
                           params=PARAMS).replay([])
    report.verify_against_metrics()
    assert tuple(report.metrics.snapshot()) == (
        "cluster.latency_seconds", "cluster.makespan_seconds",
        "cluster.replica_deaths")
    assert "perf.wallclock_seconds" in report.metrics
    assert len(report.metrics) == 4
