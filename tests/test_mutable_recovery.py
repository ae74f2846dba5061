"""Crash-recovery battery: every crash point must recover exactly.

The acceptance bar for the crash-safe mutable index: a ``crash`` fault
at *any* named lifecycle phase loses only volatile state — recovery
from the surviving durable store produces an index whose digest is
byte-identical to a clean replay of the surviving log, with zero
silently wrong answers afterwards.
"""

import numpy as np
import pytest

from repro.core.params import SearchParams
from repro.datasets.synthetic import gaussian_mixture
from repro.errors import MutableIndexError, ProcessCrashError
from repro.faults.injector import CrashInjector
from repro.faults.plan import CRASH_PHASES, FAULT_CRASH, FaultEvent, FaultPlan
from repro.mutable import (
    DurableStore,
    MutableIndex,
    default_build_params,
    recover,
    run_mutation_sim,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.span import SpanTracer

PARAMS = default_build_params()
SEARCH = SearchParams(k=5, l_n=32)

COMPACTION_CRASH_POINTS = tuple(p for p in CRASH_PHASES
                                if p.startswith("compaction."))
CHECKPOINT_CRASH_POINTS = tuple(p for p in CRASH_PHASES
                                if p.startswith("checkpoint."))


def _corpus(n=100, d=8, seed=0):
    return gaussian_mixture(n, d, n_clusters=5,
                            seed=seed).astype(np.float64)


def _mutated_index():
    """A seed build plus a few mutations — crash-bait state."""
    index = MutableIndex.build(_corpus(), PARAMS)
    index.insert(_corpus(8, seed=7), now=1.0)
    index.delete([3, 15, 40, 104], now=2.0)
    return index


def _injector_for(phase):
    plan = FaultPlan([FaultEvent(kind=FAULT_CRASH, at_seconds=0.0,
                                 phase=phase)])
    return CrashInjector(plan)


class TestCrashBattery:
    """One crash at every named phase; recovery must be exact."""

    @pytest.mark.parametrize("phase", COMPACTION_CRASH_POINTS)
    def test_crash_during_compaction(self, phase):
        index = _mutated_index()
        live_digest = index.digest()
        with pytest.raises(ProcessCrashError) as excinfo:
            index.compact(now=3.0, crash=_injector_for(phase))
        assert excinfo.value.phase == phase
        # The live index is untouched: compaction ran on a shadow.
        assert index.digest() == live_digest
        recovered = recover(index.store)
        assert recovered.digest() == recover(index.store).digest()
        assert recovered.digest() == live_digest
        assert recovered.epoch == index.epoch
        recovered.validate()

    @pytest.mark.parametrize("phase", CHECKPOINT_CRASH_POINTS)
    def test_crash_during_checkpoint(self, phase):
        index = _mutated_index()
        live_digest = index.digest()
        with pytest.raises(ProcessCrashError):
            index.checkpoint(now=3.0, crash=_injector_for(phase))
        assert index.store.checkpoint is None  # nothing half-installed
        recovered = recover(index.store)
        assert recovered.digest() == recover(index.store).digest()
        assert recovered.digest() == live_digest
        recovered.validate()

    @pytest.mark.parametrize("phase", COMPACTION_CRASH_POINTS)
    def test_no_wrong_answers_after_recovery(self, phase):
        index = _mutated_index()
        with pytest.raises(ProcessCrashError):
            index.compact(now=3.0, crash=_injector_for(phase))
        recovered = recover(index.store)
        queries = _corpus(10, seed=21)
        ids, _ = recovered.search(queries, SEARCH)
        returned = ids[ids >= 0]
        assert not np.any(recovered.tombstones[returned])

    def test_serve_replay_over_recovered_index_never_lies(self):
        from repro.cluster.engine import ClusterEngine
        from repro.serve.trace import synthetic_trace

        index = _mutated_index()
        with pytest.raises(ProcessCrashError):
            index.compact(now=3.0,
                          crash=_injector_for("compaction.rewrite"))
        recovered = recover(index.store)
        engine = ClusterEngine.from_snapshot(recovered.snapshot(), 1, 1,
                                             params=SEARCH)
        trace = synthetic_trace(_corpus(15, seed=22), 40,
                                mean_qps=1e4, seed=0)
        report = engine.replay(trace)
        tombstoned = np.flatnonzero(recovered.tombstones)
        assert len(tombstoned)
        for outcome in [o for o in report.outcomes if o.answered]:
            returned = engine.map_to_external(outcome.ids)
            assert not np.any(np.isin(returned, tombstoned))

    def test_crash_after_checkpoint_replays_the_tail(self):
        index = _mutated_index()
        index.checkpoint(now=3.0)
        index.insert(_corpus(4, seed=8), now=4.0)
        index.delete([50], now=5.0)
        with pytest.raises(ProcessCrashError):
            index.compact(now=6.0,
                          crash=_injector_for("compaction.commit"))
        recovered = recover(index.store)
        assert recovered.digest() == index.digest()
        assert recovered.last_recovery["from_checkpoint"]
        assert recovered.last_recovery["n_replayed"] == 2

    def test_committed_compaction_survives_a_later_crash(self):
        index = _mutated_index()
        index.compact(now=3.0)
        index.delete([60], now=4.0)
        with pytest.raises(ProcessCrashError):
            index.checkpoint(now=5.0,
                             crash=_injector_for("checkpoint.write"))
        recovered = recover(index.store)
        assert recovered.digest() == index.digest()
        assert np.array_equal(recovered.compacted_tombstones,
                              index.compacted_tombstones)


class TestRecoveryMechanics:
    def test_recovery_without_checkpoint_rebuilds_from_base(self):
        index = _mutated_index()
        recovered = recover(index.store)
        assert recovered.digest() == index.digest()
        assert not recovered.last_recovery["from_checkpoint"]

    def test_recovery_is_idempotent(self):
        index = _mutated_index()
        assert recover(index.store).digest() == \
            recover(index.store).digest()

    def test_empty_store_rejected(self):
        with pytest.raises(MutableIndexError, match="nothing to recover"):
            recover(DurableStore())

    def test_store_without_base_record_rejected(self):
        store = DurableStore(meta={"d_min": 4})
        with pytest.raises(MutableIndexError, match="base-build"):
            recover(store)

    def test_replay_publishes_no_mutate_metrics(self):
        index = _mutated_index()
        metrics = MetricsRegistry()
        recovered = recover(index.store, metrics=metrics)
        assert metrics.value("recovery.runs") == 1
        # Base build comes from record 1; only the two mutations replay.
        assert metrics.value("recovery.replayed_records") == 2
        assert metrics.value("mutate.inserts", default=0.0) == 0.0
        assert recovered.epoch == index.epoch

    def test_recovery_span_validates(self):
        index = _mutated_index()
        tracer = SpanTracer()
        recover(index.store, tracer=tracer, now=10.0)
        tracer.finish()
        tracer.validate()
        (span,) = tracer.find("recovery.replay")
        assert span.attributes["n_replayed"] == 2
        assert span.attributes["from_checkpoint"] == 0


class TestSimulatedChaosWorkload:
    def test_sim_is_byte_deterministic_under_chaos(self):
        def plan():
            return FaultPlan([
                FaultEvent(kind=FAULT_CRASH, at_seconds=4.0,
                           phase="compaction.rewrite"),
                FaultEvent(kind=FAULT_CRASH, at_seconds=13.0,
                           phase="checkpoint.serialize"),
            ], seed=0)

        a = run_mutation_sim(n_points=120, n_ops=20, seed=5,
                             fault_plan=plan())
        b = run_mutation_sim(n_points=120, n_ops=20, seed=5,
                             fault_plan=plan())
        assert a.to_bytes() == b.to_bytes()
        assert a.n_crashes == 2
        assert a.n_recoveries == 2
        assert a.n_wrong_answers == 0

    def test_sim_zero_drift_and_trace_validate(self):
        tracer = SpanTracer()
        metrics = MetricsRegistry()
        plan = FaultPlan([FaultEvent(kind=FAULT_CRASH, at_seconds=5.0,
                                     phase="compaction.repair")])
        report = run_mutation_sim(n_points=120, n_ops=18, seed=2,
                                  fault_plan=plan, tracer=tracer,
                                  metrics=metrics)
        tracer.finish()
        tracer.validate()
        report.verify_against_metrics()
        assert report.final_digest
        assert "crashes" in report.summary()

    def test_chaos_changes_nothing_about_surviving_answers(self):
        """Same workload with and without a crashed compaction: the
        search results agree wherever both issued the same search at
        the same epoch (the crash only aborts the compaction)."""
        plan = FaultPlan([FaultEvent(kind=FAULT_CRASH, at_seconds=5.9,
                                     phase="compaction.scan")])
        calm = run_mutation_sim(n_points=120, n_ops=5, seed=4)
        chaos = run_mutation_sim(n_points=120, n_ops=5, seed=4,
                                 fault_plan=plan)
        # The crash event arms at 5.9s; a 5-op workload never reaches
        # a crash point, so the runs must be identical.
        assert calm.to_bytes() == chaos.to_bytes()
