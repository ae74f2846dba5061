"""Tests for the fault-tolerant serving engine.

Each fault-tolerance mechanism — retries, circuit breaker, deadlines,
graceful degradation — is exercised in isolation with hand-built fault
plans, plus the golden determinism guarantee: the same trace under the
same plan replays byte-for-byte.
"""

import numpy as np
import pytest

from repro.core.ganns import ganns_search
from repro.core.params import SearchParams
from repro.faults import (
    AdmissionGovernor,
    BreakerPolicy,
    FaultEvent,
    FaultPlan,
    RetryPolicy,
    named_fault_plan,
)
from repro.faults.plan import (
    FAULT_ECC_BITFLIP,
    FAULT_KERNEL_STALL,
    FAULT_KERNEL_TIMEOUT,
    FAULT_MEM_EXHAUSTION,
)
from repro.faults.policy import DEGRADE_BREAKER, DEGRADE_PRESSURE
from repro.serve import (
    BatchPolicy,
    QueryRequest,
    ResultCache,
    ServeEngine,
    synthetic_trace,
)
from repro.serve.request import RequestStatus

PARAMS = SearchParams(k=5, l_n=32)
POLICY = BatchPolicy(max_batch=64, max_wait_seconds=2e-3, max_queue=256)


def _requests(points, arrivals, **kwargs):
    """One single-query request per arrival, queries drawn from points."""
    return [QueryRequest(request_id=i, queries=points[i % 40][None, :],
                         arrival_seconds=t, **kwargs)
            for i, t in enumerate(arrivals)]


def _plan(*events, seed=0):
    return FaultPlan(events, seed=seed)


class TestRetries:
    def test_timeout_then_retry_serves_exact_results(
            self, small_graph, small_points):
        plan = _plan(FaultEvent(kind=FAULT_KERNEL_TIMEOUT,
                                at_seconds=0.0, magnitude=1e-4))
        engine = ServeEngine(small_graph, small_points, PARAMS,
                             policy=POLICY, faults=plan,
                             breaker=BreakerPolicy(failure_threshold=10))
        trace = _requests(small_points, [0.0])
        report = engine.replay(trace)

        outcome = report.outcomes[0]
        assert outcome.status is RequestStatus.SERVED
        assert outcome.n_retries == 1
        direct = ganns_search(small_graph, small_points,
                              trace[0].queries, PARAMS)
        assert np.array_equal(outcome.ids, direct.ids)
        assert np.array_equal(outcome.dists, direct.dists)
        fr = report.fault_report
        assert fr.n_injected == 1 and fr.n_fatal == 1
        assert fr.n_retries == 1
        assert fr.retries[0].backoff_seconds > 0

    @pytest.mark.parametrize("kind", [FAULT_ECC_BITFLIP,
                                      FAULT_MEM_EXHAUSTION])
    def test_discarded_attempts_never_leak_results(
            self, small_graph, small_points, kind):
        """ECC/OOM attempts are discarded and re-executed: the served
        answer is byte-identical to a fault-free search."""
        plan = _plan(FaultEvent(kind=kind, at_seconds=0.0))
        engine = ServeEngine(small_graph, small_points, PARAMS,
                             policy=POLICY, faults=plan,
                             breaker=BreakerPolicy(failure_threshold=10))
        trace = _requests(small_points, [0.0])
        report = engine.replay(trace)
        outcome = report.outcomes[0]
        assert outcome.status is RequestStatus.SERVED
        direct = ganns_search(small_graph, small_points,
                              trace[0].queries, PARAMS)
        assert np.array_equal(outcome.ids, direct.ids)
        assert report.fault_report.injected_by_kind() == {kind: 1}

    def test_stall_is_survivable_without_retry(self, small_graph,
                                               small_points):
        plan = _plan(FaultEvent(kind=FAULT_KERNEL_STALL, at_seconds=0.0,
                                magnitude=8.0))
        clean = ServeEngine(small_graph, small_points, PARAMS,
                            policy=POLICY)
        faulty = ServeEngine(small_graph, small_points, PARAMS,
                             policy=POLICY, faults=plan)
        trace = _requests(small_points, [0.0])
        clean_report = clean.replay(trace)
        stalled = faulty.replay(_requests(small_points, [0.0]))
        outcome = stalled.outcomes[0]
        assert outcome.status is RequestStatus.SERVED
        assert outcome.n_retries == 0
        assert not stalled.fault_report.injections[0].fatal
        assert outcome.latency_seconds > \
            clean_report.outcomes[0].latency_seconds

    def test_retries_exhausted_fails_the_batch(self, small_graph,
                                               small_points):
        plan = _plan(
            FaultEvent(kind=FAULT_KERNEL_TIMEOUT, at_seconds=0.0,
                       magnitude=1e-4),
            FaultEvent(kind=FAULT_KERNEL_TIMEOUT, at_seconds=0.0,
                       magnitude=1e-4))
        engine = ServeEngine(small_graph, small_points, PARAMS,
                             policy=POLICY, faults=plan,
                             retry=RetryPolicy(max_retries=1),
                             breaker=BreakerPolicy(failure_threshold=10))
        report = engine.replay(_requests(small_points, [0.0]))
        outcome = report.outcomes[0]
        assert outcome.status is RequestStatus.FAILED
        assert "retries exhausted" in outcome.detail
        assert outcome.ids is None
        assert report.n_failed == 1 and report.n_served == 0


class TestCircuitBreaker:
    def _engine(self, graph, points, plan, cooldown):
        return ServeEngine(
            graph, points, PARAMS,
            policy=BatchPolicy(max_batch=64, max_wait_seconds=1e-4,
                               max_queue=256),
            faults=plan, retry=RetryPolicy(max_retries=0),
            breaker=BreakerPolicy(failure_threshold=2,
                                  cooldown_seconds=cooldown))

    def test_trip_then_fail_fast_then_recover(self, small_graph,
                                              small_points):
        # Two timeouts trip the breaker (threshold 2, no retries); the
        # third batch arrives while open and fails fast without
        # dispatch; the fourth arrives after the cooldown, probes
        # half-open, succeeds, and closes the breaker.
        plan = _plan(
            FaultEvent(kind=FAULT_KERNEL_TIMEOUT, at_seconds=0.0,
                       magnitude=1e-4),
            FaultEvent(kind=FAULT_KERNEL_TIMEOUT, at_seconds=0.0,
                       magnitude=1e-4))
        engine = self._engine(small_graph, small_points, plan,
                              cooldown=5e-3)
        trace = _requests(small_points, [0.0, 1e-3, 2e-3, 20e-3])
        report = engine.replay(trace)

        statuses = [o.status for o in report.outcomes]
        assert statuses[0] is RequestStatus.FAILED
        assert statuses[1] is RequestStatus.FAILED
        assert statuses[2] is RequestStatus.FAILED
        assert "circuit breaker open" in report.outcomes[2].detail
        assert statuses[3] is RequestStatus.SERVED

        fr = report.fault_report
        assert fr.fast_failed_requests == 1
        assert fr.n_breaker_trips >= 1
        states = [(t.from_state, t.to_state)
                  for t in fr.breaker_transitions]
        assert ("open", "half_open") in states
        assert ("half_open", "closed") in states

    def test_half_open_probe_reconciles_metrics(
            self, small_graph, small_points):
        # The first post-cooldown success closes the breaker; the probe
        # surfaces as faults.breaker.probe_successes and the ledger
        # reconciles with zero drift.
        from repro.observability import MetricsRegistry

        plan = _plan(
            FaultEvent(kind=FAULT_KERNEL_TIMEOUT, at_seconds=0.0,
                       magnitude=1e-4),
            FaultEvent(kind=FAULT_KERNEL_TIMEOUT, at_seconds=0.0,
                       magnitude=1e-4))
        engine = ServeEngine(
            small_graph, small_points, PARAMS,
            policy=BatchPolicy(max_batch=64, max_wait_seconds=1e-4,
                               max_queue=256),
            faults=plan, retry=RetryPolicy(max_retries=0),
            breaker=BreakerPolicy(failure_threshold=2,
                                  cooldown_seconds=5e-3))
        trace = _requests(small_points,
                          [0.0, 1e-3, 20e-3, 40e-3, 60e-3])
        registry = MetricsRegistry()
        report = engine.replay(trace, metrics=registry)
        fr = report.fault_report
        assert fr.probe_successes == 1
        states = [(t.from_state, t.to_state)
                  for t in fr.breaker_transitions]
        assert ("open", "half_open") in states
        assert ("half_open", "closed") in states
        assert registry.value("faults.breaker.probe_successes",
                              default=0.0) == 1
        registry.reconcile(fr.metric_rows())

    def test_breaker_reports_deterministically(self, small_graph,
                                               small_points):
        plan = _plan(
            FaultEvent(kind=FAULT_KERNEL_TIMEOUT, at_seconds=0.0,
                       magnitude=1e-4),
            FaultEvent(kind=FAULT_KERNEL_TIMEOUT, at_seconds=0.0,
                       magnitude=1e-4))
        arrivals = [0.0, 1e-3, 2e-3, 20e-3]
        reports = []
        for _ in range(2):
            engine = self._engine(small_graph, small_points, plan,
                                  cooldown=5e-3)
            reports.append(engine.replay(_requests(small_points,
                                                   arrivals)))
        assert reports[0].fault_report.to_bytes() == \
            reports[1].fault_report.to_bytes()


class TestDeadlines:
    def test_expired_in_queue_is_dropped(self, small_graph, small_points):
        engine = ServeEngine(small_graph, small_points, PARAMS,
                             policy=POLICY,
                             default_deadline_seconds=1e-3)
        # Solo request: the batch flushes at arrival + max_wait (2 ms),
        # past the 1 ms deadline — dropped undispatched.
        report = engine.replay(_requests(small_points, [0.0]))
        outcome = report.outcomes[0]
        assert outcome.status is RequestStatus.TIMED_OUT
        assert "deadline expired" in outcome.detail
        assert report.n_timed_out == 1
        assert report.fault_report.deadline_dropped_requests == 1
        assert report.n_batches == 0  # nothing reached the device

    def test_per_request_deadline_overrides_default(self, small_graph,
                                                    small_points):
        engine = ServeEngine(small_graph, small_points, PARAMS,
                             policy=POLICY,
                             default_deadline_seconds=1e-3)
        generous = _requests(small_points, [0.0], deadline_seconds=1.0)
        report = engine.replay(generous)
        assert report.outcomes[0].status is RequestStatus.SERVED
        assert not report.outcomes[0].deadline_missed

    def test_served_late_is_marked_not_dropped(self, small_graph,
                                               small_points):
        # Deadline lands between the flush instant and completion: the
        # request is worth dispatching but finishes late.
        engine = ServeEngine(small_graph, small_points, PARAMS,
                             policy=POLICY,
                             default_deadline_seconds=2.001e-3)
        report = engine.replay(_requests(small_points, [0.0]))
        outcome = report.outcomes[0]
        assert outcome.status is RequestStatus.SERVED
        assert outcome.deadline_missed
        assert report.n_deadline_missed == 1


class TestGracefulDegradation:
    def test_pressure_degrades_and_marks_the_tier(self, small_graph,
                                                  small_points):
        governor = AdmissionGovernor(tiers=((16, 8),),
                                     pressure_thresholds=(0.5,))
        policy = BatchPolicy(max_batch=32, max_wait_seconds=2e-3,
                             max_queue=32)
        engine = ServeEngine(small_graph, small_points, PARAMS,
                             policy=policy, governor=governor)
        # A burst of 32 single-query requests fills the batch: pressure
        # at dispatch is 32/32 = 1.0 >= 0.5 -> tier 1.
        arrivals = [i * 1e-7 for i in range(32)]
        trace = _requests(small_points, arrivals)
        report = engine.replay(trace)

        served = [o for o in report.outcomes if o.served]
        assert len(served) == 32
        assert all(o.degraded_tier == 1 for o in served)
        assert all(o.degraded for o in served)
        assert report.n_degraded == 32
        assert report.per_tier_counts() == {1: 32}
        fr = report.fault_report
        assert fr.n_degraded_batches >= 1
        assert fr.degradations[0].reason == DEGRADE_PRESSURE

        # Degraded means the tier's params, applied honestly: the
        # answers equal a direct search with the shrunken pool.
        tier_params = governor.params_for(1, PARAMS)
        flat = np.concatenate([r.queries for r in trace], axis=0)
        direct = ganns_search(small_graph, small_points, flat,
                              tier_params)
        offset = 0
        for req in trace:
            outcome = report.outcomes[req.request_id]
            n = req.n_queries
            assert np.array_equal(outcome.ids,
                                  direct.ids[offset:offset + n])
            offset += n

    def test_quiet_traffic_stays_at_tier_zero(self, small_graph,
                                              small_points):
        governor = AdmissionGovernor(tiers=((16, 8),),
                                     pressure_thresholds=(0.5,))
        engine = ServeEngine(small_graph, small_points, PARAMS,
                             policy=POLICY, governor=governor)
        report = engine.replay(_requests(small_points, [0.0, 10e-3]))
        assert report.n_degraded == 0
        assert all(o.degraded_tier == 0 for o in report.outcomes)

    def test_breaker_impairment_degrades_with_reason(self, small_graph,
                                                     small_points):
        # Trip the breaker, then arrive after cooldown: the half-open
        # probe dispatch runs at the deepest tier (reason "breaker").
        plan = _plan(FaultEvent(kind=FAULT_KERNEL_TIMEOUT,
                                at_seconds=0.0, magnitude=1e-4))
        governor = AdmissionGovernor(tiers=((16, 8),),
                                     pressure_thresholds=(0.99,))
        engine = ServeEngine(
            small_graph, small_points, PARAMS,
            policy=BatchPolicy(max_batch=64, max_wait_seconds=1e-4,
                               max_queue=256),
            faults=plan, retry=RetryPolicy(max_retries=0),
            breaker=BreakerPolicy(failure_threshold=1,
                                  cooldown_seconds=1e-3),
            governor=governor)
        report = engine.replay(_requests(small_points, [0.0, 10e-3]))
        assert report.outcomes[0].status is RequestStatus.FAILED
        probe = report.outcomes[1]
        assert probe.status is RequestStatus.SERVED
        assert probe.degraded_tier == 1
        reasons = {d.reason for d in report.fault_report.degradations}
        assert reasons == {DEGRADE_BREAKER}

    def test_degraded_results_never_enter_the_cache(self, small_graph,
                                                    small_points):
        governor = AdmissionGovernor(tiers=((16, 8),),
                                     pressure_thresholds=(0.5,))
        policy = BatchPolicy(max_batch=32, max_wait_seconds=2e-3,
                             max_queue=32)
        cache = ResultCache(capacity=256)
        engine = ServeEngine(small_graph, small_points, PARAMS,
                             policy=policy, cache=cache,
                             governor=governor)
        burst = _requests(small_points, [i * 1e-7 for i in range(32)])
        quiet = [QueryRequest(request_id=32,
                              queries=burst[0].queries.copy(),
                              arrival_seconds=1.0)]
        report = engine.replay(burst + quiet)
        assert report.outcomes[0].degraded_tier == 1
        late = report.outcomes[32]
        # The burst was degraded, so nothing was cached: the repeat
        # must be recomputed at full quality, not served from cache.
        assert late.status is RequestStatus.SERVED
        assert late.degraded_tier == 0
        assert len(cache) > 0  # the tier-0 answer was cached


class TestGoldenDeterminism:
    def _fresh_engine(self, graph, points, plan):
        return ServeEngine(
            graph, points, PARAMS,
            policy=BatchPolicy(max_batch=64, max_wait_seconds=5e-4,
                               max_queue=512),
            cache=ResultCache(capacity=512),
            faults=plan,
            governor=AdmissionGovernor(tiers=((16, 8),),
                                       pressure_thresholds=(0.5,)),
            default_deadline_seconds=20e-3)

    def test_same_trace_same_plan_byte_identical_reports(
            self, small_graph, small_points, small_queries):
        plan = named_fault_plan("aggressive", horizon_seconds=0.2,
                                seed=13)
        assert len(plan) > 0
        digests, encodings = [], []
        for _ in range(2):
            engine = self._fresh_engine(small_graph, small_points, plan)
            trace = synthetic_trace(small_queries, 800,
                                    mean_qps=80_000.0, seed=21)
            report = engine.replay(trace)
            assert report.fault_report.n_injected > 0
            encodings.append(report.to_bytes())
            digests.append(report.digest())
        assert encodings[0] == encodings[1]
        assert digests[0] == digests[1]

    def test_plan_json_round_trip_preserves_the_digest(
            self, small_graph, small_points, small_queries):
        plan = named_fault_plan("mild", horizon_seconds=0.2, seed=5)
        restored = FaultPlan.from_json(plan.to_json())
        digests = []
        for p in (plan, restored):
            engine = self._fresh_engine(small_graph, small_points, p)
            trace = synthetic_trace(small_queries, 400,
                                    mean_qps=80_000.0, seed=8)
            digests.append(engine.replay(trace).digest())
        assert digests[0] == digests[1]

    def test_different_seed_changes_the_chaos(self, small_graph,
                                              small_points,
                                              small_queries):
        digests = []
        for seed in (1, 2):
            plan = named_fault_plan("aggressive", horizon_seconds=0.2,
                                    seed=seed)
            engine = self._fresh_engine(small_graph, small_points, plan)
            trace = synthetic_trace(small_queries, 400,
                                    mean_qps=80_000.0, seed=8)
            digests.append(engine.replay(trace).digest())
        assert digests[0] != digests[1]


class TestLegacyBehaviorPreserved:
    def test_no_fault_machinery_no_fault_report(self, small_graph,
                                                small_points):
        engine = ServeEngine(small_graph, small_points, PARAMS,
                             policy=POLICY)
        report = engine.replay(_requests(small_points, [0.0]))
        assert report.fault_report is None
        assert "FaultReport" not in report.summary()

    def test_chaos_summary_mentions_the_fault_lines(self, small_graph,
                                                    small_points):
        plan = _plan(FaultEvent(kind=FAULT_KERNEL_STALL, at_seconds=0.0,
                                magnitude=4.0))
        engine = ServeEngine(small_graph, small_points, PARAMS,
                             policy=POLICY, faults=plan)
        report = engine.replay(_requests(small_points, [0.0]))
        text = report.summary()
        assert "FaultReport" in text
        assert "breaker" in text
        assert "degradation" in text
