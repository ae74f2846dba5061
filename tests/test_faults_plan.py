"""Tests for fault plans: events, serialization, generators, injection."""

import numpy as np
import pytest

from repro.core.pipeline import BatchTiming
from repro.errors import (
    ConfigurationError,
    DeviceMemoryError,
    FaultError,
    KernelTimeoutError,
    MemoryFaultError,
    ProcessCrashError,
    ReproError,
)
from repro.faults import (
    CrashInjector,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    named_fault_plan,
)
from repro.faults.plan import (
    ALL_FAULT_KINDS,
    CRASH_PHASES,
    FAULT_CRASH,
    FAULT_ECC_BITFLIP,
    FAULT_KERNEL_STALL,
    FAULT_KERNEL_TIMEOUT,
    FAULT_MEM_EXHAUSTION,
    FAULT_NETWORK_PARTITION,
    FAULT_WORKER_LOSS,
    fault_plan_names,
)


class TestFaultEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultEvent(kind="meteor_strike", at_seconds=0.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ConfigurationError, match="at_seconds"):
            FaultEvent(kind=FAULT_KERNEL_STALL, at_seconds=-1.0)

    def test_rejects_non_positive_magnitude(self):
        with pytest.raises(ConfigurationError, match="magnitude"):
            FaultEvent(kind=FAULT_KERNEL_STALL, at_seconds=0.0,
                       magnitude=0.0)

    def test_dict_round_trip(self):
        event = FaultEvent(kind=FAULT_WORKER_LOSS, at_seconds=1.5,
                           magnitude=2.0, target=3)
        assert FaultEvent.from_dict(event.to_dict()) == event

    def test_fault_errors_are_repro_errors(self):
        for exc in (FaultError, KernelTimeoutError, MemoryFaultError,
                    DeviceMemoryError):
            assert issubclass(exc, ReproError)


class TestFaultPlan:
    def test_events_sorted_regardless_of_construction_order(self):
        a = FaultEvent(kind=FAULT_KERNEL_STALL, at_seconds=2.0)
        b = FaultEvent(kind=FAULT_KERNEL_TIMEOUT, at_seconds=1.0)
        assert FaultPlan([a, b]) == FaultPlan([b, a])
        assert FaultPlan([a, b]).events[0] is b

    def test_kernel_cluster_mutation_split_covers_all_kinds(self):
        events = [FaultEvent(kind=k, at_seconds=float(i))
                  for i, k in enumerate(ALL_FAULT_KINDS)]
        plan = FaultPlan(events)
        split = (plan.kernel_events() + plan.cluster_events()
                 + plan.mutation_events())
        assert sorted(e.kind for e in split) == sorted(ALL_FAULT_KINDS)

    def test_json_round_trip(self):
        plan = FaultPlan([
            FaultEvent(kind=FAULT_ECC_BITFLIP, at_seconds=0.25),
            FaultEvent(kind=FAULT_NETWORK_PARTITION, at_seconds=0.5,
                       magnitude=0.1),
        ], seed=42)
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan
        assert restored.to_json() == plan.to_json()

    def test_rng_streams_are_label_independent(self):
        plan = FaultPlan(seed=7)
        a = plan.rng("jitter").random(4)
        b = plan.rng("jitter").random(4)
        c = plan.rng("other").random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_different_seeds_different_streams(self):
        assert not np.array_equal(FaultPlan(seed=1).rng().random(4),
                                  FaultPlan(seed=2).rng().random(4))


class TestPoissonGenerator:
    def test_deterministic_for_equal_arguments(self):
        kwargs = dict(rates={FAULT_KERNEL_STALL: 100.0,
                             FAULT_ECC_BITFLIP: 50.0},
                      horizon_seconds=0.5, seed=9)
        assert FaultPlan.poisson(**kwargs) == FaultPlan.poisson(**kwargs)

    def test_adding_a_kind_never_perturbs_the_others(self):
        base = FaultPlan.poisson({FAULT_KERNEL_STALL: 100.0},
                                 horizon_seconds=0.5, seed=9)
        both = FaultPlan.poisson({FAULT_KERNEL_STALL: 100.0,
                                  FAULT_MEM_EXHAUSTION: 60.0},
                                 horizon_seconds=0.5, seed=9)
        stalls = [e for e in both.events if e.kind == FAULT_KERNEL_STALL]
        assert tuple(stalls) == base.events

    def test_events_within_horizon_and_rate_scales(self):
        plan = FaultPlan.poisson({FAULT_KERNEL_TIMEOUT: 200.0},
                                 horizon_seconds=1.0, seed=0)
        assert all(0 <= e.at_seconds < 1.0 for e in plan.events)
        assert 100 < len(plan) < 320  # ~Poisson(200)

    def test_worker_loss_targets_valid_workers(self):
        plan = FaultPlan.poisson({FAULT_WORKER_LOSS: 40.0},
                                 horizon_seconds=1.0, seed=3, n_workers=8)
        assert len(plan) > 0
        assert all(0 <= e.target < 8 for e in plan.events)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError, match="horizon"):
            FaultPlan.poisson({}, horizon_seconds=0.0)
        with pytest.raises(ConfigurationError, match="rate"):
            FaultPlan.poisson({FAULT_KERNEL_STALL: -1.0},
                              horizon_seconds=1.0)
        # An unknown kind is refused up front, as ``FaultEvent`` refuses
        # it — even at rate 0, which draws no event.
        for rate in (1.0, 0.0):
            with pytest.raises(ConfigurationError,
                               match="unknown fault kind"):
                FaultPlan.poisson({"bogus": rate}, horizon_seconds=10.0)


class TestNamedPlans:
    def test_names_cover_the_recipes(self):
        names = fault_plan_names()
        for expected in ("none", "mild", "aggressive", "memory",
                         "blackout"):
            assert expected in names

    def test_none_recipe_is_empty(self):
        assert len(named_fault_plan("none", horizon_seconds=1.0)) == 0

    def test_aggressive_schedules_every_kernel_kind(self):
        plan = named_fault_plan("aggressive", horizon_seconds=1.0, seed=0)
        kinds = {e.kind for e in plan.events}
        assert kinds == {FAULT_KERNEL_TIMEOUT, FAULT_KERNEL_STALL,
                         FAULT_ECC_BITFLIP, FAULT_MEM_EXHAUSTION}

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault plan"):
            named_fault_plan("catastrophic", horizon_seconds=1.0)


class TestCrashEvents:
    def test_round_trip_preserves_phase(self):
        event = FaultEvent(kind=FAULT_CRASH, at_seconds=2.0,
                           phase="compaction.rewrite")
        restored = FaultEvent.from_dict(event.to_dict())
        assert restored == event
        assert restored.phase == "compaction.rewrite"

    def test_phaseless_crash_round_trips_without_phase_key(self):
        event = FaultEvent(kind=FAULT_CRASH, at_seconds=1.0)
        assert "phase" not in event.to_dict()
        assert FaultEvent.from_dict(event.to_dict()) == event

    def test_phase_must_be_a_known_crash_point(self):
        with pytest.raises(ConfigurationError, match="phase"):
            FaultEvent(kind=FAULT_CRASH, at_seconds=0.0,
                       phase="compaction.meteor")

    def test_phase_rejected_on_non_crash_kinds(self):
        with pytest.raises(ConfigurationError, match="phase"):
            FaultEvent(kind=FAULT_KERNEL_STALL, at_seconds=0.0,
                       phase=CRASH_PHASES[0])

    def test_plan_json_round_trip_with_crashes(self):
        plan = FaultPlan([
            FaultEvent(kind=FAULT_CRASH, at_seconds=0.5,
                       phase="checkpoint.write"),
            FaultEvent(kind=FAULT_KERNEL_STALL, at_seconds=0.25),
        ], seed=11)
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan
        assert restored.mutation_events()[0].phase == "checkpoint.write"

    def test_compaction_crash_recipe_is_seed_deterministic(self):
        a = named_fault_plan("compaction-crash", horizon_seconds=30.0,
                             seed=5)
        b = named_fault_plan("compaction-crash", horizon_seconds=30.0,
                             seed=5)
        c = named_fault_plan("compaction-crash", horizon_seconds=30.0,
                             seed=6)
        assert a == b
        assert a != c
        assert all(e.kind == FAULT_CRASH for e in a.events)
        assert all(e.phase in CRASH_PHASES for e in a.events)

    def test_injector_matches_phase_and_consumes_once(self):
        plan = FaultPlan([FaultEvent(kind=FAULT_CRASH, at_seconds=1.0,
                                     phase="compaction.repair")])
        injector = CrashInjector(plan)
        assert injector.poll("compaction.repair", 0.5) is None
        assert injector.poll("compaction.scan", 2.0) is None
        event = injector.poll("compaction.repair", 2.0)
        assert event is not None
        assert injector.poll("compaction.repair", 3.0) is None

    def test_phaseless_event_fires_at_any_boundary(self):
        plan = FaultPlan([FaultEvent(kind=FAULT_CRASH, at_seconds=0.0)])
        injector = CrashInjector(plan)
        with pytest.raises(ProcessCrashError) as excinfo:
            injector.check("checkpoint.serialize", 1.0)
        assert excinfo.value.phase == "checkpoint.serialize"

    def test_check_publishes_delivery_counter(self):
        from repro.observability.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        plan = FaultPlan([FaultEvent(kind=FAULT_CRASH, at_seconds=0.0,
                                     phase="compaction.scan")])
        injector = CrashInjector(plan)
        with pytest.raises(ProcessCrashError):
            injector.check("compaction.scan", 1.0, metrics=metrics)
        assert metrics.value("faults.delivered.crash") == 1


TIMING = BatchTiming(n_queries=8, upload_seconds=1e-4,
                     compute_seconds=2e-4, download_seconds=5e-5)


class TestFaultInjector:
    def test_poll_respects_arming_times(self):
        plan = FaultPlan([FaultEvent(kind=FAULT_KERNEL_STALL,
                                     at_seconds=1.0)])
        injector = FaultInjector(plan)
        assert injector.poll(0.5) is None
        event = injector.poll(1.5)
        assert event is not None and event.kind == FAULT_KERNEL_STALL
        assert injector.poll(2.0) is None  # consumed exactly once

    def test_stall_stretches_compute_only(self):
        injector = FaultInjector(FaultPlan())
        event = FaultEvent(kind=FAULT_KERNEL_STALL, at_seconds=0.0,
                           magnitude=3.0)
        stretched = injector.apply(event, TIMING)
        assert stretched.compute_seconds == \
            pytest.approx(3.0 * TIMING.compute_seconds)
        assert stretched.upload_seconds == TIMING.upload_seconds
        assert stretched.download_seconds == TIMING.download_seconds

    def test_timeout_charges_watchdog_seconds(self):
        injector = FaultInjector(FaultPlan())
        event = FaultEvent(kind=FAULT_KERNEL_TIMEOUT, at_seconds=0.0,
                           magnitude=5e-3)
        with pytest.raises(KernelTimeoutError) as excinfo:
            injector.apply(event, TIMING)
        assert excinfo.value.compute_seconds == pytest.approx(5e-3)
        assert excinfo.value.upload_seconds == \
            pytest.approx(TIMING.upload_seconds)

    def test_ecc_charges_full_compute(self):
        injector = FaultInjector(FaultPlan())
        event = FaultEvent(kind=FAULT_ECC_BITFLIP, at_seconds=0.0)
        with pytest.raises(MemoryFaultError) as excinfo:
            injector.apply(event, TIMING)
        assert excinfo.value.compute_seconds == \
            pytest.approx(TIMING.compute_seconds)

    def test_oom_fails_before_compute(self):
        injector = FaultInjector(FaultPlan())
        event = FaultEvent(kind=FAULT_MEM_EXHAUSTION, at_seconds=0.0)
        with pytest.raises(DeviceMemoryError) as excinfo:
            injector.apply(event, TIMING)
        assert excinfo.value.compute_seconds == 0.0

    def test_hook_collects_survivable_faults_in_sink(self):
        plan = FaultPlan([FaultEvent(kind=FAULT_KERNEL_STALL,
                                     at_seconds=0.0, magnitude=2.0)])
        injector = FaultInjector(plan)
        sink = []
        hook = injector.hook(1.0, sink=sink)
        out = hook(0, TIMING)
        assert out.compute_seconds == \
            pytest.approx(2.0 * TIMING.compute_seconds)
        assert len(sink) == 1 and sink[0].kind == FAULT_KERNEL_STALL
