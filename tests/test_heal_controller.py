"""Unit battery for the repair controller, sources, and down windows.

The self-healing layer's safety argument lives here: repairs are a
pure function of (loss schedule, policy, sources, plan seed), a
corrupted rebuild is quarantined and never admitted, the one repair
lane serializes FIFO so repair traffic is rate-limited, and the
router's ``[death, revive)`` windows reproduce the pre-heal
dead-forever router exactly until the controller installs bounded
windows.
"""

import math

import numpy as np
import pytest

from repro.cluster.router import ReplicaRouter, RouterPolicy
from repro.core.backend import get_backend
from repro.datasets.synthetic import gaussian_mixture
from repro.errors import ClusterError, HealError
from repro.faults.plan import FAULT_WORKER_LOSS, FaultEvent, FaultPlan
from repro.heal import (
    REPAIR_ABANDONED,
    REPAIR_HEALED,
    HealPolicy,
    RepairController,
    StaticShardSource,
    StoreShardSource,
    shard_payload_bytes,
)
from repro.heal.policy import REPAIR_BANDWIDTH_FRACTION


def _shard(n_points=60, seed=11):
    points = gaussian_mixture(n_points, 8, n_clusters=3,
                              cluster_std=0.4, seed=seed)
    [graph] = get_backend("nsw").serving_graphs((points,), d_min=4,
                                                d_max=8, metric="euclidean")
    return graph, points


def _loss_plan(losses, seed=0):
    """A plan with targeted worker-loss events at given (t, slot)."""
    events = [FaultEvent(kind=FAULT_WORKER_LOSS, at_seconds=t,
                         magnitude=1.0, target=slot)
              for t, slot in losses]
    return FaultPlan(events=events, seed=seed)


class TestHealPolicy:
    def test_defaults_validate(self):
        HealPolicy()

    @pytest.mark.parametrize("kwargs", [
        {"max_rebuild_attempts": True},
        {"corruption_probability": math.nan},
        {"max_rebuild_attempts": 0},
        {"corruption_probability": 1.0},
        {"corruption_probability": -0.1},
        {"mttr_bound_seconds": 0.0},
        {"mttr_bound_seconds": math.inf},
        {"max_rebuild_attempts": 1.5},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(HealError):
            HealPolicy(**kwargs)


class TestSources:
    def test_static_source_ships_its_payload(self):
        graph, points = _shard()
        source = StaticShardSource(graph, points)
        assert source.snapshot_bytes == shard_payload_bytes(graph,
                                                            points)
        assert source.catchup_seconds == 0.0
        assert source.wal_records == 0

    def test_static_source_rejects_negative_delta(self):
        graph, points = _shard()
        with pytest.raises(HealError):
            StaticShardSource(graph, points, catchup_seconds=-1.0)
        with pytest.raises(HealError):
            StaticShardSource(graph, points, wal_records=-1)

    @pytest.mark.parametrize("kwargs,match", [
        ({"catchup_seconds": math.nan}, "catchup_seconds must be a finite"),
        ({"catchup_seconds": math.inf}, "catchup_seconds must be a finite"),
        ({"wal_records": 2.5}, "wal_records must be an integer"),
        ({"wal_records": True}, "wal_records must be an integer"),
    ])
    def test_static_source_rejects_a_bad_number(self, kwargs, match):
        """NaN / inf seconds were stored as given, ``2.5`` records became
        2 and ``True`` became 1."""
        graph, points = _shard()
        with pytest.raises(HealError, match=match):
            StaticShardSource(graph, points, **kwargs)

    def test_static_source_keeps_only_its_answers(self):
        graph, points = _shard()
        source = StaticShardSource(graph, points, catchup_seconds=2,
                                   wal_records=np.int64(3))
        assert vars(source) == {
            "snapshot_bytes": shard_payload_bytes(graph, points),
            "catchup_seconds": 2.0, "wal_records": 3}

    def test_store_source_matches_recovery(self):
        from repro.mutable import run_mutation_sim
        from repro.mutable.recovery import recover

        report = run_mutation_sim(n_points=120, n_dims=8, n_ops=12,
                                  seed=3, checkpoint_every=5)
        source = StoreShardSource(report.store)
        recovered = recover(report.store)
        assert source.recovered.digest() == recovered.digest()
        assert source.wal_records == len(
            report.store.surviving_records())
        assert source.snapshot_bytes > 0
        assert source.catchup_seconds >= 0.0
        # Catch-up is the mutation time past the checkpoint — it can
        # never exceed the full recovered mutation time.
        assert source.catchup_seconds <= recovered.mutation_seconds


class TestRouterWindows:
    def test_default_windows_are_dead_forever(self):
        plan = _loss_plan([(0.002, 1)])
        router = ReplicaRouter(2, 2, plan=plan)
        assert router.down_windows[1] == [(0.002, math.inf)]
        assert router.is_alive(0, 1, 0.001)
        assert not router.is_alive(0, 1, 0.002)
        assert not router.is_alive(0, 1, 1e9)

    def test_bounded_window_revives_the_slot(self):
        plan = _loss_plan([(0.002, 1)])
        router = ReplicaRouter(2, 2, plan=plan)
        router.install_downtime(1, [(0.002, 0.004)])
        assert not router.is_alive(0, 1, 0.003)
        assert router.is_alive(0, 1, 0.004)

    def test_install_downtime_validates(self):
        router = ReplicaRouter(2, 2)
        with pytest.raises(ClusterError):
            router.install_downtime(99, [(0.0, 1.0)])
        with pytest.raises(ClusterError):
            router.install_downtime(1, [(1.0, 1.0)])
        with pytest.raises(ClusterError):
            router.install_downtime(1, [(0.0, 2.0), (1.0, 3.0)])

    def test_empty_windows_clear_the_slot(self):
        plan = _loss_plan([(0.002, 1)])
        router = ReplicaRouter(2, 2, plan=plan)
        router.install_downtime(1, [])
        assert router.is_alive(0, 1, 1e9)


class TestRepairController:
    def test_transfer_is_rate_limited(self):
        controller = RepairController(HealPolicy())
        network = controller.network
        n_bytes = 1_000_000
        assert controller.transfer_seconds(n_bytes) == (
            network.latency_ms * 1e-3 + n_bytes
            / (network.bandwidth_gbps * 1e9 * REPAIR_BANDWIDTH_FRACTION))
        # The repair lane is slower than the full-bandwidth interconnect.
        assert controller.transfer_seconds(n_bytes) > \
            network.transfer_seconds(n_bytes)

    def test_requires_one_source_per_shard(self):
        graph, points = _shard()
        router = ReplicaRouter(2, 2)
        controller = RepairController(HealPolicy())
        with pytest.raises(HealError):
            controller.plan_repairs(
                router, [StaticShardSource(graph, points)])

    def test_clean_repair_heals_and_installs_window(self):
        graph, points = _shard()
        plan = _loss_plan([(0.002, 1)])
        router = ReplicaRouter(2, 1, plan=plan)
        controller = RepairController(HealPolicy())
        records = controller.plan_repairs(
            router, [StaticShardSource(graph, points)] * 2, plan=plan)
        assert len(records) == 1
        rec = records[0]
        assert rec.status == REPAIR_HEALED
        assert rec.shard == 1 and rec.replica == 0
        assert rec.detect_seconds == \
            0.002 + router.policy.heartbeat_seconds
        assert rec.start_seconds >= rec.detect_seconds
        assert rec.admitted_seconds == rec.attempts[-1].end_seconds
        assert rec.mttr_seconds > 0
        # The router now revives the slot at the admitted instant.
        assert not router.is_alive(1, 0, rec.admitted_seconds - 1e-9)
        assert router.is_alive(1, 0, rec.admitted_seconds)

    def test_duplicate_loss_in_window_is_noop(self):
        graph, points = _shard()
        plan = _loss_plan([(0.002, 0), (0.0021, 0)])
        router = ReplicaRouter(1, 2, plan=plan)
        controller = RepairController(HealPolicy())
        records = controller.plan_repairs(
            router, [StaticShardSource(graph, points)], plan=plan)
        assert len(records) == 1

    def test_loss_after_revival_schedules_second_repair(self):
        graph, points = _shard()
        plan = _loss_plan([(0.002, 0), (1.0, 0)])
        router = ReplicaRouter(1, 2, plan=plan)
        controller = RepairController(HealPolicy())
        records = controller.plan_repairs(
            router, [StaticShardSource(graph, points)], plan=plan)
        assert len(records) == 2
        assert all(r.status == REPAIR_HEALED for r in records)
        windows = router.down_windows[0]
        assert len(windows) == 2
        assert windows[0][1] <= windows[1][0]

    def test_single_lane_serializes_repairs_fifo(self):
        graph, points = _shard()
        plan = _loss_plan([(0.002, 0), (0.0021, 1)])
        router = ReplicaRouter(2, 1, plan=plan)
        controller = RepairController(HealPolicy())
        records = controller.plan_repairs(
            router, [StaticShardSource(graph, points)] * 2, plan=plan)
        first, second = records
        assert second.start_seconds >= first.attempts[-1].end_seconds

    def test_planning_is_deterministic(self):
        graph, points = _shard()
        plan = _loss_plan([(0.002, 0), (0.003, 1), (0.004, 2)], seed=5)
        policy = HealPolicy(corruption_probability=0.5,
                            max_rebuild_attempts=3)
        lines = []
        for _ in range(2):
            router = ReplicaRouter(3, 1, plan=plan)
            controller = RepairController(policy)
            records = controller.plan_repairs(
                router, [StaticShardSource(graph, points)] * 3,
                plan=plan)
            lines.append([r.to_line() for r in records])
        assert lines[0] == lines[1]

    def test_corruption_quarantines_before_admission(self):
        """Under heavy corruption every record stays safe: mismatched
        attempts are never the admitted one."""
        graph, points = _shard()
        plan = _loss_plan([(0.002 + 0.001 * i, i % 4)
                           for i in range(8)], seed=9)
        router = ReplicaRouter(4, 1, plan=plan)
        controller = RepairController(
            HealPolicy(corruption_probability=0.7,
                       max_rebuild_attempts=3))
        records = controller.plan_repairs(
            router, [StaticShardSource(graph, points)] * 4, plan=plan)
        assert any(r.n_quarantined for r in records), (
            "corruption at 0.7 over 8 repairs produced no quarantine "
            "— the corruption stream is not wired")
        for rec in records:
            for attempt in rec.attempts[:-1]:
                assert not attempt.digest_matched
            if rec.status == REPAIR_HEALED:
                assert rec.attempts[-1].digest_matched
                assert rec.admitted_seconds == \
                    rec.attempts[-1].end_seconds
            else:
                assert rec.status == REPAIR_ABANDONED
                assert not rec.attempts[-1].digest_matched
                assert rec.n_attempts == 3
                assert math.isinf(rec.admitted_seconds)
                assert math.isinf(rec.mttr_seconds)

    def test_abandoned_slot_stays_dead_forever(self):
        graph, points = _shard()
        plan = _loss_plan([(0.002, 0)], seed=2)
        router = ReplicaRouter(1, 2, plan=plan)
        controller = RepairController(
            HealPolicy(corruption_probability=0.99,
                       max_rebuild_attempts=1))
        records = controller.plan_repairs(
            router, [StaticShardSource(graph, points)], plan=plan)
        rec = records[0]
        if rec.status == REPAIR_ABANDONED:
            assert not router.is_alive(0, 0, 1e9)
        else:
            assert router.is_alive(0, 0, rec.admitted_seconds)

    def test_no_corruption_skips_the_rng_stream(self):
        """With the knob at zero the corruption stream is never drawn,
        so arming heal cannot re-time other plan randomness."""
        graph, points = _shard()
        plan = _loss_plan([(0.002, 0)], seed=4)
        router = ReplicaRouter(1, 2, plan=plan)
        controller = RepairController(
            HealPolicy(corruption_probability=0.0))
        records = controller.plan_repairs(
            router, [StaticShardSource(graph, points)], plan=plan)
        assert records[0].status == REPAIR_HEALED
        assert records[0].n_attempts == 1
