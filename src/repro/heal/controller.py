"""The repair controller: detect → rebuild → catch up → verify → admit.

The controller turns the router's loss schedule into healed down
windows, entirely on the simulated clock:

1. **Detect** — a death becomes visible one heartbeat after it happens
   (the same window during which the router still bounces queries off
   the corpse).
2. **Rebuild** — the owning shard's latest snapshot ships over the
   one rate-limited repair lane of the network model (repairs queue
   FIFO in death order) and is deserialized at a per-byte cycle charge
   on the device.
3. **Catch up** — the WAL delta between snapshot and current shard
   state replays (cost supplied by the repair source, computed through
   :mod:`repro.mutable.recovery` for store-backed shards).
4. **Verify** — one anti-entropy digest round trip of
   :data:`repro.heal.policy.DIGEST_BYTES` is charged, and the attempt's
   verdict is drawn from the fault plan's ``"heal:corruption"`` stream
   at the policy's ``corruption_probability`` (no digest is computed).
   A corrupted attempt is quarantined: the replica is *never* admitted
   from it; the controller re-rebuilds from scratch, up to the
   policy's attempt budget, and abandons the slot (dead forever) if
   the budget runs out.
5. **Admit** — on a clean attempt the controller installs the
   revival instant into the router; from that moment the slot serves
   again and a shard that had degraded to ``PARTIAL`` is healthy.

Everything is a pure function of (loss schedule, policy, sources,
plan seed): repeated calls produce identical
:class:`RepairRecord` lists, which is what lets the cluster report
reconcile ``heal.*`` metrics with zero drift and the soak gate demand
byte-identical reports across reruns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import HealError
from repro.faults.plan import FaultPlan
from repro.gpusim.device import QUADRO_P5000
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.memory import NetworkModel
from repro.heal.policy import (DESERIALIZE_CYCLES_PER_BYTE,
                               DESERIALIZE_THREADS, DIGEST_BYTES,
                               REPAIR_BANDWIDTH_FRACTION, HealPolicy)

#: Terminal states of one repair.
REPAIR_HEALED = "healed"
REPAIR_ABANDONED = "abandoned"


@dataclass(frozen=True)
class RepairAttempt:
    """One rebuild attempt inside a repair.

    Attributes:
        start_seconds: When this attempt's transfer began.
        transfer_seconds: Rate-limited snapshot transfer time.
        deserialize_seconds: Device time decoding the snapshot.
        catchup_seconds: WAL-delta replay time.
        verify_seconds: Anti-entropy digest exchange round trip.
        digest_matched: Whether the attempt passed verification (its
            ``"heal:corruption"`` draw came up clean).  ``False`` means
            the attempt was quarantined — its state was discarded,
            never admitted.
    """

    start_seconds: float
    transfer_seconds: float
    deserialize_seconds: float
    catchup_seconds: float
    verify_seconds: float
    digest_matched: bool

    @property
    def end_seconds(self) -> float:
        """When the attempt's verdict (admit or quarantine) was known."""
        return (self.start_seconds + self.transfer_seconds
                + self.deserialize_seconds + self.catchup_seconds
                + self.verify_seconds)


@dataclass(frozen=True)
class RepairRecord:
    """The full lifecycle of healing one replica death.

    Attributes:
        slot: Flat shard-replica slot id.
        shard: Owning shard.
        replica: Replica index within the shard.
        death_seconds: When the replica died.
        detect_seconds: When the heartbeat exposed the death.
        start_seconds: When the repair lane began the first attempt
            (>= ``detect_seconds``; later when the lane was busy).
        admitted_seconds: When the verified replica re-entered routing
            (``inf`` for an abandoned repair).
        snapshot_bytes: Snapshot size of one attempt's transfer.
        wal_records: WAL-delta records replayed per attempt.
        attempts: Every rebuild attempt, in order; all but the last
            (for a healed repair) were quarantined.
        status: ``"healed"`` or ``"abandoned"``.
    """

    slot: int
    shard: int
    replica: int
    death_seconds: float
    detect_seconds: float
    start_seconds: float
    admitted_seconds: float
    snapshot_bytes: int
    wal_records: int
    attempts: Tuple[RepairAttempt, ...]
    status: str

    @property
    def healed(self) -> bool:
        """True when the replica was re-admitted to routing."""
        return self.status == REPAIR_HEALED

    @property
    def mttr_seconds(self) -> float:
        """Death to re-admission (``inf`` when abandoned)."""
        return self.admitted_seconds - self.death_seconds

    @property
    def n_attempts(self) -> int:
        """Rebuild attempts consumed."""
        return len(self.attempts)

    @property
    def n_quarantined(self) -> int:
        """Attempts whose digest mismatched (discarded, never served)."""
        return sum(1 for a in self.attempts if not a.digest_matched)

    @property
    def bytes_transferred(self) -> int:
        """Snapshot bytes shipped across all attempts."""
        return self.snapshot_bytes * self.n_attempts

    @property
    def wal_records_replayed(self) -> int:
        """WAL-delta records replayed across all attempts."""
        return self.wal_records * self.n_attempts

    @property
    def transfer_seconds(self) -> float:
        """Total transfer time across attempts."""
        return sum(a.transfer_seconds for a in self.attempts)

    @property
    def catchup_seconds(self) -> float:
        """Total WAL-delta replay time across attempts."""
        return sum(a.catchup_seconds for a in self.attempts)

    @property
    def verify_seconds(self) -> float:
        """Total anti-entropy exchange time across attempts."""
        return sum(a.verify_seconds for a in self.attempts)

    def to_line(self) -> str:
        """Canonical one-line encoding for report bytes."""
        flags = "".join("1" if a.digest_matched else "0"
                        for a in self.attempts)
        return (f"repair s{self.shard}r{self.replica} {self.status} "
                f"death={self.death_seconds!r} "
                f"detect={self.detect_seconds!r} "
                f"start={self.start_seconds!r} "
                f"admitted={self.admitted_seconds!r} "
                f"bytes={self.bytes_transferred} "
                f"wal={self.wal_records_replayed} "
                f"attempts={flags}")


class RepairController:
    """Deterministic replica-rebuild scheduler on the simulated clock.

    The repair lane uses :data:`repro.heal.policy.REPAIR_BANDWIDTH_FRACTION`
    of the cluster interconnect's bandwidth (the default
    :class:`~repro.gpusim.memory.NetworkModel`, as the cluster's).

    Args:
        policy: Timing and safety knobs.
    """

    def __init__(self, policy: HealPolicy):
        self.policy = policy
        #: Cluster interconnect the repair lane rides on.
        self.network = NetworkModel()
        self._launch = KernelLaunch(QUADRO_P5000, DESERIALIZE_THREADS)

    # ------------------------------------------------------------------
    # Cost components
    # ------------------------------------------------------------------

    def transfer_seconds(self, n_bytes: float) -> float:
        """Rate-limited snapshot transfer (repair lane bandwidth)."""
        return (self.network.latency_ms * 1e-3
                + n_bytes / (self.network.bandwidth_gbps * 1e9
                             * REPAIR_BANDWIDTH_FRACTION))

    def deserialize_seconds(self, n_bytes: float) -> float:
        """Device time decoding a snapshot into serving form."""
        return self._launch.cycles_to_seconds(
            n_bytes * DESERIALIZE_CYCLES_PER_BYTE)

    def verify_seconds(self) -> float:
        """Anti-entropy digest exchange: one full-bandwidth round trip."""
        return 2.0 * self.network.transfer_seconds(DIGEST_BYTES)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def plan_repairs(self, router, sources: Sequence,
                     plan: Optional[FaultPlan] = None
                     ) -> List[RepairRecord]:
        """Heal the router's loss schedule and install revival times.

        Args:
            router: The :class:`repro.cluster.router.ReplicaRouter`
                whose ``loss_schedule`` drives the repairs; healed
                ``[death, revive)`` windows are installed back into it.
            sources: One repair source per shard (``len == n_shards``).
            plan: The fault plan whose seeded RNG (stream
                ``"heal:corruption"``) decides per-attempt transfer
                corruption; ``None`` disables corruption regardless of
                the policy knob.

        Returns:
            One :class:`RepairRecord` per *effective* death (a loss
            event hitting an already-down slot is a no-op), ordered by
            (death time, event order).
        """
        if len(sources) != router.n_shards:
            raise HealError(
                f"need one repair source per shard "
                f"({router.n_shards}), got {len(sources)}"
            )
        rng = (plan.rng("heal:corruption")
               if plan is not None
               and self.policy.corruption_probability > 0 else None)
        ordered = sorted(
            (at, index, slot)
            for index, (at, slot) in enumerate(router.loss_schedule))
        windows: Dict[int, List[Tuple[float, float]]] = {}
        lane_free = 0.0
        records: List[RepairRecord] = []
        for death, _, slot in ordered:
            current = windows.get(slot)
            if current and current[-1][0] <= death < current[-1][1]:
                # The loss event hit a slot that is already down.
                continue
            shard, replica = divmod(slot, router.n_replicas)
            source = sources[shard]
            detect = death + router.policy.heartbeat_seconds
            start = max(detect, lane_free)
            transfer = self.transfer_seconds(source.snapshot_bytes)
            deserialize = self.deserialize_seconds(
                source.snapshot_bytes)
            verify = self.verify_seconds()
            attempts: List[RepairAttempt] = []
            now = start
            admitted = math.inf
            for _ in range(self.policy.max_rebuild_attempts):
                corrupted = (rng is not None and float(rng.random())
                             < self.policy.corruption_probability)
                attempt = RepairAttempt(
                    start_seconds=now,
                    transfer_seconds=transfer,
                    deserialize_seconds=deserialize,
                    catchup_seconds=source.catchup_seconds,
                    verify_seconds=verify,
                    digest_matched=not corrupted)
                attempts.append(attempt)
                now = attempt.end_seconds
                if not corrupted:
                    admitted = now
                    break
            lane_free = now
            status = (REPAIR_HEALED if math.isfinite(admitted)
                      else REPAIR_ABANDONED)
            windows.setdefault(slot, []).append((death, admitted))
            records.append(RepairRecord(
                slot=slot, shard=shard, replica=replica,
                death_seconds=death, detect_seconds=detect,
                start_seconds=start, admitted_seconds=admitted,
                snapshot_bytes=int(source.snapshot_bytes),
                wal_records=int(source.wal_records),
                attempts=tuple(attempts), status=status))
        for slot, slot_windows in windows.items():
            router.install_downtime(slot, slot_windows)
        return records
