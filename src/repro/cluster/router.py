"""Replica routing: round-robin with health masking and failover.

Each shard is served by ``n_replicas`` interchangeable replicas.  The
router spreads load round-robin per shard, but a replica can die at any
simulated instant (a ``worker_loss`` event in the fault plan, promoted
here from the construction path to the *query* path).  Death is not
observed instantly: the router only learns of it after the policy's
heartbeat window, so for a short interval queries are still routed at a
dead replica, bounce, pay the failover penalty, and retry on a sibling
— exactly the detection/retry structure a real serving mesh exhibits,
just on the deterministic simulated clock.

Health is tracked as **down windows** ``[death, revive)`` per slot.
Without a self-healing layer every window is ``[death, inf)`` — a dead
replica stays dead, which is exactly the pre-heal behavior.  The
:class:`repro.heal.controller.RepairController` closes windows by
installing the simulated instant a rebuilt, digest-verified replica is
re-admitted to routing (:meth:`ReplicaRouter.install_downtime`); from
that instant the slot serves again and a shard that had degraded to
``PARTIAL`` is healthy once more.

Routing outcome taxonomy:

- **clean** — the picked replica is alive; no penalty.
- **failover** — one or more dead replicas were tried first
  (undetected deaths); each attempt adds ``failover_penalty_seconds``
  and one failover count before a live sibling answers.
- **shard dead** — every replica of the shard is dead; the query for
  this shard is *missing* and the cluster degrades to an explicitly
  flagged partial result (never silently).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.params import as_finite
from repro.errors import ClusterError
from repro.faults.plan import FAULT_WORKER_LOSS, FaultPlan


@dataclass(frozen=True)
class RouterPolicy:
    """Router timing knobs.

    Attributes:
        heartbeat_seconds: How long a replica's death stays *undetected*
            — queries routed at it during this window bounce and pay
            the failover penalty; afterwards the router masks it out.
        failover_penalty_seconds: Added latency per bounced attempt
            (connection timeout + re-dispatch to the sibling).
    """

    heartbeat_seconds: float = 1e-3
    failover_penalty_seconds: float = 2e-4

    def __post_init__(self) -> None:
        if as_finite(self.heartbeat_seconds, "heartbeat_seconds",
                     ClusterError) < 0:
            raise ClusterError(
                f"heartbeat_seconds must be >= 0, got "
                f"{self.heartbeat_seconds}"
            )
        if as_finite(self.failover_penalty_seconds,
                     "failover_penalty_seconds", ClusterError) < 0:
            raise ClusterError(
                f"failover_penalty_seconds must be >= 0, got "
                f"{self.failover_penalty_seconds}"
            )


@dataclass(frozen=True)
class RouteDecision:
    """Where one shard-query went.

    Attributes:
        replica: Replica index within the shard (``-1`` when the whole
            shard is dead).
        n_failovers: Dead replicas bounced off before this decision.
        penalty_seconds: Total failover penalty accrued.
        shard_dead: True when no replica of the shard is alive.
    """

    replica: int
    n_failovers: int = 0
    penalty_seconds: float = 0.0
    shard_dead: bool = False


class ReplicaRouter:
    """Deterministic per-shard round-robin router over replica health.

    Args:
        n_shards: Shard count.
        n_replicas: Replicas per shard.
        policy: Timing knobs.
        plan: Optional fault plan whose ``worker_loss`` events kill
            shard-replica slots on the query path.  An event's
            ``target`` is a flat slot id ``shard * n_replicas +
            replica``; out-of-range or unset targets are folded onto a
            slot deterministically by event order.
    """

    def __init__(self, n_shards: int, n_replicas: int,
                 policy: Optional[RouterPolicy] = None,
                 plan: Optional[FaultPlan] = None):
        if n_shards <= 0 or n_replicas <= 0:
            raise ClusterError(
                f"n_shards and n_replicas must be positive, got "
                f"{n_shards}, {n_replicas}"
            )
        self.n_shards = int(n_shards)
        self.n_replicas = int(n_replicas)
        self.policy = policy if policy is not None else RouterPolicy()
        self._rr = [0] * self.n_shards
        #: Flat slot id -> simulated death time (first loss wins).
        self.death_at: Dict[int, float] = {}
        #: ``(at_seconds, slot)`` of every loss event after target
        #: folding, in plan event order — the repair controller replays
        #: this schedule so both layers agree on which slot each event
        #: killed.
        self.loss_schedule: List[Tuple[float, int]] = []
        self.n_loss_events = 0
        if plan is not None:
            n_slots = self.n_shards * self.n_replicas
            for event in plan.cluster_events():
                if event.kind != FAULT_WORKER_LOSS:
                    continue
                slot = event.target
                if not 0 <= slot < n_slots:
                    slot = self.n_loss_events % n_slots
                self.n_loss_events += 1
                self.loss_schedule.append((event.at_seconds, slot))
                previous = self.death_at.get(slot, math.inf)
                self.death_at[slot] = min(previous, event.at_seconds)
        #: Flat slot id -> sorted, disjoint ``[death, revive)`` down
        #: windows.  Defaults to one unbounded window per death — dead
        #: forever — which reproduces the pre-heal router exactly; the
        #: repair controller replaces these with bounded windows.
        self.down_windows: Dict[int, List[Tuple[float, float]]] = {
            slot: [(death, math.inf)]
            for slot, death in self.death_at.items()}

    def _slot(self, shard: int, replica: int) -> int:
        return shard * self.n_replicas + replica

    def install_downtime(self, slot: int,
                         windows: Sequence[Tuple[float, float]]) -> None:
        """Replace one slot's down windows with healed intervals.

        Args:
            slot: Flat slot id ``shard * n_replicas + replica``.
            windows: ``(death, revive)`` pairs, ascending and disjoint;
                ``revive`` may be ``inf`` for a repair that never
                completed.  The replica serves outside every window.

        Raises:
            ClusterError: On an out-of-range slot or malformed windows.
        """
        if not 0 <= slot < self.n_shards * self.n_replicas:
            raise ClusterError(
                f"slot {slot} out of range "
                f"[0, {self.n_shards * self.n_replicas})"
            )
        cleaned: List[Tuple[float, float]] = []
        last_end = -math.inf
        for death, revive in windows:
            if not revive > death:
                raise ClusterError(
                    f"down window must satisfy revive > death, got "
                    f"[{death}, {revive})"
                )
            if death < last_end:
                raise ClusterError(
                    f"down windows must be ascending and disjoint, got "
                    f"{list(windows)}"
                )
            cleaned.append((float(death), float(revive)))
            last_end = revive
        if cleaned:
            self.down_windows[slot] = cleaned
        else:
            self.down_windows.pop(slot, None)

    def _window_at(self, slot: int,
                   now: float) -> Optional[Tuple[float, float]]:
        for death, revive in self.down_windows.get(slot, ()):
            if death <= now < revive:
                return (death, revive)
        return None

    def is_alive(self, shard: int, replica: int, now: float) -> bool:
        """True while the replica is not inside a down window."""
        return self._window_at(self._slot(shard, replica), now) is None

    def is_masked(self, shard: int, replica: int, now: float) -> bool:
        """True once the heartbeat window has exposed a death that has
        not yet been healed."""
        window = self._window_at(self._slot(shard, replica), now)
        if window is None:
            return False
        death, _ = window
        return death + self.policy.heartbeat_seconds <= now

    def route(self, shard: int, now: float) -> RouteDecision:
        """Route one shard-query arriving at simulated time ``now``."""
        if not 0 <= shard < self.n_shards:
            raise ClusterError(
                f"shard {shard} out of range [0, {self.n_shards})"
            )
        candidates = [r for r in range(self.n_replicas)
                      if not self.is_masked(shard, r, now)]
        if not candidates:
            return RouteDecision(replica=-1, shard_dead=True)
        start = self._rr[shard] % len(candidates)
        self._rr[shard] += 1
        penalty = 0.0
        failovers = 0
        for offset in range(len(candidates)):
            replica = candidates[(start + offset) % len(candidates)]
            if self.is_alive(shard, replica, now + penalty):
                return RouteDecision(replica=replica,
                                     n_failovers=failovers,
                                     penalty_seconds=penalty)
            # Undetected death: bounce, pay the penalty, try a sibling.
            failovers += 1
            penalty += self.policy.failover_penalty_seconds
        return RouteDecision(replica=-1, n_failovers=failovers,
                             penalty_seconds=penalty, shard_dead=True)

    def sibling(self, shard: int, exclude: Tuple[int, ...],
                now: float) -> Optional[int]:
        """Lowest-index replica alive at ``now`` and not excluded.

        The retry lane uses this after a replica's *dispatch* failed
        (retries exhausted, breaker open, deadline): the failed
        replica is excluded and the query re-executes on a live
        sibling.  Returns ``None`` when no such sibling exists.
        """
        for replica in range(self.n_replicas):
            if replica in exclude:
                continue
            if self.is_alive(shard, replica, now):
                return replica
        return None

    def partition_windows(self, plan: Optional[FaultPlan]
                          ) -> List[Tuple[float, float]]:
        """Sorted ``(start, end)`` network-partition intervals of a plan."""
        if plan is None:
            return []
        from repro.faults.plan import FAULT_NETWORK_PARTITION
        windows = [(e.at_seconds, e.at_seconds + e.magnitude)
                   for e in plan.cluster_events()
                   if e.kind == FAULT_NETWORK_PARTITION]
        return sorted(windows)
