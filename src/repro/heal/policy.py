"""Self-healing knobs: how replica rebuilds are timed and verified.

A :class:`HealPolicy` is to the :class:`repro.heal.controller
.RepairController` what :class:`repro.cluster.router.RouterPolicy` is
to the router: a frozen bag of timing and safety knobs that, together
with the fault plan's seed, makes every repair timeline a pure function
of its inputs.

The knobs encode the three costs a real repair pipeline pays:

- **transfer** — the snapshot ships over the cluster interconnect, but
  only at ``repair_bandwidth_fraction`` of the link: repair traffic is
  rate-limited so a rebuilding replica can never starve the query path
  of bandwidth.
- **deserialize** — decoding the snapshot into device-resident
  adjacency is charged to the cost model at
  ``deserialize_cycles_per_byte``.
- **verify** — before re-admission the rebuilt replica exchanges a
  graph digest with the shard's authoritative copy (anti-entropy); a
  mismatch quarantines the rebuild and starts over, up to
  ``max_rebuild_attempts`` times.  A digest-mismatched replica is
  *never* admitted to routing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.params import as_count, as_finite
from repro.errors import HealError


@dataclass(frozen=True)
class HealPolicy:
    """Frozen configuration of the repair controller.

    Attributes:
        repair_bandwidth_fraction: Fraction of the interconnect
            bandwidth the repair lane may use, in ``(0, 1]``.  Snapshot
            transfer time scales with its inverse — the rate limiter
            that keeps repair traffic from starving queries.
        deserialize_cycles_per_byte: Device cycles charged per snapshot
            byte to decode it into serving form.
        digest_bytes: Wire size of one anti-entropy digest message (the
            exchange is one round trip at full bandwidth — digests are
            tiny and latency-bound).
        max_rebuild_attempts: Rebuild attempts per death before the
            controller abandons the slot (it then stays dead, exactly
            as if healing were off).  Each quarantined attempt restarts
            the transfer from scratch.
        corruption_probability: Per-attempt probability that the
            transferred snapshot is corrupted and fails digest
            verification; drawn from the fault plan's seeded RNG
            (stream ``"heal:corruption"``) so chaos replays
            deterministically.  ``0.0`` disables corruption.
        mttr_bound_seconds: The healing SLO — maximum allowed
            death-to-re-admission time for a single replica loss.  The
            controller records MTTR per repair; the soak oracles and
            :meth:`repro.cluster.report.ClusterReport.unhealed_within`
            enforce the bound.
        n_repair_lanes: Concurrent rebuilds the controller runs;
            repairs beyond this queue FIFO in death order (the default
            single lane serializes all repair traffic).
        n_threads: Block width of the simulated deserialize kernel.
    """

    repair_bandwidth_fraction: float = 0.25
    deserialize_cycles_per_byte: float = 2.0
    digest_bytes: int = 64
    max_rebuild_attempts: int = 3
    corruption_probability: float = 0.0
    mttr_bound_seconds: float = 0.05
    n_repair_lanes: int = 1
    n_threads: int = 32

    def __post_init__(self) -> None:
        if not 0.0 < self.repair_bandwidth_fraction <= 1.0:
            raise HealError(
                f"repair_bandwidth_fraction must lie in (0, 1], got "
                f"{self.repair_bandwidth_fraction}"
            )
        if as_finite(self.deserialize_cycles_per_byte,
                     "deserialize_cycles_per_byte", HealError) < 0:
            raise HealError(
                f"deserialize_cycles_per_byte must be >= 0, got "
                f"{self.deserialize_cycles_per_byte}"
            )
        as_count(self.digest_bytes, "digest_bytes", 1, HealError)
        as_count(self.max_rebuild_attempts, "max_rebuild_attempts", 1,
                 HealError)
        if not 0.0 <= self.corruption_probability < 1.0:
            raise HealError(
                f"corruption_probability must lie in [0, 1), got "
                f"{self.corruption_probability}"
            )
        if as_finite(self.mttr_bound_seconds, "mttr_bound_seconds",
                     HealError) <= 0:
            raise HealError(
                f"mttr_bound_seconds must be positive, got "
                f"{self.mttr_bound_seconds}"
            )
        as_count(self.n_repair_lanes, "n_repair_lanes", 1, HealError)
        as_count(self.n_threads, "n_threads", 1, HealError)
