"""Self-healing knobs: how replica rebuilds are timed and verified.

A :class:`HealPolicy` is to the :class:`repro.heal.controller
.RepairController` what :class:`repro.cluster.router.RouterPolicy` is
to the router: a frozen bag of timing and safety knobs that, together
with the fault plan's seed, makes every repair timeline a pure function
of its inputs.

A repair pays three costs, priced by the module constants below:

- **transfer** — the snapshot ships over the cluster interconnect, but
  only at :data:`REPAIR_BANDWIDTH_FRACTION` of the link: repair traffic
  is rate-limited so a rebuilding replica can never starve the query
  path of bandwidth.
- **deserialize** — decoding the snapshot into device-resident
  adjacency is charged to the cost model at
  :data:`DESERIALIZE_CYCLES_PER_BYTE`.
- **verify** — one digest round trip of :data:`DIGEST_BYTES` before
  re-admission; a corrupted transfer quarantines the rebuild, which
  starts over, up to ``max_rebuild_attempts`` times.  A quarantined
  replica is *never* admitted to routing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.params import as_count, as_finite
from repro.errors import HealError

#: Fraction of the interconnect bandwidth the one repair lane uses;
#: snapshot transfer time scales with its inverse.
REPAIR_BANDWIDTH_FRACTION = 0.25
#: Device cycles charged per snapshot byte to decode it into serving
#: form.
DESERIALIZE_CYCLES_PER_BYTE = 2.0
#: Wire size of one anti-entropy digest message (one round trip at full
#: bandwidth: digests are tiny and latency-bound).
DIGEST_BYTES = 64
#: Block width of the simulated deserialize kernel.
DESERIALIZE_THREADS = 32


@dataclass(frozen=True)
class HealPolicy:
    """Frozen configuration of the repair controller.

    Attributes:
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

    Repairs run one at a time, FIFO in death order.
    """

    max_rebuild_attempts: int = 3
    corruption_probability: float = 0.0
    mttr_bound_seconds: float = 0.05

    def __post_init__(self) -> None:
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
