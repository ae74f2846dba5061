"""Seeded, serializable fault schedules on the simulated clock.

A :class:`FaultPlan` is the single source of chaos for a run: a sorted
list of :class:`FaultEvent` records (what goes wrong, and at which
simulated instant it arms) plus one RNG seed that drives every random
decision downstream — retry jitter, Poisson event generation, bit-flip
positions.  Because the plan is data (round-trippable through JSON) and
the clock is simulated, a chaos run is *replayable*: the same trace and
the same plan reproduce every fault, every retry, and every recovery
decision byte-for-byte.

Fault taxonomy (the ``FAULT_*`` constants):

- ``kernel_timeout`` — the driver watchdog kills a wedged kernel after
  ``magnitude`` simulated seconds; the attempt fails.
- ``kernel_stall``   — the kernel limps to completion ``magnitude``
  times slower than normal; results are correct, latency suffers.
- ``ecc_bitflip``    — an uncorrectable ECC error in a distance buffer
  is detected after the kernel finishes; the (wasted) compute time is
  charged and the attempt fails, results discarded.
- ``mem_exhaustion`` — device allocation fails before compute; only the
  attempted upload is charged.
- ``worker_loss``    — a serving-cluster shard-replica slot
  (``target``) dies; its queries fail over to a live sibling.
- ``network_partition`` — the cluster interconnect stalls for
  ``magnitude`` seconds; scatter deliveries inside the window wait.
- ``crash``          — the (simulated) index process dies at a named
  lifecycle ``phase`` (e.g. mid-compaction); volatile state is lost and
  recovery must replay the durable write-ahead log.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.params import as_count, as_finite
from repro.errors import ConfigurationError

#: Fault kinds delivered inside the kernel-dispatch path.
FAULT_KERNEL_TIMEOUT = "kernel_timeout"
FAULT_KERNEL_STALL = "kernel_stall"
FAULT_ECC_BITFLIP = "ecc_bitflip"
FAULT_MEM_EXHAUSTION = "mem_exhaustion"
#: Fault kinds delivered to the serving cluster.
FAULT_WORKER_LOSS = "worker_loss"
FAULT_NETWORK_PARTITION = "network_partition"
#: Fault kinds delivered to the mutable-index lifecycle.
FAULT_CRASH = "crash"

KERNEL_FAULT_KINDS = (
    FAULT_KERNEL_TIMEOUT,
    FAULT_KERNEL_STALL,
    FAULT_ECC_BITFLIP,
    FAULT_MEM_EXHAUSTION,
)
CLUSTER_FAULT_KINDS = (
    FAULT_WORKER_LOSS,
    FAULT_NETWORK_PARTITION,
)
MUTATION_FAULT_KINDS = (
    FAULT_CRASH,
)
ALL_FAULT_KINDS = (KERNEL_FAULT_KINDS + CLUSTER_FAULT_KINDS
                   + MUTATION_FAULT_KINDS)

#: Named lifecycle phases a ``crash`` event may target.  An empty
#: ``phase`` means "the next phase boundary of any name".  The mutable
#: index polls its crash injector at each of these boundaries.
CRASH_PHASES = (
    "compaction.scan",
    "compaction.rewrite",
    "compaction.repair",
    "compaction.commit",
    "checkpoint.serialize",
    "checkpoint.write",
)


def _check_kind(kind: str) -> None:
    """Refuse a fault kind outside :data:`ALL_FAULT_KINDS`."""
    if kind not in ALL_FAULT_KINDS:
        raise ConfigurationError(
            f"unknown fault kind {kind!r}; expected one of "
            f"{sorted(ALL_FAULT_KINDS)}"
        )


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Attributes:
        kind: One of the ``FAULT_*`` constants.
        at_seconds: Simulated time the fault arms.  Kernel faults fire
            on the first dispatch attempt at or after this instant;
            cluster faults apply at this point of the build timeline.
        magnitude: Kind-specific knob — watchdog seconds for
            ``kernel_timeout``, slowdown factor for ``kernel_stall``,
            partition duration for ``network_partition``; ignored
            otherwise.
        target: Worker index for ``worker_loss`` (``-1`` elsewhere).
        phase: Lifecycle phase a ``crash`` event targets (one of
            :data:`CRASH_PHASES`, or ``""`` for "any phase"); empty for
            every other kind.
    """

    kind: str
    at_seconds: float
    magnitude: float = 1.0
    target: int = -1
    phase: str = ""

    def __post_init__(self) -> None:
        _check_kind(self.kind)
        if self.at_seconds < 0:
            raise ConfigurationError(
                f"fault at_seconds must be >= 0, got {self.at_seconds}"
            )
        if self.magnitude <= 0:
            raise ConfigurationError(
                f"fault magnitude must be positive, got {self.magnitude}"
            )
        if self.phase and self.kind != FAULT_CRASH:
            raise ConfigurationError(
                f"phase is only meaningful for {FAULT_CRASH!r} events, "
                f"got phase={self.phase!r} on kind={self.kind!r}"
            )
        if self.kind == FAULT_CRASH and self.phase \
                and self.phase not in CRASH_PHASES:
            raise ConfigurationError(
                f"unknown crash phase {self.phase!r}; expected one of "
                f"{sorted(CRASH_PHASES)} or ''"
            )

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form for serialization."""
        data: Dict[str, object] = {
            "kind": self.kind, "at_seconds": self.at_seconds,
            "magnitude": self.magnitude, "target": self.target}
        if self.phase:
            data["phase"] = self.phase
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(kind=str(data["kind"]),
                   at_seconds=float(data["at_seconds"]),
                   magnitude=float(data.get("magnitude", 1.0)),
                   target=int(data.get("target", -1)),
                   phase=str(data.get("phase", "")))


class FaultPlan:
    """An ordered fault schedule plus the seed for derived randomness.

    Args:
        events: The faults to deliver; stored sorted by
            ``(at_seconds, kind, target)`` so plan identity is
            independent of construction order.
        seed: Seed for every RNG the plan hands out (retry jitter,
            bit-flip positions).  Two plans with equal events and equal
            seeds behave identically.
    """

    def __init__(self, events: Sequence[FaultEvent] = (), seed: int = 0):
        self.events: Tuple[FaultEvent, ...] = tuple(sorted(
            events, key=lambda e: (e.at_seconds, e.kind, e.target,
                                   e.phase)))
        self.seed = int(seed)

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self.events == other.events and self.seed == other.seed

    def kernel_events(self) -> List[FaultEvent]:
        """Events delivered inside kernel dispatch, schedule order."""
        return [e for e in self.events if e.kind in KERNEL_FAULT_KINDS]

    def cluster_events(self) -> List[FaultEvent]:
        """Events delivered to the serving cluster, schedule order."""
        return [e for e in self.events if e.kind in CLUSTER_FAULT_KINDS]

    def mutation_events(self) -> List[FaultEvent]:
        """Events delivered to the mutable-index lifecycle (crashes)."""
        return [e for e in self.events if e.kind in MUTATION_FAULT_KINDS]

    def rng(self, stream: str = "jitter") -> np.random.Generator:
        """A deterministic RNG derived from the plan seed and a label."""
        label = np.frombuffer(stream.encode("utf-8"), dtype=np.uint8)
        return np.random.default_rng([self.seed, *label.tolist()])

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form (lists and scalars only)."""
        return {"seed": self.seed,
                "events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        """Inverse of :meth:`to_dict`."""
        return cls(events=[FaultEvent.from_dict(e)
                           for e in data.get("events", [])],
                   seed=int(data.get("seed", 0)))

    def to_json(self) -> str:
        """Canonical JSON encoding (sorted keys, stable event order)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Generators
    # ------------------------------------------------------------------

    @classmethod
    def poisson(cls, rates: Dict[str, float], horizon_seconds: float,
                seed: int = 0, n_workers: int = 0) -> "FaultPlan":
        """Poisson-process fault schedule over a time horizon.

        Args:
            rates: ``kind -> events per simulated second``.
            horizon_seconds: Schedule length.
            seed: Plan seed (also drives event placement).
            n_workers: Cluster size for ``worker_loss`` targeting.

        Returns:
            A :class:`FaultPlan` whose events are a deterministic
            function of the arguments.
        """
        if as_finite(horizon_seconds, "horizon_seconds") <= 0:
            raise ConfigurationError(
                f"horizon_seconds must be positive, got {horizon_seconds}"
            )
        as_count(n_workers, "n_workers", 0)
        for kind in rates:
            _check_kind(kind)
        # Every event of a kind carries the kind's one magnitude.
        magnitude_of = {
            FAULT_KERNEL_TIMEOUT: 2e-3,
            FAULT_KERNEL_STALL: 4.0,
            FAULT_ECC_BITFLIP: 1.0,
            FAULT_MEM_EXHAUSTION: 1.0,
            FAULT_WORKER_LOSS: 1.0,
            FAULT_NETWORK_PARTITION: 1e-2,
            FAULT_CRASH: 1.0,
        }
        events: List[FaultEvent] = []
        # One independent, label-derived RNG stream per kind, so adding
        # a kind never perturbs the schedule of the others.
        for kind in sorted(rates):
            rate = rates[kind]
            if rate < 0:
                raise ConfigurationError(
                    f"rate for {kind!r} must be >= 0, got {rate}"
                )
            if rate == 0:
                continue
            rng = cls(seed=seed).rng(f"poisson:{kind}")
            t = 0.0
            while True:
                t += float(rng.exponential(1.0 / rate))
                if t >= horizon_seconds:
                    break
                target = -1
                phase = ""
                if kind == FAULT_WORKER_LOSS and n_workers > 0:
                    target = int(rng.integers(0, n_workers))
                if kind == FAULT_CRASH:
                    phase = CRASH_PHASES[int(rng.integers(
                        0, len(CRASH_PHASES)))]
                events.append(FaultEvent(kind=kind, at_seconds=t,
                                         magnitude=magnitude_of[kind],
                                         target=target, phase=phase))
        return cls(events=events, seed=seed)


#: Named plan recipes the CLI and CI smoke accept.  Rates are events
#: per simulated second; serving traces last milliseconds, so the
#: numbers look large.
_NAMED_RECIPES: Dict[str, Dict[str, float]] = {
    "none": {},
    "mild": {
        FAULT_KERNEL_STALL: 30.0,
        FAULT_KERNEL_TIMEOUT: 10.0,
    },
    "aggressive": {
        FAULT_KERNEL_TIMEOUT: 120.0,
        FAULT_KERNEL_STALL: 120.0,
        FAULT_ECC_BITFLIP: 80.0,
        FAULT_MEM_EXHAUSTION: 80.0,
    },
    "memory": {
        FAULT_ECC_BITFLIP: 150.0,
        FAULT_MEM_EXHAUSTION: 150.0,
    },
    "blackout": {
        # Dense enough that consecutive dispatches fail and the circuit
        # breaker trips.
        FAULT_KERNEL_TIMEOUT: 600.0,
    },
    "replica-loss": {
        # Query-path chaos for the serving cluster: replica deaths plus
        # background kernel flakiness, so failover and the retry lane
        # both exercise.  Pass n_workers = shards * replicas so losses
        # target real slots.
        FAULT_WORKER_LOSS: 30.0,
        FAULT_KERNEL_STALL: 30.0,
        FAULT_KERNEL_TIMEOUT: 10.0,
    },
    "compaction-crash": {
        # Mutable-index chaos: process deaths at random lifecycle
        # phases.  Mutation workloads run on a seconds-scale timeline
        # (one op per simulated second), so a fractional rate still
        # lands several hits across a few dozen ops.
        FAULT_CRASH: 0.1,
    },
    "soak": {
        # Repair-aware whole-stack chaos for the self-healing soak
        # gate: replica deaths dense enough that the RepairController
        # queues several rebuilds per replay, partitions to delay
        # sub-replays across repair windows, and background kernel
        # flakiness so retries and breakers stay busy while repairs
        # run.  Pass n_workers = shards * replicas.
        FAULT_WORKER_LOSS: 150.0,
        FAULT_NETWORK_PARTITION: 25.0,
        FAULT_KERNEL_STALL: 30.0,
        FAULT_KERNEL_TIMEOUT: 10.0,
    },
}


def named_fault_plan(name: str, horizon_seconds: float,
                     seed: int = 0, n_workers: int = 0) -> FaultPlan:
    """Build one of the named chaos recipes (see ``fault_plan_names``).

    Args:
        name: Recipe name (``none``, ``mild``, ``aggressive``,
            ``memory``, ``blackout``, ``replica-loss``,
            ``compaction-crash``, ``soak``).
        horizon_seconds: Simulated length the plan should cover —
            typically the expected trace duration with headroom.
        seed: Plan seed.
        n_workers: Cluster slot count for ``worker_loss`` targeting
            (``shards * replicas`` for the serving cluster); with the
            default ``0``, loss events carry ``target=-1`` and
            consumers fold them onto slots deterministically.
    """
    if name not in _NAMED_RECIPES:
        raise ConfigurationError(
            f"unknown fault plan {name!r}; expected one of "
            f"{sorted(_NAMED_RECIPES)}"
        )
    return FaultPlan.poisson(_NAMED_RECIPES[name], horizon_seconds,
                             seed=seed, n_workers=n_workers)


def fault_plan_names() -> List[str]:
    """Names accepted by :func:`named_fault_plan`."""
    return sorted(_NAMED_RECIPES)
