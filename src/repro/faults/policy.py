"""Recovery policies: retries, circuit breaking, graceful degradation.

Three cooperating policies let the serving engine survive the faults
:mod:`repro.faults.injector` delivers:

- :class:`RetryPolicy` — capped exponential backoff with jitter drawn
  from the fault plan's seeded RNG, so even the "random" spacing of
  retries replays deterministically.
- :class:`BreakerPolicy` / :class:`CircuitBreaker` — after a run of
  consecutive kernel failures the breaker opens and dispatches fail
  fast (or degrade, with a governor) instead of burning the device on
  work that keeps dying; after a cooldown a half-open probe decides
  whether to close again.
- :class:`AdmissionGovernor` — under queue pressure or an impaired
  breaker, search quality steps down through configured tiers
  (shrinking candidate-pool ``l_n`` / explore budget ``e``) instead of
  rejecting requests outright.  Every degraded request carries its tier
  so a cheaper answer is never mistaken for a full-quality one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.params import SearchParams, as_count, as_finite, next_pow2
from repro.errors import ConfigurationError

#: Each retry backoff is stretched by up to this fraction, drawn from
#: the fault plan's RNG — desynchronising retries exactly as production
#: backoff jitter does.
RETRY_JITTER_FRACTION = 0.2


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for failed dispatch attempts.

    Attributes:
        max_retries: Re-execution attempts after the first failure
            (``0`` disables retrying).
        base_seconds: Backoff before the first retry.
        cap_seconds: Upper bound on any single backoff.

    Each backoff is stretched by up to :data:`RETRY_JITTER_FRACTION`.
    """

    max_retries: int = 2
    base_seconds: float = 2e-4
    cap_seconds: float = 2e-3

    def __post_init__(self) -> None:
        as_count(self.max_retries, "max_retries", 0)
        if (as_finite(self.base_seconds, "base_seconds") <= 0
                or as_finite(self.cap_seconds, "cap_seconds") <= 0):
            raise ConfigurationError(
                f"backoff base/cap must be positive, got "
                f"{self.base_seconds}, {self.cap_seconds}"
            )
        if self.cap_seconds < self.base_seconds:
            raise ConfigurationError(
                f"cap_seconds ({self.cap_seconds}) must be >= "
                f"base_seconds ({self.base_seconds})"
            )

    def backoff_seconds(self, attempt: int,
                        rng: np.random.Generator) -> float:
        """Backoff before retry number ``attempt`` (1-based).

        Draws once from ``rng`` per backoff, so the plan's jitter
        stream advances one value per retry.
        """
        if attempt <= 0:
            raise ConfigurationError(
                f"attempt must be >= 1, got {attempt}"
            )
        delay = min(self.base_seconds * (2.0 ** (attempt - 1)),
                    self.cap_seconds)
        draw = float(rng.random())
        return delay * (1.0 + RETRY_JITTER_FRACTION * draw)


#: Circuit-breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerPolicy:
    """Knobs of the dispatch circuit breaker.

    Attributes:
        failure_threshold: Consecutive failed attempts that trip the
            breaker open.
        cooldown_seconds: How long an open breaker blocks dispatches
            before allowing a half-open probe.  The first successful
            probe closes the breaker; a failed one re-opens it.
    """

    failure_threshold: int = 3
    cooldown_seconds: float = 2e-3

    def __post_init__(self) -> None:
        as_count(self.failure_threshold, "failure_threshold", 1)
        if as_finite(self.cooldown_seconds, "cooldown_seconds") < 0:
            raise ConfigurationError(
                f"cooldown_seconds must be >= 0, got "
                f"{self.cooldown_seconds}"
            )


@dataclass(frozen=True)
class BreakerTransition:
    """One recorded breaker state change."""

    seconds: float
    from_state: str
    to_state: str


class CircuitBreaker:
    """Mutable breaker runtime driven by the simulated clock.

    One instance serves one replay.  All time arguments are simulated
    seconds and must be non-decreasing across calls (the engine drives
    it in dispatch order).
    """

    def __init__(self, policy: BreakerPolicy):
        self.policy = policy
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self.open_until = 0.0
        self.transitions: List[BreakerTransition] = []
        #: Successful dispatches recorded while half-open (total across
        #: the replay — the ``faults.breaker.probe_successes`` metric).
        self.probe_successes = 0

    def _move(self, now: float, to_state: str) -> None:
        if to_state == self.state:
            return
        self.transitions.append(BreakerTransition(
            seconds=now, from_state=self.state, to_state=to_state))
        self.state = to_state

    def allow(self, now: float) -> bool:
        """May a dispatch proceed at ``now``?

        An open breaker whose cooldown has elapsed moves to half-open
        and admits a probe dispatch: its failure re-opens the breaker,
        its success closes it.
        """
        if self.state == BREAKER_OPEN and now >= self.open_until:
            self._move(now, BREAKER_HALF_OPEN)
        return self.state != BREAKER_OPEN

    @property
    def impaired(self) -> bool:
        """True while the breaker is not fully closed."""
        return self.state != BREAKER_CLOSED

    def record_success(self, now: float) -> None:
        """A dispatch attempt succeeded.

        A closed breaker just resets its failure count; a half-open one
        counts the successful probe and closes.
        """
        self.consecutive_failures = 0
        if self.state == BREAKER_HALF_OPEN:
            self.probe_successes += 1
        self._move(now, BREAKER_CLOSED)

    def record_failure(self, now: float) -> None:
        """A dispatch attempt failed: count it; trip when over threshold.

        A half-open probe failure re-opens immediately, whatever the
        count — the probe existed to test recovery and it failed.
        """
        self.consecutive_failures += 1
        if (self.state == BREAKER_HALF_OPEN
                or self.consecutive_failures
                >= self.policy.failure_threshold):
            self.open_until = now + self.policy.cooldown_seconds
            self._move(now, BREAKER_OPEN)


#: Degradation-decision reasons recorded per event.
DEGRADE_PRESSURE = "pressure"
DEGRADE_BREAKER = "breaker"


@dataclass(frozen=True)
class AdmissionGovernor:
    """Quality-tier step-down under pressure or breaker impairment.

    Tier ``0`` is the engine's configured :class:`SearchParams`; tier
    ``i >= 1`` replaces ``(l_n, e)`` with ``tiers[i - 1]``.  The tier
    for a dispatch is the number of ``pressure_thresholds`` at or below
    the current backlog fraction, jumping straight to the deepest tier
    while the breaker is impaired (kernel attempts are failing, so the
    cheapest probe is the right probe).

    Attributes:
        tiers: ``(l_n, e)`` per degraded tier, strictly decreasing
            ``l_n`` (each a power of two).
        pressure_thresholds: Backlog fractions (backlog / ``max_queue``)
            at which each successive tier engages; same length as
            ``tiers``, ascending, in ``(0, 1]``.
    """

    tiers: Tuple[Tuple[int, int], ...] = ((32, 16), (16, 8))
    pressure_thresholds: Tuple[float, ...] = (0.5, 0.8)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tiers", tuple(
            (as_count(l, "tiers"), as_count(e, "tiers"))
            for l, e in self.tiers))
        object.__setattr__(self, "pressure_thresholds",
                           tuple(float(p) for p in self.pressure_thresholds))
        if not self.tiers:
            raise ConfigurationError(
                "governor needs at least one degraded tier"
            )
        if len(self.pressure_thresholds) != len(self.tiers):
            raise ConfigurationError(
                f"{len(self.tiers)} tiers need {len(self.tiers)} "
                f"pressure thresholds, got "
                f"{len(self.pressure_thresholds)}"
            )
        last = 0.0
        for p in self.pressure_thresholds:
            if not last < p <= 1.0:
                raise ConfigurationError(
                    f"pressure_thresholds must be ascending in (0, 1], "
                    f"got {self.pressure_thresholds}"
                )
            last = p
        prev_l = None
        for l_n, e in self.tiers:
            if not 1 <= e <= l_n:
                raise ConfigurationError(
                    f"tier ({l_n}, {e}): e must lie in [1, l_n]"
                )
            if prev_l is not None and l_n >= prev_l:
                raise ConfigurationError(
                    f"tier l_n values must strictly decrease, got "
                    f"{[t[0] for t in self.tiers]}"
                )
            prev_l = l_n

    @property
    def n_tiers(self) -> int:
        """Tier count including the full-quality tier 0."""
        return len(self.tiers) + 1

    @classmethod
    def default_for(cls, params: SearchParams) -> "AdmissionGovernor":
        """Two degraded tiers, halving ``l_n`` per tier down to the
        smallest pool holding ``k``."""
        floor = next_pow2(params.k)
        tiers = []
        l_n = params.l_n
        for _ in range(2):
            l_n //= 2
            if l_n < floor:
                break
            tiers.append((l_n, max(l_n // 2, params.k)))
        if not tiers:
            raise ConfigurationError(
                f"no degraded tier fits below l_n={params.l_n} with "
                f"k={params.k}"
            )
        step = 1.0 / (len(tiers) + 1)
        thresholds = tuple(step * (i + 1) for i in range(len(tiers)))
        return cls(tiers=tuple(tiers), pressure_thresholds=thresholds)

    def select_tier(self, pressure: float, breaker_impaired: bool) -> int:
        """Tier for a dispatch at the given backlog fraction."""
        if breaker_impaired:
            return len(self.tiers)
        tier = 0
        for threshold in self.pressure_thresholds:
            if pressure >= threshold:
                tier += 1
        return tier

    def params_for(self, tier: int, base: SearchParams) -> SearchParams:
        """The :class:`SearchParams` a given tier searches with."""
        if tier == 0:
            return base
        if not 1 <= tier <= len(self.tiers):
            raise ConfigurationError(
                f"tier must lie in [0, {len(self.tiers)}], got {tier}"
            )
        l_n, e = self.tiers[tier - 1]
        if base.k > l_n:
            raise ConfigurationError(
                f"tier {tier} pool l_n={l_n} cannot hold k={base.k} "
                f"results"
            )
        return base.with_overrides(l_n=l_n, e=min(e, l_n))
