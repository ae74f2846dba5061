"""Tests for recovery policies: retry backoff, breaker, governor."""

import numpy as np
import pytest

from repro.core.params import SearchParams
from repro.errors import ConfigurationError
from repro.faults import AdmissionGovernor, BreakerPolicy, RetryPolicy
from repro.faults.policy import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    RETRY_JITTER_FRACTION,
    CircuitBreaker,
)


class _ZeroDraws:
    """An RNG whose every draw is 0.0: backoffs without jitter."""

    def random(self):
        return 0.0


class TestRetryPolicy:
    def test_backoff_doubles_then_caps(self):
        policy = RetryPolicy(max_retries=5, base_seconds=1e-4,
                             cap_seconds=4e-4)
        rng = _ZeroDraws()
        delays = [policy.backoff_seconds(a, rng) for a in (1, 2, 3, 4, 5)]
        assert delays[:3] == pytest.approx([1e-4, 2e-4, 4e-4])
        assert delays[3] == pytest.approx(4e-4)  # capped
        assert delays[4] == pytest.approx(4e-4)

    def test_jitter_bounded_and_deterministic(self):
        policy = RetryPolicy(base_seconds=1e-4, cap_seconds=1e-3)
        a = [policy.backoff_seconds(1, np.random.default_rng(7))
             for _ in range(3)]
        assert a[0] == a[1] == a[2]  # same rng state, same draw
        rng = np.random.default_rng(7)
        for _ in range(50):
            delay = policy.backoff_seconds(1, rng)
            assert 1e-4 <= delay <= 1e-4 * (1.0 + RETRY_JITTER_FRACTION)

    def test_each_backoff_advances_the_stream_once(self):
        """One draw per backoff, so the jitter stream's position is a
        function of the retry count alone."""
        policy = RetryPolicy()
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        policy.backoff_seconds(1, rng_a)
        rng_b.random()
        assert rng_a.random() == rng_b.random()

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError, match="cap_seconds"):
            RetryPolicy(base_seconds=2e-3, cap_seconds=1e-3)
        with pytest.raises(ConfigurationError, match="attempt"):
            RetryPolicy().backoff_seconds(0, np.random.default_rng(0))


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=3,
                                               cooldown_seconds=1.0))
        breaker.record_failure(0.1)
        breaker.record_failure(0.2)
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure(0.3)
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow(0.5)

    def test_success_resets_the_count(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=2))
        breaker.record_failure(0.1)
        breaker.record_success(0.2)
        breaker.record_failure(0.3)
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_probe_success_closes(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1,
                                               cooldown_seconds=1.0))
        breaker.record_failure(0.0)
        assert breaker.state == BREAKER_OPEN
        assert breaker.allow(1.5)  # cooldown elapsed: half-open probe
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.impaired
        breaker.record_success(1.6)
        assert breaker.state == BREAKER_CLOSED
        assert not breaker.impaired

    def test_half_open_probe_failure_reopens_immediately(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=5,
                                               cooldown_seconds=1.0))
        for t in (0.1, 0.2, 0.3, 0.4, 0.5):
            breaker.record_failure(t)
        assert breaker.state == BREAKER_OPEN
        assert breaker.allow(2.0)
        breaker.record_failure(2.1)  # one probe failure, not five
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow(2.5)
        assert breaker.allow(3.2)  # a fresh cooldown started at 2.1

    def test_transitions_recorded_in_time_order(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1,
                                               cooldown_seconds=0.5))
        breaker.record_failure(0.0)
        breaker.allow(1.0)
        breaker.record_success(1.1)
        states = [(t.from_state, t.to_state) for t in breaker.transitions]
        assert states == [(BREAKER_CLOSED, BREAKER_OPEN),
                          (BREAKER_OPEN, BREAKER_HALF_OPEN),
                          (BREAKER_HALF_OPEN, BREAKER_CLOSED)]
        times = [t.seconds for t in breaker.transitions]
        assert times == sorted(times)

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError, match="failure_threshold"):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ConfigurationError, match="cooldown"):
            BreakerPolicy(cooldown_seconds=-1.0)

    def test_default_policy_is_close_on_first_success(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1,
                                               cooldown_seconds=1.0))
        breaker.record_failure(0.0)
        assert breaker.allow(1.5)
        breaker.record_success(1.6)
        assert breaker.state == BREAKER_CLOSED
        assert breaker.probe_successes == 1

    def test_closed_successes_are_not_probes(self):
        breaker = CircuitBreaker(BreakerPolicy())
        breaker.record_success(0.1)
        breaker.record_success(0.2)
        assert breaker.probe_successes == 0


class TestAdmissionGovernor:
    def test_select_tier_steps_with_pressure(self):
        governor = AdmissionGovernor(tiers=((32, 16), (16, 8)),
                                     pressure_thresholds=(0.5, 0.8))
        assert governor.select_tier(0.0, False) == 0
        assert governor.select_tier(0.49, False) == 0
        assert governor.select_tier(0.5, False) == 1
        assert governor.select_tier(0.79, False) == 1
        assert governor.select_tier(0.95, False) == 2

    def test_breaker_impairment_jumps_to_deepest_tier(self):
        governor = AdmissionGovernor(tiers=((32, 16), (16, 8)),
                                     pressure_thresholds=(0.5, 0.8))
        assert governor.select_tier(0.0, True) == 2

    def test_params_for_swaps_the_pool(self):
        base = SearchParams(k=5, l_n=64)
        governor = AdmissionGovernor(tiers=((32, 16), (16, 8)),
                                     pressure_thresholds=(0.5, 0.8))
        assert governor.params_for(0, base) is base
        tier1 = governor.params_for(1, base)
        assert (tier1.l_n, tier1.e, tier1.k) == (32, 16, 5)
        tier2 = governor.params_for(2, base)
        assert (tier2.l_n, tier2.e) == (16, 8)
        with pytest.raises(ConfigurationError, match="tier"):
            governor.params_for(3, base)

    def test_params_for_refuses_pool_smaller_than_k(self):
        governor = AdmissionGovernor(tiers=((8, 4),),
                                     pressure_thresholds=(0.5,))
        with pytest.raises(ConfigurationError, match="cannot hold"):
            governor.params_for(1, SearchParams(k=10, l_n=64))

    def test_default_for_halves_down_to_k_floor(self):
        governor = AdmissionGovernor.default_for(SearchParams(k=10,
                                                              l_n=64))
        assert [t[0] for t in governor.tiers] == [32, 16]
        assert all(t[0] >= 16 for t in governor.tiers)  # next_pow2(10)
        shallow = AdmissionGovernor.default_for(SearchParams(k=10,
                                                             l_n=32))
        assert [t[0] for t in shallow.tiers] == [16]
        with pytest.raises(ConfigurationError, match="no degraded tier"):
            AdmissionGovernor.default_for(SearchParams(k=10, l_n=16))

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            AdmissionGovernor(tiers=(), pressure_thresholds=())
        with pytest.raises(ConfigurationError, match="thresholds"):
            AdmissionGovernor(tiers=((32, 16), (16, 8)),
                              pressure_thresholds=(0.5,))
        with pytest.raises(ConfigurationError, match="ascending"):
            AdmissionGovernor(tiers=((32, 16), (16, 8)),
                              pressure_thresholds=(0.8, 0.5))
        with pytest.raises(ConfigurationError, match="strictly decrease"):
            AdmissionGovernor(tiers=((32, 16), (32, 8)),
                              pressure_thresholds=(0.5, 0.8))
        with pytest.raises(ConfigurationError, match="lie in"):
            AdmissionGovernor(tiers=((32, 64),),
                              pressure_thresholds=(0.5,))
