"""Unit tests for the metrics registry: instruments, misuse, encoding.

The registry underwrites the exact-reconciliation guarantee, so its
contract is pinned instrument by instrument: counters only go up,
gauges stay finite, histogram bucketing is a pure function of the
value, name collisions across kinds fail loudly, and the canonical
snapshot encoding is byte-stable.
"""

import numpy as np
import pytest

from repro.errors import ObservabilityError
from repro.observability import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_accumulates_and_defaults_to_one(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(2.5)
        assert registry.value("c") == 3.5

    @pytest.mark.parametrize("bad", [-1, float("nan"), float("inf")])
    def test_rejects_negative_and_non_finite(self, bad):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ObservabilityError):
            counter.inc(bad)

    def test_get_or_create_returns_the_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")


class TestGauge:
    def test_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(5.0)
        gauge.set(-2.0)
        assert registry.value("g") == -2.0

    def test_rejects_non_finite(self):
        gauge = MetricsRegistry().gauge("g")
        with pytest.raises(ObservabilityError):
            gauge.set(float("nan"))


class TestHistogram:
    def test_bucketing_is_a_pure_function_of_the_value(self):
        hist = Histogram("h", bounds=(1.0, 2.0, 5.0))
        for value, bucket in ((0.5, 0), (1.0, 0), (1.5, 1), (2.0, 1),
                              (4.9, 2), (5.0, 2), (99.0, 3)):
            before = list(hist.counts)
            hist.observe(value)
            changed = [i for i in range(4)
                       if hist.counts[i] != before[i]]
            assert changed == [bucket], f"{value} landed in {changed}"
        assert hist.count == 7

    def test_sum_and_mean_are_exact(self):
        hist = Histogram("h", bounds=(1.0,))
        values = [0.25, 0.5, 3.0]
        total = 0.0
        for value in values:
            hist.observe(value)
            total += value  # same addition order as the instrument
        assert hist.sum == total
        assert hist.mean == total / 3
        assert np.isnan(Histogram("e", bounds=(1.0,)).mean)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ObservabilityError, match="at least one"):
            Histogram("h", bounds=())
        with pytest.raises(ObservabilityError, match="increasing"):
            Histogram("h", bounds=(1.0, 1.0))
        with pytest.raises(ObservabilityError, match="increasing"):
            Histogram("h", bounds=(2.0, 1.0))
        with pytest.raises(ObservabilityError, match="finite"):
            Histogram("h", bounds=(1.0, float("inf")))

    def test_rejects_non_finite_observations(self):
        hist = Histogram("h", bounds=(1.0,))
        with pytest.raises(ObservabilityError):
            hist.observe(float("inf"))


class TestRegistry:
    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ObservabilityError, match="already"):
            registry.gauge("x")

    def test_value_of_missing_metric(self):
        registry = MetricsRegistry()
        assert registry.value("missing", default=0.0) == 0.0
        with pytest.raises(ObservabilityError, match="no metric"):
            registry.value("missing")

    def test_value_of_histogram_is_refused(self):
        registry = MetricsRegistry()
        registry.histogram("h", DEFAULT_LATENCY_BUCKETS)
        with pytest.raises(ObservabilityError, match="histogram"):
            registry.value("h")

    def test_contains_len_and_names(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.counter("a")
        assert "a" in registry and "c" not in registry
        assert len(registry) == 2
        assert tuple(registry.snapshot()) == ("a", "b")

    def test_snapshot_encoding_is_byte_stable(self):
        def build():
            registry = MetricsRegistry()
            # Creation order differs from name order on purpose: the
            # snapshot must not leak insertion order.
            registry.counter("z").inc(3)
            registry.gauge("a").set(0.1)
            registry.histogram("m", bounds=(1.0, 2.0)).observe(1.5)
            return registry

        first, second = build(), build()
        assert first.to_json_bytes() == second.to_json_bytes()
        assert first.digest() == second.digest()
        first.to_json_bytes().decode("ascii")

    def test_summary_filters_by_prefix(self):
        registry = MetricsRegistry()
        registry.counter("serve.requests").inc(4)
        registry.counter("faults.injected").inc(1)
        block = registry.summary(prefix="serve.")
        assert "serve.requests" in block
        assert "faults.injected" not in block
