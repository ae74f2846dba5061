"""Metric-axiom property tests.

Proximity-graph search only needs a consistent "smaller is closer"
score, but the guarantees each metric *does* make must hold everywhere:
squared Euclidean respects the triangle inequality after a square root,
cosine distance is bounded and shift-free, inner product is bilinear.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.metrics.distance import InnerProductMetric
from repro.metrics.distance import CosineMetric, EuclideanMetric

vectors = arrays(np.float64, (6,),
                 elements=st.floats(min_value=-50, max_value=50))


class TestEuclideanAxioms:
    metric = EuclideanMetric()

    @given(vectors, vectors, vectors)
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality_after_sqrt(self, x, y, z):
        d = self.metric.one_to_many
        xy = np.sqrt(d(x, y[None, :])[0])
        yz = np.sqrt(d(y, z[None, :])[0])
        xz = np.sqrt(d(x, z[None, :])[0])
        assert xz <= xy + yz + 1e-9

    @given(vectors, vectors)
    @settings(max_examples=60, deadline=None)
    def test_translation_invariance(self, x, y):
        shift = np.full_like(x, 3.7)
        base = self.metric.one_to_many(x, y[None, :])[0]
        moved = self.metric.one_to_many(x + shift,
                                        (y + shift)[None, :])[0]
        assert moved == pytest.approx(base, rel=1e-9, abs=1e-9)

    @given(vectors, vectors)
    @settings(max_examples=60, deadline=None)
    def test_non_negative(self, x, y):
        assert self.metric.one_to_many(x, y[None, :])[0] >= 0.0


class TestCosineAxioms:
    metric = CosineMetric()

    @given(vectors, vectors)
    @settings(max_examples=60, deadline=None)
    def test_bounded(self, x, y):
        d = self.metric.one_to_many(x, y[None, :])[0]
        assert -1e-9 <= d <= 2.0 + 1e-9

    @given(vectors, st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_positive_scaling_invariance(self, x, scale):
        # A component that is, or that scaling makes, subnormal loses
        # bits (or becomes zero), so ``scale * x`` need not point the
        # same way: only inputs whose direction scaling keeps apply.
        assume(np.all((x == 0) | (np.abs(x) * min(scale, 1.0)
                                  >= np.finfo(np.float64).tiny)))
        rng = np.random.default_rng(0)
        others = rng.normal(size=(4, len(x)))
        base = self.metric.one_to_many(x, others)
        scaled = self.metric.one_to_many(scale * x, others)
        assert np.allclose(base, scaled, atol=1e-9)

    def test_scaling_invariance_below_the_normal_range(self):
        """A vector whose squared norm underflows is still a direction."""
        x = np.zeros(6)
        x[0] = 7.23364209e-163
        others = np.random.default_rng(0).normal(size=(4, 6))
        assert np.array_equal(self.metric.one_to_many(x, others),
                              self.metric.one_to_many(3.0 * x, others))
        assert np.array_equal(self.metric.one_to_many(x, others),
                              self.metric.one_to_many(np.eye(6)[0], others))

    @given(vectors)
    @settings(max_examples=60, deadline=None)
    def test_negation_reflects(self, x):
        from hypothesis import assume
        assume(np.linalg.norm(x) > 1e-6)
        d = self.metric.one_to_many(x, (-x)[None, :])[0]
        assert d == pytest.approx(2.0, abs=1e-9)


class TestInnerProductAxioms:
    metric = InnerProductMetric()

    @given(vectors, vectors, vectors)
    @settings(max_examples=60, deadline=None)
    def test_bilinearity(self, q, a, b):
        d = self.metric.one_to_many
        combined = d(q, (a + b)[None, :])[0]
        separate = d(q, a[None, :])[0] + d(q, b[None, :])[0]
        assert combined == pytest.approx(separate, rel=1e-9, abs=1e-6)

    @given(vectors, vectors, st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_query_scaling_preserves_order(self, q, a, scale):
        from hypothesis import assume
        rng = np.random.default_rng(1)
        others = rng.normal(size=(6, len(q)))
        base = self.metric.one_to_many(q, others)
        # Ordering is only preserved where float arithmetic can see it:
        # a denormal query really does collapse to zero under scaling,
        # and near-tied products may swap under rounding.
        spread = np.min(np.diff(np.sort(base)))
        assume(spread > 1e-9 * max(1.0, float(np.max(np.abs(base)))))
        base_order = np.argsort(base)
        scaled_order = np.argsort(self.metric.one_to_many(scale * q,
                                                          others))
        assert np.array_equal(base_order, scaled_order)


class TestCrossMetricConsistency:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_cosine_equals_euclidean_on_unit_sphere(self, seed):
        """On unit vectors, squared Euclidean = 2 x cosine distance, so
        both metrics rank neighbors identically there."""
        rng = np.random.default_rng(seed)
        q = rng.normal(size=8)
        q /= np.linalg.norm(q)
        pts = rng.normal(size=(10, 8))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        euclid = EuclideanMetric().one_to_many(q, pts)
        cosine = CosineMetric().one_to_many(q, pts)
        assert np.allclose(euclid, 2.0 * cosine, atol=1e-9)
