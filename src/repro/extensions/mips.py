"""Maximum inner-product search (MIPS) as a pluggable metric.

Recommendation systems — one of the applications the paper's
introduction names — usually rank by *inner product*, not distance.
Inner product is not a metric (no triangle inequality, not even
non-negative), but proximity-graph search only needs a comparable
"smaller is better" score, so ``-⟨q, p⟩`` slots straight into the
library's metric interface.

Call :func:`register_ip_metric` once to add ``"ip"`` to the metric
registry; every component (ground truth, every index family's
construction, beam search, SONG, GANNS and its quantized tiers) then
accepts ``metric="ip"``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.metrics.distance import METRICS, Metric


class InnerProductMetric(Metric):
    """Negative inner product: ``dist(a, b) = -⟨a, b⟩``.

    Smaller is better, so the top-k under this "distance" are exactly
    the maximum-inner-product results.
    """

    name = "ip"

    def from_products(self, products: np.ndarray,
                      point_norms: Optional[np.ndarray] = None,
                      query_norms: Optional[np.ndarray] = None
                      ) -> np.ndarray:
        return -products

    def flops_per_distance(self, n_dims: int) -> int:
        return 2 * n_dims


def register_ip_metric() -> InnerProductMetric:
    """Register ``"ip"`` in the global metric registry (idempotent)."""
    instance = METRICS.get(InnerProductMetric.name)
    if instance is None:
        instance = InnerProductMetric()
        METRICS[InnerProductMetric.name] = instance
    return instance
