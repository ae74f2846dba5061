"""Distance metrics and accuracy measures.

The paper evaluates under two metrics (Table I): Euclidean distance for the
image/video/audio datasets and cosine similarity for the text datasets
(NYTimes, GloVe200); negative inner product (``"ip"``) serves maximum
inner-product search.  Accuracy is recall — "the ratio of correct nearest
neighbors to returned neighbors".
"""

from repro.metrics.distance import (
    Metric,
    METRICS,
    EuclideanMetric,
    CosineMetric,
    InnerProductMetric,
    get_metric,
)
from repro.metrics.recall import (
    recall_at_k,
    recall_per_query,
)

__all__ = [
    "Metric",
    "METRICS",
    "EuclideanMetric",
    "CosineMetric",
    "InnerProductMetric",
    "get_metric",
    "recall_at_k",
    "recall_per_query",
]
