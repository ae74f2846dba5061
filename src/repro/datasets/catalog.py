"""Stand-ins for the paper's ten evaluation datasets (Table I).

Each :class:`DatasetSpec` mirrors one row of Table I — same dimensionality,
same metric, same qualitative character — with the point count scaled down
by a user-controlled factor so everything runs on a laptop.  Relative sizes
between datasets are preserved (the DEEP and SIFT10M stand-ins stay the
largest), which keeps the cross-dataset comparisons in Figures 6/11 and
Tables II/III meaningful.

The "hard" datasets NYTimes and GloVe200 are generated with Zipf-skewed
anisotropic clusters; GIST keeps its extreme 960 dimensions.  That is what
reproduces the paper's observations that skew lowers the recall ceiling and
that high dimensionality shrinks GANNS's advantage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.params import as_count
from repro.datasets import synthetic
from repro.datasets.ground_truth import exact_knn
from repro.errors import DatasetError
from repro.metrics.distance import Metric, get_metric

#: Default stand-in size for a 1M-point paper dataset.
DEFAULT_BASE_POINTS = 20_000

#: Default number of test queries (the paper uses 2000 per test set).
DEFAULT_QUERIES = 500


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one Table I stand-in.

    Attributes:
        name: Table I dataset name (lower-cased registry key).
        kind: Content type from Table I (image/text/video/audio).
        n_dims: Dimensionality from Table I.
        paper_points: Point count of the real dataset (used to scale).
        metric: ``"euclidean"`` or ``"cosine"``.
        generator: Name of the :mod:`repro.datasets.synthetic` generator.
        generator_kwargs: Extra keyword arguments for the generator.
        hard: Whether the paper classifies the dataset as hard (skewed or
            very high-dimensional).
    """

    name: str
    kind: str
    n_dims: int
    paper_points: int
    metric: str
    generator: str
    generator_kwargs: Dict[str, object] = field(default_factory=dict)
    hard: bool = False

    def scaled_points(self, base_points: int = DEFAULT_BASE_POINTS) -> int:
        """Stand-in size: ``base_points`` scaled by the paper's relative size."""
        scale = self.paper_points / 1_000_000
        return max(int(round(base_points * scale)), 1_000)


@dataclass
class Dataset:
    """A materialised dataset: points, queries, metric, lazy ground truth."""

    name: str
    points: np.ndarray
    queries: np.ndarray
    metric_name: str
    spec: Optional[DatasetSpec] = None
    _ground_truth_cache: Dict[int, np.ndarray] = field(
        default_factory=dict, repr=False)

    @property
    def n_points(self) -> int:
        """Number of base points."""
        return len(self.points)

    @property
    def n_dims(self) -> int:
        """Dimensionality."""
        return self.points.shape[1]

    @property
    def n_queries(self) -> int:
        """Number of test queries."""
        return len(self.queries)

    @property
    def metric(self) -> Metric:
        """The metric instance for this dataset."""
        return get_metric(self.metric_name)

    def ground_truth(self, k: int) -> np.ndarray:
        """Exact ``(n_queries, k)`` neighbor ids, computed once per ``k``."""
        cached = self._ground_truth_cache.get(k)
        if cached is None:
            cached = exact_knn(self.points, self.queries, k, self.metric)
            self._ground_truth_cache[k] = cached
        return cached

    def truncate_dims(self, n_dims: int) -> "Dataset":
        """A view of this dataset keeping only the first ``n_dims`` dims.

        This is how the paper runs the Figure 9 dimensionality sweep — "we
        vary n_d from 960 to 60 on dataset GIST" — and how SIFT10M keeps
        only the first 32 dimensions of SIFT1B vectors.  Keeping every
        dimension returns this dataset itself.
        """
        if not 1 <= n_dims <= self.n_dims:
            raise DatasetError(
                f"n_dims must lie in [1, {self.n_dims}], got {n_dims}"
            )
        if n_dims == self.n_dims:
            return self
        return Dataset(
            name=f"{self.name}-d{n_dims}",
            points=np.ascontiguousarray(self.points[:, :n_dims]),
            queries=np.ascontiguousarray(self.queries[:, :n_dims]),
            metric_name=self.metric_name,
            spec=self.spec,
        )


def _image_like(n_clusters: int = 48, cluster_std: float = 0.18,
                intrinsic_dim: int = 12) -> Dict[str, object]:
    return {"n_clusters": n_clusters, "cluster_std": cluster_std,
            "intrinsic_dim": intrinsic_dim}


DATASET_SPECS: Dict[str, DatasetSpec] = {
    spec.name: spec for spec in (
        DatasetSpec("sift1m", "image", 128, 1_000_000, "euclidean",
                    "gaussian_mixture", _image_like()),
        # GIST is "hard" through its extreme dimensionality and a higher
        # intrinsic dimension than descriptor datasets.
        DatasetSpec("gist", "image", 960, 1_000_000, "euclidean",
                    "gaussian_mixture",
                    _image_like(cluster_std=0.25, intrinsic_dim=20),
                    hard=True),
        # The text datasets are "heavily skewed": Zipf cluster masses,
        # anisotropic spreads and a high intrinsic dimension.
        DatasetSpec("nytimes", "text", 256, 290_000, "cosine",
                    "zipf_clustered",
                    {"n_clusters": 64, "zipf_exponent": 1.3,
                     "anisotropy": 6.0, "cluster_std": 0.2,
                     "intrinsic_dim": 24},
                    hard=True),
        DatasetSpec("glove200", "text", 200, 1_180_000, "cosine",
                    "zipf_clustered",
                    {"n_clusters": 96, "zipf_exponent": 1.25,
                     "anisotropy": 6.0, "cluster_std": 0.22,
                     "intrinsic_dim": 24},
                    hard=True),
        DatasetSpec("uq_v", "video", 256, 3_030_000, "euclidean",
                    "gaussian_mixture", _image_like(n_clusters=64)),
        DatasetSpec("msong", "audio", 420, 990_000, "euclidean",
                    "gaussian_mixture",
                    _image_like(cluster_std=0.2, intrinsic_dim=14)),
        DatasetSpec("notre", "image", 128, 330_000, "euclidean",
                    "gaussian_mixture", _image_like()),
        DatasetSpec("ukbench", "image", 128, 1_100_000, "euclidean",
                    "gaussian_mixture", _image_like(cluster_std=0.12)),
        DatasetSpec("deep", "image", 96, 8_000_000, "euclidean",
                    "gaussian_mixture", _image_like(n_clusters=96)),
        DatasetSpec("sift10m", "image", 32, 10_000_000, "euclidean",
                    "gaussian_mixture",
                    _image_like(n_clusters=96, intrinsic_dim=10)),
    )
}
"""Registry of Table I stand-ins keyed by lower-cased dataset name."""


def dataset_names() -> Tuple[str, ...]:
    """All registry names, in Table I order."""
    return tuple(DATASET_SPECS)


def load_dataset(name: str, n_points: Optional[int] = None,
                 n_queries: int = DEFAULT_QUERIES,
                 seed: int = 7) -> Dataset:
    """Materialise one Table I stand-in.

    Args:
        name: Registry name (case-insensitive), e.g. ``"sift1m"``.
        n_points: Exact point count; defaults to the spec's scaled size
            (a 1M-point dataset stands in at :data:`DEFAULT_BASE_POINTS`).
        n_queries: Held-out query count (drawn from the same distribution).
        seed: RNG seed; queries use ``seed + 1`` so they are disjoint draws.

    Returns:
        A :class:`Dataset` with float32 points and queries.
    """
    key = name.lower()
    spec = DATASET_SPECS.get(key)
    if spec is None:
        valid = ", ".join(dataset_names())
        raise DatasetError(f"unknown dataset {name!r}; valid names: {valid}")
    if n_points is None:
        n_points = spec.scaled_points()
    n_points = as_count(n_points, "n_points", 1, DatasetError)
    n_queries = as_count(n_queries, "n_queries", 1, DatasetError)

    generator: Callable[..., np.ndarray] = getattr(synthetic, spec.generator)
    points = generator(n_points, spec.n_dims, seed=seed,
                       **spec.generator_kwargs)
    queries = generator(n_queries, spec.n_dims, seed=seed + 1,
                        **spec.generator_kwargs)
    return Dataset(name=key, points=points, queries=queries,
                   metric_name=spec.metric, spec=spec)
