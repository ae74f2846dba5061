"""Distance metrics: squared Euclidean and cosine distance.

Both are exposed through a small strategy interface so graphs, searches and
ground-truth computation share one code path.  All implementations operate
on float32 matrices and are fully vectorised.

Notes on conventions:

- Euclidean comparisons use the *squared* distance; it induces the same
  ordering as the true distance and this is what both SONG's and the
  paper's CUDA kernels compute (no square root on the hot path).
- Cosine *similarity* ``s`` is converted to the distance ``1 - s`` so that
  "smaller is closer" holds uniformly for every metric.
"""

from __future__ import annotations

import abc
from typing import Dict

import numpy as np

from repro.errors import ConfigurationError


class Metric(abc.ABC):
    """Strategy interface for a vector distance.

    Implementations must be stateless; a single module-level instance is
    shared by everything in the library.
    """

    #: Registry key and display name, e.g. ``"euclidean"``.
    name: str = ""

    @abc.abstractmethod
    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """All-pairs distances: ``(len(a), len(b))`` matrix.

        Leading dimensions batch like ``matmul``: ``(..., m, d)`` against
        ``(..., p, d)`` gives ``(..., m, p)``, each matrix of the stack
        computed exactly as a 2-D call would compute it.
        """

    @abc.abstractmethod
    def one_to_many(self, query: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Distances from one query vector to each row of ``points``."""

    def one_to_many_runs(self, queries: np.ndarray, points: np.ndarray,
                         counts: np.ndarray) -> np.ndarray:
        """:meth:`one_to_many` for many queries in one call.

        ``points`` holds one run of ``counts[i]`` rows per query, back to
        back; run ``i`` gets exactly the bytes
        ``one_to_many(queries[i], run)`` would return (overrides compute
        all runs at once in a form that is byte-equal per run).
        """
        ends = np.cumsum(counts)
        out = np.empty(len(points))
        for run in np.flatnonzero(counts):
            start, end = ends[run] - counts[run], ends[run]
            out[start:end] = self.one_to_many(queries[run],
                                              points[start:end])
        return out

    def rows_to_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise distances between two equal-shaped matrices."""
        if a.shape != b.shape:
            raise ConfigurationError(
                f"rows_to_rows requires equal shapes, got {a.shape} and "
                f"{b.shape}"
            )
        return self._rows_to_rows(a, b)

    @abc.abstractmethod
    def _rows_to_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise distance implementation (shapes already validated)."""

    @abc.abstractmethod
    def flops_per_distance(self, n_dims: int) -> int:
        """Floating-point operations of one distance (CPU cost model)."""


class EuclideanMetric(Metric):
    """Squared Euclidean distance (ordering-equivalent to L2)."""

    name = "euclidean"

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        a_sq = np.einsum("...ij,...ij->...i", a, a)[..., :, None]
        b_sq = np.einsum("...ij,...ij->...i", b, b)[..., None, :]
        cross = a @ np.swapaxes(b, -1, -2)
        out = a_sq + b_sq - 2.0 * cross
        np.maximum(out, 0.0, out=out)
        return out

    def one_to_many(self, query: np.ndarray, points: np.ndarray) -> np.ndarray:
        diff = np.asarray(points, dtype=np.float64) - np.asarray(
            query, dtype=np.float64)
        return np.einsum("ij,ij->i", diff, diff)

    def one_to_many_runs(self, queries: np.ndarray, points: np.ndarray,
                         counts: np.ndarray) -> np.ndarray:
        # One flat diff + einsum: a row's reduction never depends on the
        # rows beside it, so every run matches its own one_to_many call.
        return self._rows_to_rows(
            points, np.repeat(np.asarray(queries, dtype=np.float64),
                              counts, axis=0))

    def _rows_to_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
        return np.einsum("ij,ij->i", diff, diff)

    def flops_per_distance(self, n_dims: int) -> int:
        # One subtract + one FMA per dimension, plus the reduction adds.
        return 3 * n_dims


class CosineMetric(Metric):
    """Cosine distance ``1 - cos(a, b)``.

    Zero vectors are assigned similarity 0 (distance 1) rather than NaN so
    that degenerate inputs stay orderable.
    """

    name = "cosine"

    @staticmethod
    def _normalize(matrix: np.ndarray) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=np.float64)
        norms = np.linalg.norm(matrix, axis=-1, keepdims=True)
        safe = np.where(norms > 0.0, norms, 1.0)
        return matrix / safe

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return 1.0 - self._normalize(a) @ np.swapaxes(self._normalize(b),
                                                      -1, -2)

    def one_to_many(self, query: np.ndarray, points: np.ndarray) -> np.ndarray:
        q = self._normalize(np.asarray(query)[None, :])[0]
        return 1.0 - self._normalize(points) @ q

    def one_to_many_runs(self, queries: np.ndarray, points: np.ndarray,
                         counts: np.ndarray) -> np.ndarray:
        # Rows normalise independently, so one pass serves every run; the
        # product stays one gemv per run — a gemv's blocking depends on
        # its row count, so a shared product would round differently.
        rows = self._normalize(points)
        unit_queries = self._normalize(queries)
        ends = np.cumsum(counts)
        out = np.empty(len(points))
        for run in np.flatnonzero(counts):
            start, end = ends[run] - counts[run], ends[run]
            out[start:end] = 1.0 - rows[start:end] @ unit_queries[run]
        return out

    def _rows_to_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return 1.0 - np.einsum(
            "ij,ij->i", self._normalize(a), self._normalize(b))

    def flops_per_distance(self, n_dims: int) -> int:
        # Dot product + two norms (amortised: data vectors are usually
        # pre-normalised, but we charge the general case).
        return 4 * n_dims


METRICS: Dict[str, Metric] = {
    EuclideanMetric.name: EuclideanMetric(),
    CosineMetric.name: CosineMetric(),
}
"""Registry of shared, stateless metric instances."""


def get_metric(name: str) -> Metric:
    """Look up a metric by registry name.

    Raises:
        ConfigurationError: For unknown names, listing the valid ones.
    """
    try:
        return METRICS[name]
    except KeyError:
        valid = ", ".join(sorted(METRICS))
        raise ConfigurationError(
            f"unknown metric {name!r}; valid metrics: {valid}"
        ) from None
