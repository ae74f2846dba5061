"""Distance metrics: squared Euclidean, cosine and inner product.

A :class:`Metric` is the only code that knows a metric's arithmetic:
graphs, searches, construction and ground truth call its distance forms,
which cast their inputs to float64, and the GEMM and quantized engines,
the HNSW descent and NN-Descent ask its three hooks, never its name:

- :meth:`Metric.prepare` — the rows a distance is taken over, in their
  own dtype: cosine unit-normalises them (zero rows pass through), the
  others pass them through;
- :meth:`Metric.sq_norms` — the squared row norms the euclidean norm
  expansion needs (``None`` for every other metric);
- :meth:`Metric.from_products` — products of prepared rows to distances:
  ``‖p‖² − 2·p·q + ‖q‖²``, or ``1 − s`` in the products' dtype, or
  ``−s``.

A metric defined by products alone (cosine, inner product) gets every
distance form from the base class, in the product form with matmul
batching.  Euclidean keeps its own diff-einsum forms and ``pairwise``:
they are the byte contract of Algorithm 1, the HNSW descent and ground
truth.

Notes on conventions:

- Euclidean comparisons use the *squared* distance; it induces the same
  ordering as the true distance and this is what both SONG's and the
  paper's CUDA kernels compute (no square root on the hot path).
- Cosine *similarity* ``s`` is converted to the distance ``1 - s`` so that
  "smaller is closer" holds uniformly for every metric.
- Inner product ``s`` becomes ``-s``: not a metric (no triangle
  inequality, not even non-negative), but proximity-graph search only
  needs a comparable score, and the top-k under ``-s`` are exactly the
  maximum-inner-product results — the ranking recommendation systems
  (an application the paper's introduction names) retrieve by.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigurationError


class Metric(abc.ABC):
    """Strategy interface for a vector distance.

    Implementations must be stateless; a single module-level instance is
    shared by everything in the library.
    """

    #: Registry key and display name, e.g. ``"euclidean"``.
    name: str = ""

    def prepare(self, rows: np.ndarray) -> np.ndarray:
        """The rows distances are taken over (same dtype as ``rows``)."""
        return rows

    def sq_norms(self, rows: np.ndarray) -> Optional[np.ndarray]:
        """Squared norms of ``(n, d)`` rows for the norm expansion, or
        ``None`` when products alone define the distance."""
        return None

    @abc.abstractmethod
    def from_products(self, products: np.ndarray,
                      point_norms: Optional[np.ndarray] = None,
                      query_norms: Optional[np.ndarray] = None
                      ) -> np.ndarray:
        """Distances from products of prepared rows.

        ``point_norms`` / ``query_norms`` are the :meth:`sq_norms` of the
        two sides, broadcast against ``products``; metrics without norms
        ignore them.
        """

    def _prepared64(self, rows: np.ndarray) -> np.ndarray:
        return self.prepare(np.asarray(rows, dtype=np.float64))

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """All-pairs distances: ``(len(a), len(b))`` matrix.

        Leading dimensions batch like ``matmul``: ``(..., m, d)`` against
        ``(..., p, d)`` gives ``(..., m, p)``, each matrix of the stack
        computed exactly as a 2-D call would compute it.
        """
        return self.from_products(
            self._prepared64(a) @ np.swapaxes(self._prepared64(b), -1, -2))

    def one_to_many(self, query: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Distances from one query vector to each row of ``points``."""
        q = self._prepared64(np.asarray(query)[None, :])[0]
        return self.from_products(self._prepared64(points) @ q)

    def one_to_many_runs(self, queries: np.ndarray, points: np.ndarray,
                         counts: np.ndarray) -> np.ndarray:
        """:meth:`one_to_many` for many queries in one call.

        ``points`` holds one run of ``counts[i]`` rows per query, back to
        back; run ``i`` gets exactly the bytes
        ``one_to_many(queries[i], run)`` would return.
        """
        # Rows prepare independently, so one pass serves every run; the
        # product stays one gemv per run — a gemv's blocking depends on
        # its row count, so a shared product would round differently.
        rows = self._prepared64(points)
        prepared_queries = self._prepared64(queries)
        ends = np.cumsum(counts)
        out = np.empty(len(points))
        for run in np.flatnonzero(counts):
            start, end = ends[run] - counts[run], ends[run]
            out[start:end] = self.from_products(
                rows[start:end] @ prepared_queries[run])
        return out

    def prepared_rows_to_rows(self, a: np.ndarray,
                              b: np.ndarray) -> np.ndarray:
        """Distances between aligned rows already through :meth:`prepare`.

        ``b`` broadcasts against ``a``: ``(..., d)`` rows give ``(...)``
        distances.  ``a`` is scratch the call may overwrite, so callers
        pass a fresh array (a gather, a copy).
        """
        return self.from_products(np.einsum("...d,...d->...", a, b))

    @abc.abstractmethod
    def flops_per_distance(self, n_dims: int) -> int:
        """Floating-point operations of one distance (CPU cost model)."""


class EuclideanMetric(Metric):
    """Squared Euclidean distance (ordering-equivalent to L2)."""

    name = "euclidean"

    def sq_norms(self, rows: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", rows, rows)

    def from_products(self, products: np.ndarray,
                      point_norms: Optional[np.ndarray] = None,
                      query_norms: Optional[np.ndarray] = None
                      ) -> np.ndarray:
        return point_norms - 2.0 * products + query_norms

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
        return self.prepared_rows_to_rows(
            np.asarray(queries, dtype=np.float64).repeat(counts, axis=0),
            np.asarray(points, dtype=np.float64))

    def prepared_rows_to_rows(self, a: np.ndarray,
                              b: np.ndarray) -> np.ndarray:
        # In place: a fresh difference buffer per call costs more than
        # the reduction at NN-Descent's chunk size.  q - p and p - q
        # square to the same bytes.
        a -= b
        return np.einsum("...d,...d->...", a, a)

    def flops_per_distance(self, n_dims: int) -> int:
        # One subtract + one FMA per dimension, plus the reduction adds.
        return 3 * n_dims


class CosineMetric(Metric):
    """Cosine distance ``1 - cos(a, b)``.

    Zero vectors are assigned similarity 0 (distance 1) rather than NaN so
    that degenerate inputs stay orderable.
    """

    name = "cosine"

    def prepare(self, rows: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(rows, axis=-1, keepdims=True)
        # A row whose squared norm falls below the normal range lost
        # bits (or underflowed to a "zero" vector): scale it to unit
        # peak first.  Every other row keeps its exact arithmetic.
        small = norms < np.sqrt(np.finfo(norms.dtype).tiny)
        if small.any():
            peak = np.abs(rows).max(axis=-1, keepdims=True)
            rows = np.where(small, rows / np.where(peak > 0.0, peak, 1.0),
                            rows)
            norms = np.linalg.norm(rows, axis=-1, keepdims=True)
        return rows / np.where(norms > 0.0, norms, 1.0)

    def from_products(self, products: np.ndarray,
                      point_norms: Optional[np.ndarray] = None,
                      query_norms: Optional[np.ndarray] = None
                      ) -> np.ndarray:
        return products.dtype.type(1.0) - products

    def flops_per_distance(self, n_dims: int) -> int:
        # Dot product + two norms (amortised: data vectors are usually
        # pre-normalised, but we charge the general case).
        return 4 * n_dims


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


METRICS: Dict[str, Metric] = {
    EuclideanMetric.name: EuclideanMetric(),
    CosineMetric.name: CosineMetric(),
    InnerProductMetric.name: InnerProductMetric(),
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
