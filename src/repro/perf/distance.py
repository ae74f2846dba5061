"""GEMM-style distance engines for the GANNS traversal.

A textbook evaluator (the batched oracle's, ``tests/oracles/``) re-casts
the whole point matrix on every search invocation and, for the euclidean
metric, materialises a ``(m, l_t, d)`` difference tensor per iteration.
The engines here avoid both costs:

- **dtype preservation** — float32 data stays float32 end to end (the
  compute dtype is explicit, never silently widened);
- **precomputed norms** — the engine prepares the rows and takes the
  squared norms once through the metric's hooks
  (:mod:`repro.metrics.distance`: cosine pre-normalises, euclidean
  keeps ``‖p‖²`` per engine and ``‖q‖²`` per batch), so the
  per-iteration work is row gathers and GEMM-shaped einsums, turned
  into distances by ``metric.from_products`` — the engine never names a
  metric;
- **cache-blocked gathers** — a call gathers and reduces its rows in
  blocks of about :data:`CHUNK_ELEMENTS` gathered elements
  (:func:`row_blocks`, 256 KB of float64), so a block's gathered rows
  are still in cache when the einsum reads them back; a whole
  high-dimensional iteration in one piece (8,000 rows of d=960 per
  operand) would stream tens of MB through DRAM twice.  Each product
  is one row's own dot product, so the blocks' bytes are the whole
  call's; the norm gathers and ``from_products`` are elementwise and
  run once per call.  NN-descent's and CAGRA's distance chunks
  (:mod:`repro.core.knng`, :mod:`repro.core.cagra`) follow the same
  rule;
- **preparation caching** — the cast matrix and its norms are cached
  per ``(points, metric, dtype)`` and reused across search calls (the
  serving engine dispatches thousands of small batches against one
  immutable point set).  Entries leave when their matrix is collected
  (:mod:`repro.perf.identity_cache`), so the cache neither extends a
  matrix's lifetime nor thrashes however many corpora are in rotation.

Numerical contract: cosine and inner-product evaluation is the *same*
arithmetic as the oracle's (bit-identical results); the euclidean norm
expansion is algebraically equal to its diff-einsum but rounds
differently in the last ~2 ulp, so distances agree to a dtype-scaled
tolerance and neighbor *identities* agree whenever candidate distance
gaps exceed that noise — which the oracle suite
(``tests/test_perf_equivalence.py``) enforces on every covered
workload.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.errors import SearchError
from repro.metrics.distance import Metric
from repro.perf.identity_cache import IdentityCache

#: Compute dtypes the engines accept.
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

#: Distances are accumulated in float64 unless the caller pins another
#: dtype explicitly — the historical (and golden-file) behaviour.
DEFAULT_COMPUTE_DTYPE = np.dtype(np.float64)


def resolve_compute_dtype(points: np.ndarray, queries: np.ndarray,
                          dtype: Optional[object] = None) -> np.dtype:
    """Resolve (and validate) the distance compute dtype.

    Args:
        points: ``(n, d)`` data matrix.
        queries: ``(m, d)`` query matrix.
        dtype: Explicit compute dtype (``np.float32``/``np.float64``),
            or ``None`` for the pinned default (float64).

    Returns:
        The dtype every distance in this search is computed in.

    Raises:
        SearchError: When points and queries carry *different* dtypes —
            floating or otherwise (an int32 query matrix against a
            float64 corpus is the same silent-upcast trap) — or when an
            unsupported dtype is requested.
    """
    p_dtype, q_dtype = points.dtype, queries.dtype
    if p_dtype != q_dtype:
        raise SearchError(
            f"mixed-dtype search: points are {p_dtype} but queries are "
            f"{q_dtype}; cast one side explicitly (e.g. "
            f"queries.astype(points.dtype)) so no silent upcast hides "
            f"the copy"
        )
    if dtype is None:
        return DEFAULT_COMPUTE_DTYPE
    resolved = np.dtype(dtype)
    if resolved not in SUPPORTED_DTYPES:
        raise SearchError(
            f"unsupported compute dtype {resolved}; valid: "
            f"{tuple(str(d) for d in SUPPORTED_DTYPES)}"
        )
    return resolved


class _PreparedPoints:
    """Per-point quantities derived from one matrix.

    ``matrix`` is ``None`` when the points already are the prepared
    matrix (contiguous, compute dtype, no normalisation): a cached value
    must not reference its own key (:mod:`repro.perf.identity_cache`).
    """

    __slots__ = ("matrix", "norms")

    def __init__(self, matrix: Optional[np.ndarray],
                 norms: Optional[np.ndarray]):
        self.matrix = matrix
        self.norms = norms


_PREPARED_CACHE = IdentityCache()


def _prepare_points(points: np.ndarray, metric: Metric,
                    dtype: np.dtype) -> _PreparedPoints:
    """Cast + precompute for one point matrix, cached by identity."""

    def build() -> _PreparedPoints:
        cast = np.ascontiguousarray(points, dtype=dtype)
        rows = metric.prepare(cast)
        return _PreparedPoints(None if rows is points else rows,
                               metric.sq_norms(cast))

    return _PREPARED_CACHE.get(points, (metric.name, dtype), build)


#: Elements per gathered block: 256 KB of float64, so the gather, the
#: product and the reduction of a block stay in cache.
CHUNK_ELEMENTS = 1 << 15


def row_blocks(n_rows: int, row_elements: int) -> Iterator[slice]:
    """Consecutive slices covering ``range(n_rows)``, each at most
    :data:`CHUNK_ELEMENTS` elements at ``row_elements`` a row (one row
    at least) — the one chunk rule of every bulk distance gather."""
    step = max(1, CHUNK_ELEMENTS // max(row_elements, 1))
    for lo in range(0, n_rows, step):
        yield slice(lo, lo + step)


def _gathered_products(rows: np.ndarray, queries: np.ndarray,
                       query_rows: np.ndarray,
                       cand_ids: np.ndarray) -> np.ndarray:
    """``(m, w)`` products of each listed query with its candidate rows,
    gathered and reduced a :func:`row_blocks` block at a time.

    Negative ids clip to row 0.  Rows stored narrower than the queries
    (float16 / int8 codes) are cast to the queries' dtype a block at a
    time.
    """
    row_elements = cand_ids.shape[1] * rows.shape[1]
    if len(query_rows) * row_elements <= CHUNK_ELEMENTS:
        # One block: no generator, output buffer or sliced ``out=``.
        return _block_products(rows, queries, query_rows, cand_ids)
    products = np.empty(cand_ids.shape, dtype=queries.dtype)
    for block in row_blocks(len(query_rows), row_elements):
        _block_products(rows, queries, query_rows[block], cand_ids[block],
                        out=products[block])
    return products


def _block_products(rows: np.ndarray, queries: np.ndarray,
                    query_rows: np.ndarray, cand_ids: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """One block of :func:`_gathered_products`: one gather, one einsum."""
    gathered = np.take(rows, cand_ids, axis=0, mode="clip")
    if gathered.dtype != queries.dtype:
        gathered = gathered.astype(queries.dtype)
    return np.einsum("mtd,md->mt", gathered, queries[query_rows], out=out)


def _gathered_distances(metric: Metric, products: np.ndarray,
                        point_norms: Optional[np.ndarray],
                        query_norms: Optional[np.ndarray],
                        query_rows: np.ndarray,
                        cand_ids: np.ndarray) -> np.ndarray:
    """``metric.from_products`` for a ``(query rows, candidate ids)``
    gather, with the norms gathered alongside when the metric has them."""
    if point_norms is None:
        return metric.from_products(products)
    return metric.from_products(
        products, np.take(point_norms, cand_ids, mode="clip"),
        query_norms[query_rows, None])


class GroupDistanceEngine:
    """Vectorised (active-queries x candidates) distance evaluator.

    One instance is
    built per search call (cheap — point preparation is cached) and its
    :meth:`pairs` method is invoked once per iteration.

    Args:
        metric: The graph's :class:`~repro.metrics.distance.Metric`.
        points: ``(n, d)`` data matrix.
        queries: ``(m, d)`` query matrix.
        dtype: Compute dtype (see :func:`resolve_compute_dtype`).
    """

    def __init__(self, metric: Metric, points: np.ndarray,
                 queries: np.ndarray, dtype: np.dtype):
        self.metric = metric
        self.dtype = np.dtype(dtype)
        prepared = _prepare_points(points, metric, self.dtype)
        self.points = (points if prepared.matrix is None
                       else prepared.matrix)
        self.point_norms = prepared.norms
        queries = np.ascontiguousarray(queries, dtype=self.dtype)
        self.queries = metric.prepare(queries)
        self.query_norms = metric.sq_norms(queries)

    def pairs(self, query_rows: np.ndarray,
              cand_ids: np.ndarray) -> np.ndarray:
        """Distances from each listed query to its candidate row.

        Args:
            query_rows: ``(m,)`` indices into the query matrix.
            cand_ids: ``(m, w)`` candidate point ids; negative ids are
                treated as id 0 (callers overwrite those lanes with
                ``inf`` afterwards).

        Returns:
            ``(m, w)`` distances in the engine's compute dtype, the
            products taken a :func:`row_blocks` block at a time.
        """
        dots = _gathered_products(self.points, self.queries, query_rows,
                                  cand_ids)
        return _gathered_distances(self.metric, dots, self.point_norms,
                                   self.query_norms, query_rows, cand_ids)


def make_distance_engine(metric: Metric, points: np.ndarray,
                         queries: np.ndarray,
                         dtype: np.dtype) -> GroupDistanceEngine:
    """Build the distance engine for one search invocation."""
    return GroupDistanceEngine(metric, points, queries, dtype)
