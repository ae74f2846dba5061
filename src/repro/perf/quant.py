"""Quantized distance tables for the staged (compressed-first) search.

The GANNS kernels are distance-bound: at d=256 the per-iteration GEMM
over full-precision vectors dominates the wall clock, and the full
point matrix is the one buffer that may not fit device memory.  This
module supplies the *compressed traversal* half of the staged pipeline
(PilotANN's memory-bounded pattern, CAGRA's refinement step): the graph
walk runs over a reduced representation of the corpus, then
:func:`repro.perf.engine.ganns_search_staged` reranks the over-fetched
candidate pool with exact full-precision distances.

Three representations, selected by ``SearchParams(quant=...)`` (and by
nothing else — ``None`` is the exact search):

- ``"fp16"`` — float16 storage (2 bytes/component).  Distances are
  accumulated in float32; the representation error is the half-float
  rounding of each component.
- ``"int8"`` — per-dimension affine quantization (1 byte/component plus
  two float32 per *dimension*): ``x_hat = scale * code + beta``.  The
  per-dimension scales fold into the query once per batch, so the
  per-iteration work is an int8 gather plus a float32 GEMM — the
  traversal never dequantizes the table.
- ``"pca"`` — PCA-reduced float32 (``pca_rank(d)`` components,
  4 bytes each).  This is the raw-speed lever: the traversal GEMM
  shrinks by ``d / rank``, which is how the staged pipeline clears the
  4x wall-clock target on the d=256 workload.

**Honesty contract**: all three are lossy.  A quantized traversal can
rank candidates differently from the exact kernel, so the staged
pipeline must rerank and the harnesses must report recall deltas
(``scripts/gates.py quant``'s ``recall_delta`` gate, the
conformance suite's per-family ``quant_recall_delta`` floors).  The
serving layers namespace their result caches by quant mode so a lossy
hit can never answer an exact request.

Tables are cached per ``(points identity, mode, metric)`` for as long
as the corpus matrix lives (:mod:`repro.perf.identity_cache`) — the
serving engine dispatches thousands of micro-batches against one
immutable corpus, and quantization (one pass over the matrix; one thin
SVD for PCA) is paid once, not per batch.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, SearchError
from repro.metrics.distance import Metric, get_metric
from repro.perf.distance import _gathered_distances, \
    _gathered_products
from repro.perf.identity_cache import IdentityCache

#: The lossy representations the staged pipeline can traverse on.
QUANT_MODES = ("fp16", "int8", "pca")


#: Stored bits per retained component, by mode (PCA keeps float32
#: components — its saving is rank reduction, not narrower words).
QUANT_BITS = {"fp16": 16, "int8": 8, "pca": 32}


def pca_rank(n_dims: int) -> int:
    """Retained components for ``mode="pca"``: ``max(16, d // 8)``.

    Every synthetic generator (and the descriptor datasets they stand in
    for) concentrates near a low-dimensional manifold, so an 8x ambient
    reduction keeps the neighborhood structure the traversal needs; the
    16-component floor stops tiny-d corpora from degenerating.  Capped
    at ``d`` — below 16 ambient dimensions PCA is a rotation, not a
    reduction, and only exercises the pipeline.
    """
    return min(int(n_dims), max(16, int(n_dims) // 8))


class QuantizedTable:
    """One corpus in one compressed representation.

    Built by :func:`quantize_points`; consumed by
    :class:`QuantizedGroupEngine` (traversal distances) and by the
    footprint reporters (``bytes_per_vector`` columns in the bake-off
    harness and the benchmark's layer table).

    Attributes:
        mode: ``"fp16"``, ``"int8"`` or ``"pca"``.
        metric: :class:`~repro.metrics.distance.Metric` the table was
            prepared for (its rows went through ``metric.prepare``, so
            cosine tables store normalised rows).
        codes: The stored matrix — ``(n, d)`` float16/int8, or
            ``(n, rank)`` float32 for PCA.
        code_norms: ``(n,)`` float32 ``metric.sq_norms`` of the
            represented vectors (``None`` for metrics without norms).
        scales / betas: int8 affine parameters (``x_hat = scale * code
            + beta``); ``None`` for other modes.
        mean / components: PCA centering vector and ``(d, rank)``
            projection; ``mean`` is ``None`` for metrics without norms
            (centering would shift their products).
    """

    __slots__ = ("mode", "metric", "n_points", "n_dims", "codes",
                 "code_norms", "scales", "betas", "mean", "components")

    def __init__(self, mode: str, metric: Metric, n_points: int,
                 n_dims: int, codes: np.ndarray,
                 code_norms: Optional[np.ndarray] = None,
                 scales: Optional[np.ndarray] = None,
                 betas: Optional[np.ndarray] = None,
                 mean: Optional[np.ndarray] = None,
                 components: Optional[np.ndarray] = None):
        self.mode = mode
        self.metric = metric
        self.n_points = int(n_points)
        self.n_dims = int(n_dims)
        self.codes = codes
        self.code_norms = code_norms
        self.scales = scales
        self.betas = betas
        self.mean = mean
        self.components = components

    # ------------------------------------------------------------------
    # Footprint accounting (the corpus-doesn't-fit scenario)
    # ------------------------------------------------------------------

    @property
    def rank(self) -> int:
        """Retained components per vector (``d`` for fp16/int8)."""
        return int(self.codes.shape[1])

    def bytes_per_vector(self) -> float:
        """Device bytes per corpus vector, side tables amortised in.

        int8 carries two float32 per *dimension* (scale, beta) shared by
        every vector; euclidean tables carry one float32 norm per
        vector.  Both are charged here so the footprint columns are
        honest about the whole resident representation.
        """
        per_vector = self.codes.shape[1] * self.codes.dtype.itemsize
        if self.code_norms is not None:
            per_vector += self.code_norms.dtype.itemsize
        shared = 0
        for side in (self.scales, self.betas, self.mean, self.components):
            if side is not None:
                shared += side.nbytes
        return float(per_vector) + shared / max(self.n_points, 1)


def _build_table(points: np.ndarray, mode: str,
                 metric: Metric) -> QuantizedTable:
    # The float32 rows the table represents (cosine: normalised).
    source = metric.prepare(np.ascontiguousarray(points, dtype=np.float32))
    n, d = source.shape

    if mode == "fp16":
        codes = source.astype(np.float16)
        norms = metric.sq_norms(codes.astype(np.float32))
        return QuantizedTable(mode, metric, n, d, codes, code_norms=norms)

    if mode == "int8":
        lo = source.min(axis=0)
        hi = source.max(axis=0)
        span = hi - lo
        # Constant dimensions quantize to code 0 with beta carrying the
        # value; a unit scale keeps the affine map invertible.
        scales = np.where(span > 0.0, span / 255.0, 1.0).astype(np.float32)
        codes = np.clip(np.rint((source - lo) / scales) - 128.0,
                        -128, 127).astype(np.int8)
        betas = (lo + 128.0 * scales).astype(np.float32)
        norms = metric.sq_norms(codes.astype(np.float32) * scales + betas)
        return QuantizedTable(mode, metric, n, d, codes,
                              code_norms=norms, scales=scales,
                              betas=betas)

    if mode == "pca":
        rank = min(pca_rank(d), n)
        # Centering preserves a norm-expansion distance (a shared shift
        # cancels in p - q) but shifts bare products, so metrics without
        # norms project the raw (prepared) rows.
        mean = (source.mean(axis=0, dtype=np.float64).astype(np.float32)
                if metric.sq_norms(source[:1]) is not None else None)
        centered = source - mean if mean is not None else source
        # Thin SVD of the (possibly centered) corpus; the top right
        # singular vectors are the PCA basis.  Deterministic for a
        # given input matrix, which the byte-determinism gate relies
        # on.
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        components = np.ascontiguousarray(vt[:rank].T, dtype=np.float32)
        codes = np.ascontiguousarray(centered @ components)
        return QuantizedTable(mode, metric, n, d, codes,
                              code_norms=metric.sq_norms(codes), mean=mean,
                              components=components)

    raise ConfigurationError(
        f"unknown quantization mode {mode!r}; valid: {QUANT_MODES}"
    )


_TABLE_CACHE = IdentityCache()


def quantize_points(points: np.ndarray, mode: str,
                    metric_name: str = "euclidean") -> QuantizedTable:
    """Build (or fetch the cached) quantized table for one corpus.

    Args:
        points: ``(n, d)`` data matrix.
        mode: A mode from :data:`QUANT_MODES`.
        metric_name: A registered metric name (see
            :func:`~repro.metrics.distance.get_metric`).

    Returns:
        The corpus's :class:`QuantizedTable` in that representation.
    """
    points = np.asarray(points)
    if points.ndim != 2 or points.shape[0] == 0:
        raise SearchError(
            f"points must be a non-empty 2-D matrix, got shape "
            f"{points.shape}"
        )
    metric = get_metric(metric_name)
    return _TABLE_CACHE.get(
        points, (mode, metric_name),
        lambda: _build_table(points, mode, metric))


class QuantizedGroupEngine:
    """Compressed-space drop-in for :class:`GroupDistanceEngine`.

    Same ``pairs(query_rows, cand_ids)`` interface as the exact engine,
    so the traversal loop in :mod:`repro.perf.engine` runs unchanged,
    and the same cache-blocked gather
    (:func:`repro.perf.distance.row_blocks`: each block's codes are cast
    to float32 and reduced while they are in cache) — only the
    arithmetic differs:

    - fp16: gather half floats, accumulate the GEMM in float32;
    - int8: the affine map folds into the query (``scales * q`` once
      per batch), so the hot path is an int8 gather plus one float32
      einsum — codes are never dequantized;
    - pca: queries project into the retained subspace once, then the
      traversal is the ordinary norm-expansion GEMM at the reduced
      rank.

    All distances return float32 (the staged pipeline's traversal
    dtype); exactness is restored by the full-precision rerank, never
    here.
    """

    def __init__(self, table: QuantizedTable, queries: np.ndarray):
        self.table = table
        self.metric = table.metric
        queries = self.metric.prepare(
            np.ascontiguousarray(queries, dtype=np.float32))

        self.query_bias = None
        if table.mode == "int8":
            # Fold the per-dimension affine map into the query:
            # x_hat . q = (scales * q) . code + betas . q.
            self.queries = queries * table.scales
            self.query_bias = queries @ table.betas
        elif table.mode == "pca":
            projected = queries - table.mean if table.mean is not None \
                else queries
            self.queries = np.ascontiguousarray(
                projected @ table.components)
        else:  # fp16
            self.queries = queries
        # ||q||^2 lives where the codes do: in the ambient space for int8
        # (its folded queries are scaled), in the retained one for pca.
        self.query_norms = self.metric.sq_norms(
            queries if table.mode == "int8" else self.queries)

    def pairs(self, query_rows: np.ndarray,
              cand_ids: np.ndarray) -> np.ndarray:
        """Compressed-space distances, same contract as the exact engine.

        Negative candidate ids clip to row 0; callers overwrite those
        lanes with ``inf`` afterwards, exactly as the exact path does.
        """
        table = self.table
        sims = _gathered_products(table.codes, self.queries, query_rows,
                                  cand_ids)
        if self.query_bias is not None:
            sims += self.query_bias[query_rows, None]
        return _gathered_distances(self.metric, sims, table.code_norms,
                                   self.query_norms, query_rows, cand_ids)


def charged_dims(table: QuantizedTable) -> int:
    """Dimensions to charge the cost model per traversal distance.

    The simulated kernel prices a distance by its float32 component
    count; compressed representations process more components per cycle
    (half2 math for fp16, DP4A-style int8 lanes) or simply fewer of
    them (PCA).  Lossy traversal makes no charge-equivalence promise —
    this is the staged pipeline's own cost model, reconciled end to end
    by the zero-drift checks but *different* from the exact kernel's.
    """
    if table.mode == "fp16":
        return max(1, (table.n_dims + 1) // 2)
    if table.mode == "int8":
        return max(1, (table.n_dims + 3) // 4)
    return table.rank
