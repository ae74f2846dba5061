"""High-level user API: :class:`GannsIndex`.

Everything the library offers behind one object: build a proximity graph
of any registered family (NSW / HNSW / KNN / CAGRA — see
:mod:`repro.core.backend`), search it (GANNS, SONG or the CPU beam
baseline), evaluate recall, and persist to disk.

Example:
    >>> from repro import GannsIndex
    >>> index = GannsIndex.build(points, graph_type="nsw")
    >>> ids, dists = index.search(queries, k=10)
"""

from __future__ import annotations

import os
import zipfile
import zlib
from typing import Optional, Tuple, Union

import numpy as np

from repro.baselines.beam import beam_search_lanes
from repro.baselines.song import SongParams, song_search
from repro.core.backend import get_backend
from repro.core.ganns import check_queries, ganns_search
from repro.core.hnsw import recover_original_ids
from repro.core.params import BuildParams, SearchParams, as_count, next_pow2
from repro.core.results import ConstructionReport, SearchReport
from repro.errors import ConfigurationError, SearchError
from repro.gpusim.tracker import CycleTracker
from repro.graphs.adjacency import HierarchicalGraph, ProximityGraph
from repro.graphs.validation import validate_graph
from repro.metrics.distance import get_metric
from repro.metrics.recall import recall_at_k
from repro.perf.descent import hnsw_entry_descent_batch

SEARCH_ALGORITHMS = ("ganns", "song", "beam")

_INDEX_FORMAT_VERSION = 1


class GannsIndex:
    """A built proximity-graph index over a fixed point set.

    Build with :meth:`build` (or call the constructor on a pre-built
    graph); query with :meth:`search`.  For HNSW indices, ids returned by
    search are automatically mapped back to the caller's original point
    ids.
    """

    def __init__(self, points: np.ndarray,
                 graph: Union[ProximityGraph, HierarchicalGraph],
                 graph_type: str, metric: str,
                 order: Optional[np.ndarray] = None,
                 build_report: Optional[ConstructionReport] = None):
        #: The family's registered backend (raises
        #: :class:`~repro.errors.UnknownFamilyError` on unknown names).
        self.backend = get_backend(graph_type)
        self.points = np.asarray(points)
        self.graph = graph
        self.graph_type = graph_type
        self.metric = metric
        #: HNSW only: ``order[shuffled_id] = original_id``.
        self.order = order
        self.build_report = build_report

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, points: np.ndarray, graph_type: str = "nsw",
              strategy: str = "ggraphcon", metric: str = "euclidean",
              params: Optional[BuildParams] = None,
              search_kernel: str = "ganns", knn_k: int = 16,
              **kwargs) -> "GannsIndex":
        """Build an index.

        Args:
            points: ``(n, d)`` float matrix.
            graph_type: A registered index family —
                :func:`repro.core.backend.backend_families` lists them
                (``"nsw"``, ``"hnsw"``, ``"knn"``, ``"cagra"``, ...).
            strategy: ``"ggraphcon"`` (the paper's scheme),
                ``"naive-parallel"`` or ``"serial"`` (NSW only).
            metric: ``"euclidean"``, ``"cosine"`` or ``"ip"`` (negative
                inner product: maximum inner-product search).
            params: Build parameters (defaults to the evaluation defaults,
                d_max=32 / d_min=16, with GGraphCon's grid following the
                corpus: ``BuildParams.blocks_for(len(points))`` groups of
                about ten points, at most 800).
            search_kernel: ``"ganns"`` or ``"song"`` construction searches
                (NSW / HNSW only).
            knn_k: Row width for ``graph_type="knn"``.
            **kwargs: Forwarded to the family's construction function.

        Returns:
            A ready-to-search :class:`GannsIndex`, its graph validated.

        Raises:
            UnknownFamilyError: When ``graph_type`` is not registered.
            ConfigurationError: When the family ignores ``strategy`` or
                ``search_kernel`` and either is not the default.
            ConstructionError: When ``points`` holds NaN or infinity.
        """
        if params is None:
            params = BuildParams()
        points = np.asarray(points)
        backend = get_backend(graph_type)
        report = backend.build(points, params, metric=metric,
                               strategy=strategy,
                               search_kernel=search_kernel, knn_k=knn_k,
                               **kwargs)
        graph = report.graph
        validate_graph(graph.bottom if isinstance(graph, HierarchicalGraph)
                       else graph)
        if report.order is not None:
            points = points[report.order]
        return cls(points, graph, graph_type, metric, order=report.order,
                   build_report=report)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def _flat_graph(self) -> ProximityGraph:
        if isinstance(self.graph, HierarchicalGraph):
            return self.graph.bottom
        return self.graph

    def _entries(self, queries: np.ndarray) -> Union[int, np.ndarray]:
        """Per-query entry vertices (HNSW descends; flat graphs use 0)."""
        if not isinstance(self.graph, HierarchicalGraph):
            return 0
        entries, _ = hnsw_entry_descent_batch(self.graph, self.points,
                                              queries, self.metric)
        return entries

    def search_report(self, queries: np.ndarray, k: int = 10,
                      algorithm: str = "ganns",
                      l_n: Optional[int] = None, e: Optional[int] = None,
                      n_threads: int = 32,
                      quant: Optional[str] = None,
                      rerank_factor: int = 2) -> SearchReport:
        """Search and return the full :class:`SearchReport`.

        Args:
            queries: ``(m, d)`` query matrix.
            k: Neighbors per query.
            algorithm: ``"ganns"``, ``"song"`` or ``"beam"``.
            l_n: GANNS pool length / SONG queue bound; defaults to the
                smallest power of two >= ``4 * k`` (and >= 32).
            e: GANNS explored-vertex budget.
            n_threads: Threads per simulated block.
            quant: Quantized staged GANNS search (``"fp16"``/``"int8"``/
                ``"pca"``; **lossy** — see ``docs/quantization.md``);
                ``None`` is the exact search.
            rerank_factor: Candidate over-fetch of the staged search
                (pool of ``rerank_factor * l_n`` reranked exactly).
        """
        queries = np.asarray(queries)
        k = as_count(k, "k", error=SearchError)
        if l_n is None:
            l_n = max(32, next_pow2(4 * k))
        flat = self._flat_graph()
        # Before the HNSW descent, which would walk a NaN query anywhere.
        check_queries(self.points, queries, flat, k=k)
        entries = self._entries(queries)

        if algorithm == "ganns":
            params = SearchParams(k=k, l_n=l_n, e=e, n_threads=n_threads,
                                  quant=quant, rerank_factor=rerank_factor)
            report = ganns_search(flat, self.points, queries, params,
                                  entry=entries)
        elif algorithm == "song":
            params = SongParams(k=k, pq_bound=e or l_n, n_threads=n_threads)
            report = song_search(flat, self.points, queries, params,
                                 entry=entries)
        elif algorithm == "beam":
            lanes = beam_search_lanes(flat, self.points, queries, k,
                                      ef=e or l_n, entries=entries)
            report = SearchReport(
                algorithm="beam", ids=lanes.ids, dists=lanes.dists,
                tracker=CycleTracker(len(queries)),
                n_threads=1, shared_mem_bytes=0,
                iterations=lanes.n_iterations,
                n_distance_computations=int(
                    lanes.n_distance_computations.sum()))
        else:
            raise SearchError(
                f"unknown algorithm {algorithm!r}; valid: "
                f"{SEARCH_ALGORITHMS}"
            )

        if self.order is not None:
            report.ids = recover_original_ids(report.ids, self.order)
        return report

    def search(self, queries: np.ndarray, k: int = 10,
               algorithm: str = "ganns", **kwargs
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Search; returns ``(ids, dists)`` arrays of shape ``(m, k)``.

        A row always has ``k`` slots.  A ``k`` larger than the corpus
        raises :class:`~repro.errors.SearchError`; when the search
        reaches fewer than ``k`` vertices (the pool saw fewer), the tail
        pads with id ``-1`` and distance ``inf``.
        """
        report = self.search_report(queries, k, algorithm, **kwargs)
        return report.ids, report.dists

    def evaluate_recall(self, queries: np.ndarray,
                        ground_truth: np.ndarray, k: int = 10,
                        **kwargs) -> float:
        """Recall of this index on a query set with known ground truth."""
        ids, _ = self.search(queries, k, **kwargs)
        return recall_at_k(ids, ground_truth[:, :k])

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: Union[str, os.PathLike]) -> None:
        """Write the index to a ``.npz`` archive.

        The family's backend contributes the graph arrays
        (:meth:`~repro.core.backend.IndexBackend.serialize_graph`), so
        the format follows the family: flat layouts for NSW/KNN/CAGRA,
        the layered layout for HNSW.
        """
        arrays = dict(self.backend.serialize_graph(self.graph))
        if isinstance(self.graph, HierarchicalGraph):
            d_max = self.graph.bottom.d_max
        else:
            d_max = self.graph.d_max
        arrays.update({
            "format_version": np.array(_INDEX_FORMAT_VERSION),
            "points": self.points,
            "graph_type": np.array(self.graph_type),
            "metric": np.array(self.metric),
            "d_max": np.array(d_max),
        })
        if self.order is not None:
            arrays["order"] = self.order
        np.savez_compressed(path, **arrays)

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "GannsIndex":
        """Read an index written by :meth:`save`.

        Raises:
            ConfigurationError: On a format-version or layout mismatch,
                an unknown metric, on a truncated, corrupt or
                incomplete archive, and on a path that cannot be read.
        """
        try:
            with np.load(path, allow_pickle=False) as archive:
                version = int(archive["format_version"])
                if version != _INDEX_FORMAT_VERSION:
                    raise ConfigurationError(
                        f"index file {path!r} has format version {version}, "
                        f"expected {_INDEX_FORMAT_VERSION}"
                    )
                metric = str(archive["metric"])
                get_metric(metric)
                d_max = int(archive["d_max"])
                points = archive["points"]
                graph_type = str(archive["graph_type"])
                backend = get_backend(graph_type)
                kind = str(archive["kind"])
                expected = "hierarchical" if backend.hierarchical else "flat"
                if kind != expected:
                    raise ConfigurationError(
                        f"index file {path!r} stores a {kind!r} graph but "
                        f"family {graph_type!r} expects {expected!r}"
                    )
                graph = backend.deserialize_graph(archive, len(points),
                                                  d_max, metric)
                order = archive["order"] if "order" in archive.files else None
                return cls(points, graph, graph_type, metric, order=order)
        except (zipfile.BadZipFile, EOFError, zlib.error, KeyError,
                ValueError) as exc:
            raise ConfigurationError(
                f"index file {path!r} is truncated or corrupt "
                f"({type(exc).__name__}: {exc})"
            ) from exc
        except OSError as exc:
            raise ConfigurationError(
                f"index file {path!r} cannot be read "
                f"({type(exc).__name__}: {exc.strerror or exc})"
            ) from exc
