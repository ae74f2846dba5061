"""The :class:`IndexBackend` protocol and the index-family registry.

Every graph family the library can build — NSW, HNSW, the plain KNN
graph and the CAGRA-style fixed-degree graph — registers one
:class:`IndexBackend` here.  The backend owns what is family-specific:

- **build**: turning points into a :class:`ConstructionReport`;
- **build_parts**: many corpora built at once (by default one
  :meth:`~IndexBackend.build` each);
- **serving_graphs**: the flat graphs the cluster layer shards over —
  one rule, the family's own build, not a per-family hook;
- **serialize / deserialize**: the family's slice of the ``.npz``
  index format (flat vs hierarchical layouts).

Searching, pricing and quantizing are the same for every family — one
GANNS kernel over the (bottom-layer) flat graph, one cost model, one
set of quantized tables — so they are not hooks.  Everything else —
:class:`~repro.core.index.GannsIndex`, the CLI, the serving and cluster
engines — resolves families by name through :func:`get_backend`, so
adding a family is one subclass plus one :func:`register_backend`
call; the conformance suite (``tests/test_backend_conformance.py``)
picks it up by registration and keeps each family's thresholds.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.cagra import build_cagra_gpu
from repro.core.construction import build_nsw_gpu, build_nsw_gpu_parts
from repro.core.hnsw import build_hnsw_gpu
from repro.core.knng import build_knn_graph_gpu
from repro.core.naive import build_nsw_naive_parallel, build_nsw_serial_gpu
from repro.core.params import BuildParams
from repro.core.results import ConstructionReport
from repro.errors import (
    ConfigurationError,
    GraphError,
    UnknownFamilyError,
    UnsupportedOperationError,
)
from repro.graphs.adjacency import HierarchicalGraph, ProximityGraph

STRATEGIES = ("ggraphcon", "naive-parallel", "serial")

#: GGraphCon groups of every served graph.  On the ``cluster_replay``
#: corpus (4 shards of ~1,000 points, seeds 100-109) 100 groups raise
#: the median recall@10 from 0.962 (one group, GraphCon_NSW) to 0.967
#: and win on every seed; 50 groups read 0.88-0.90 and 200 read
#: 0.95-0.96.  Up to 100 points this is one point per group, where the
#: GGraphCon merge is sequential insertion.  The grid stays explicit
#: rather than following the corpus (``BuildParams.blocks_for``): on
#: the same shards (919-1,065 points) the corpus rule's 91-106 groups
#: read a median recall@10 of 0.952 against 0.967 at 100 groups, and
#: 0.953 / 0.949 / 0.961 against 0.971 / 0.963 / 0.974 on seeds
#: 100-102.
SERVING_N_BLOCKS = 100


class IndexBackend(abc.ABC):
    """One registered index family: build and persist.

    Subclasses set :attr:`family` (the registry key, also the value of
    ``GannsIndex.graph_type``) and implement :meth:`build`; everything else has a flat-graph
    default that some family overrides.
    """

    #: Registry key, e.g. ``"nsw"``.
    family: str = ""
    #: Whether :meth:`build` produces a :class:`HierarchicalGraph`.
    hierarchical: bool = False

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def build(self, points: np.ndarray, params: BuildParams,
              metric: str = "euclidean", **kwargs) -> ConstructionReport:
        """Build this family's graph; returns a construction report."""

    def build_parts(self, parts: Sequence[np.ndarray], params: BuildParams,
                    metric: str = "euclidean",
                    **kwargs) -> List[ConstructionReport]:
        """:meth:`build` of every part, in order.

        A family that can build many corpora in one run overrides this;
        report ``p`` must still equal ``build(parts[p], ...)``.
        """
        return [self.build(points, params, metric, **kwargs)
                for points in parts]

    def serving_graphs(self, parts: Sequence[np.ndarray], d_min: int,
                       d_max: int, metric: str = "euclidean"
                       ) -> List[ProximityGraph]:
        """The flat graph each part serves: this family's own build.

        One rule for every family — ``BuildParams(d_min, d_max,
        n_blocks=SERVING_N_BLOCKS)``, ``knn_k=d_max`` — so a shard is
        built exactly like a whole index, every part through one
        :meth:`build_parts` call.  Hierarchical families have no flat
        graph to serve.
        """
        if self.hierarchical:
            raise UnsupportedOperationError(
                f"index family {self.family!r} has no flat serving graph; "
                f"shard the cluster over a flat family instead"
            )
        params = BuildParams(d_min=d_min, d_max=d_max,
                             n_blocks=SERVING_N_BLOCKS)
        return [report.graph for report
                in self.build_parts(parts, params, metric, knn_k=d_max)]

    # ------------------------------------------------------------------
    # Persistence (the family's slice of the .npz index format)
    # ------------------------------------------------------------------

    def serialize_graph(self, graph) -> Dict[str, np.ndarray]:
        """Arrays persisting ``graph`` (flat layout by default)."""
        if isinstance(graph, HierarchicalGraph):
            raise GraphError(
                f"family {self.family!r} serializes flat graphs, got a "
                f"hierarchical graph"
            )
        return {
            "kind": np.array("flat"),
            "graph_ids": graph.neighbor_ids,
            "graph_dists": graph.neighbor_dists,
            "graph_degrees": graph.degrees,
        }

    def deserialize_graph(self, archive, n_points: int, d_max: int,
                          metric: str):
        """Rebuild the graph from arrays written by :meth:`serialize_graph`.

        ``n_points`` and ``d_max`` are the archive's header, for layouts
        that need them; the flat layout reads both off its arrays.
        """
        return ProximityGraph.from_arrays(
            archive["graph_ids"], archive["graph_dists"],
            archive["graph_degrees"], metric)


class NswBackend(IndexBackend):
    """The paper's NSW family (GGraphCon and the strawman strategies)."""

    family = "nsw"

    def build(self, points: np.ndarray, params: BuildParams,
              metric: str = "euclidean", strategy: str = "ggraphcon",
              search_kernel: str = "ganns", knn_k: int = 16,
              **kwargs) -> ConstructionReport:
        if strategy == "ggraphcon":
            return build_nsw_gpu(points, params,
                                 search_kernel=search_kernel,
                                 metric=metric, **kwargs)
        if strategy == "naive-parallel":
            return build_nsw_naive_parallel(
                points, params, search_kernel=search_kernel,
                metric=metric, **kwargs)
        if strategy == "serial":
            return build_nsw_serial_gpu(
                points, params, search_kernel=search_kernel,
                metric=metric, **kwargs)
        raise ConfigurationError(
            f"unknown strategy {strategy!r}; valid: {STRATEGIES}"
        )

    def build_parts(self, parts: Sequence[np.ndarray], params: BuildParams,
                    metric: str = "euclidean", knn_k: int = 16,
                    **kwargs) -> List[ConstructionReport]:
        # GGraphCon builds every part in one Algorithm 2 run.
        return build_nsw_gpu_parts(parts, params, metric=metric, **kwargs)


class HnswBackend(IndexBackend):
    """The HNSW extension (shuffled-ID hierarchical layers)."""

    family = "hnsw"
    hierarchical = True

    def build(self, points: np.ndarray, params: BuildParams,
              metric: str = "euclidean", strategy: str = "ggraphcon",
              search_kernel: str = "ganns", knn_k: int = 16,
              **kwargs) -> ConstructionReport:
        if strategy != "ggraphcon":
            raise ConfigurationError(
                "HNSW construction supports only the ggraphcon strategy"
            )
        return build_hnsw_gpu(points, params, search_kernel=search_kernel,
                              metric=metric, **kwargs)

    def serialize_graph(self, graph) -> Dict[str, np.ndarray]:
        if not isinstance(graph, HierarchicalGraph):
            raise GraphError(
                "family 'hnsw' serializes hierarchical graphs, got a "
                "flat graph"
            )
        arrays = {
            "kind": np.array("hierarchical"),
            "n_layers": np.array(graph.n_layers),
            "layer_sizes": np.asarray(graph.layer_sizes),
        }
        for i, layer in enumerate(graph.layers):
            arrays[f"layer{i}_ids"] = layer.neighbor_ids
            arrays[f"layer{i}_dists"] = layer.neighbor_dists
            arrays[f"layer{i}_degrees"] = layer.degrees
        return arrays

    def deserialize_graph(self, archive, n_points: int, d_max: int,
                          metric: str):
        layers = [ProximityGraph.from_arrays(
                      archive[f"layer{i}_ids"], archive[f"layer{i}_dists"],
                      archive[f"layer{i}_degrees"], metric)
                  for i in range(int(archive["n_layers"]))]
        return HierarchicalGraph(layers, archive["layer_sizes"].tolist())


def _refuse_insertion_options(family: str, strategy: str,
                              search_kernel: str) -> None:
    """KNN and CAGRA graphs come from NN-Descent, never from insertion
    searches: the generic entry points pass the defaults, and any other
    ``strategy`` or ``search_kernel`` would be silently ignored."""
    if strategy != "ggraphcon":
        raise ConfigurationError(
            f"{family!r} construction supports only the ggraphcon "
            f"strategy, got {strategy!r}"
        )
    if search_kernel != "ganns":
        raise ConfigurationError(
            f"{family!r} construction runs no insertion searches; "
            f"search_kernel must be 'ganns', got {search_kernel!r}"
        )


class KnnBackend(IndexBackend):
    """The plain KNN-graph extension (batched NN-Descent)."""

    family = "knn"

    def build(self, points: np.ndarray, params: BuildParams,
              metric: str = "euclidean", knn_k: int = 16,
              strategy: str = "ggraphcon", search_kernel: str = "ganns",
              **kwargs) -> ConstructionReport:
        _refuse_insertion_options(self.family, strategy, search_kernel)
        return build_knn_graph_gpu(points, knn_k, params, metric=metric,
                                   **kwargs)


class CagraBackend(IndexBackend):
    """CAGRA-style fixed-degree family (KNN init + rank pruning)."""

    family = "cagra"

    def build(self, points: np.ndarray, params: BuildParams,
              metric: str = "euclidean", strategy: str = "ggraphcon",
              search_kernel: str = "ganns", knn_k: int = 16,
              **kwargs) -> ConstructionReport:
        _refuse_insertion_options(self.family, strategy, search_kernel)
        return build_cagra_gpu(points, params, metric=metric, **kwargs)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, IndexBackend] = {}


def register_backend(backend: IndexBackend) -> IndexBackend:
    """Register (or replace) one index family by its ``family`` name."""
    if not backend.family:
        raise ConfigurationError("an IndexBackend must name its family")
    _REGISTRY[backend.family] = backend
    return backend


def get_backend(family: str) -> IndexBackend:
    """Look up a family; unknown names raise a typed error.

    Raises:
        UnknownFamilyError: (a :class:`ConfigurationError`) naming the
            registered families — never a bare :class:`KeyError`.
    """
    backend = _REGISTRY.get(family)
    if backend is None:
        raise UnknownFamilyError(
            f"unknown graph_type {family!r}; registered families: "
            f"{backend_families()}"
        )
    return backend


def backend_families() -> Tuple[str, ...]:
    """Sorted names of every registered family."""
    return tuple(sorted(_REGISTRY))


register_backend(NswBackend())
register_backend(HnswBackend())
register_backend(KnnBackend())
register_backend(CagraBackend())
