"""repro — reproduction of "GPU-accelerated Proximity Graph Approximate
Nearest Neighbor Search and Construction" (Yu et al., ICDE 2022).

The package provides:

- **GANNS** (:func:`repro.core.ganns.ganns_search`): the paper's
  GPU-friendly proximity-graph search built on lazy update + lazy check.
- **GGraphCon** (:func:`repro.core.construction.build_nsw_gpu` and the
  HNSW/KNN extensions): divide-and-conquer GPU graph construction.
- **Baselines**: SONG, Algorithm 1 beam search, sequential CPU NSW/HNSW
  construction.
- **Substrates**: a simulated SIMT device with calibrated cycle costs
  (:mod:`repro.gpusim`), proximity-graph storage (:mod:`repro.graphs`),
  metrics (:mod:`repro.metrics`) and synthetic stand-ins for the paper's
  datasets (:mod:`repro.datasets`).
- **GannsIndex**: the one-object high-level API.
- **Serving** (:mod:`repro.serve`): dynamic micro-batching, result
  caching and admission control for online query traffic.
- **Cluster** (:mod:`repro.cluster`): sharded multi-replica serving
  with scatter-gather top-k merge and replica failover.
- **Mutable** (:mod:`repro.mutable`): the crash-safe mutable index —
  streaming inserts/deletes, versioned snapshots, WAL + checkpoint
  recovery.

Quickstart:
    >>> import numpy as np
    >>> from repro import GannsIndex
    >>> points = np.random.rand(2000, 32).astype("float32")
    >>> index = GannsIndex.build(points)
    >>> ids, dists = index.search(points[:5], k=10)
"""

from repro._version import __version__
from repro.errors import (
    ReproError,
    ConfigurationError,
    UnknownFamilyError,
    UnsupportedOperationError,
    DeviceError,
    GraphError,
    DatasetError,
    SearchError,
    ConstructionError,
    ServeError,
    OverloadError,
    ClusterError,
    FaultError,
    KernelTimeoutError,
    MemoryFaultError,
    DeviceMemoryError,
)
# The baselines load first: GraphCon_NSW/HNSW run the core's GGraphCon
# body, and the core's own imports of repro.baselines.* submodules must
# not re-enter this package's half-initialised baseline modules.
from repro.baselines import (
    song_search,
    SongParams,
    build_nsw_cpu,
    build_hnsw_cpu,
)
from repro.core import (
    GannsIndex,
    IndexBackend,
    backend_families,
    get_backend,
    register_backend,
    tune_search,
    stream_batches,
    SearchParams,
    BuildParams,
    SearchReport,
    ConstructionReport,
    ganns_search,
    build_nsw_gpu,
    build_hnsw_gpu,
    build_knn_graph_gpu,
    build_cagra_gpu,
    build_nsw_serial_gpu,
    build_nsw_naive_parallel,
)
from repro.datasets import load_dataset, dataset_names, exact_knn
from repro.graphs import ProximityGraph, HierarchicalGraph, validate_graph
from repro.metrics import recall_at_k, get_metric
from repro.serve import (
    BatchPolicy,
    QueryRequest,
    ResultCache,
    ServeEngine,
    ServeReport,
    synthetic_trace,
)
from repro.faults import (
    AdmissionGovernor,
    BreakerPolicy,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultReport,
    RetryPolicy,
    named_fault_plan,
)
from repro.cluster import (
    ClusterEngine,
    ClusterReport,
    ConsistentHashRing,
    ReplicaRouter,
    RouterPolicy,
    ShardMap,
    merge_topk,
)
from repro.mutable import (
    DurableStore,
    MutableIndex,
    MutationReport,
    SnapshotHandle,
    recover,
    run_mutation_sim,
)

__all__ = [
    "__version__",
    "ReproError",
    "ConfigurationError",
    "UnknownFamilyError",
    "UnsupportedOperationError",
    "DeviceError",
    "GraphError",
    "DatasetError",
    "SearchError",
    "ConstructionError",
    "ServeError",
    "OverloadError",
    "ClusterError",
    "FaultError",
    "KernelTimeoutError",
    "MemoryFaultError",
    "DeviceMemoryError",
    "GannsIndex",
    "IndexBackend",
    "backend_families",
    "get_backend",
    "register_backend",
    "tune_search",
    "stream_batches",
    "SearchParams",
    "BuildParams",
    "SearchReport",
    "ConstructionReport",
    "ganns_search",
    "build_nsw_gpu",
    "build_hnsw_gpu",
    "build_knn_graph_gpu",
    "build_cagra_gpu",
    "build_nsw_serial_gpu",
    "build_nsw_naive_parallel",
    "song_search",
    "SongParams",
    "build_nsw_cpu",
    "build_hnsw_cpu",
    "load_dataset",
    "dataset_names",
    "exact_knn",
    "ProximityGraph",
    "HierarchicalGraph",
    "validate_graph",
    "recall_at_k",
    "get_metric",
    "BatchPolicy",
    "QueryRequest",
    "ResultCache",
    "ServeEngine",
    "ServeReport",
    "synthetic_trace",
    "AdmissionGovernor",
    "BreakerPolicy",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultReport",
    "RetryPolicy",
    "named_fault_plan",
    "ClusterEngine",
    "ClusterReport",
    "ConsistentHashRing",
    "ReplicaRouter",
    "RouterPolicy",
    "ShardMap",
    "merge_topk",
    "DurableStore",
    "MutableIndex",
    "MutationReport",
    "SnapshotHandle",
    "recover",
    "run_mutation_sim",
]
