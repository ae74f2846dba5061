"""The paper's primary contribution: GANNS search and GGraphCon construction.

- :mod:`repro.core.params` — validated parameter bundles.
- :mod:`repro.core.results` — search reports with per-phase cycle
  accounting and throughput conversion.
- :mod:`repro.core.ganns` — the 6-phase GPU-friendly search (lazy update +
  lazy check), batched across queries in lock-step.  The faithful
  single-query kernel built from warp primitives and the bitonic networks
  is a test oracle (``tests/oracles/ganns_kernel.py``).
- :mod:`repro.core.construction` — GGraphCon divide-and-conquer NSW
  construction (local graphs + CSR-organised merges).
- :mod:`repro.core.naive` — the GSerial and GNaiveParallel strawmen of
  Section IV-A.
- :mod:`repro.core.hnsw` — the HNSW extension (level-by-level with the ID
  shuffle).
- :mod:`repro.core.knng` — the KNN-graph extension (batched NN-Descent).
- :mod:`repro.core.cagra` — the CAGRA-style fixed-degree family
  (KNN init + rank-based pruning + reverse-edge merge).
- :mod:`repro.core.backend` — the :class:`IndexBackend` protocol and the
  index-family registry.
- :mod:`repro.core.index` — the user-facing :class:`GannsIndex`.
"""

from repro.core.params import SearchParams, BuildParams
from repro.core.results import SearchReport, ConstructionReport
from repro.core.ganns import ganns_search
from repro.core.construction import build_nsw_gpu
from repro.core.naive import build_nsw_serial_gpu, build_nsw_naive_parallel
from repro.core.hnsw import build_hnsw_gpu
from repro.core.knng import build_knn_graph_gpu
from repro.core.cagra import build_cagra_gpu
from repro.core.backend import (
    IndexBackend,
    backend_families,
    get_backend,
    register_backend,
)
from repro.core.index import GannsIndex
from repro.core.tuner import TuningResult, tune_search
from repro.core.pipeline import StreamResult, stream_batches

__all__ = [
    "SearchParams",
    "BuildParams",
    "SearchReport",
    "ConstructionReport",
    "ganns_search",
    "build_nsw_gpu",
    "build_nsw_serial_gpu",
    "build_nsw_naive_parallel",
    "build_hnsw_gpu",
    "build_knn_graph_gpu",
    "build_cagra_gpu",
    "IndexBackend",
    "backend_families",
    "get_backend",
    "register_backend",
    "GannsIndex",
    "TuningResult",
    "tune_search",
    "StreamResult",
    "stream_batches",
]
