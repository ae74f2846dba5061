"""How the algorithms execute: the arena-backed GANNS traversal and
the batched GGraphCon kernels.

:mod:`repro.core` owns the algorithms' front doors (validation, cost
pricing, reports); this package owns their single execution path — there
is no second implementation and no switch to ask for one:

- :mod:`repro.perf.arena` — one search call's buffers, allocated once
  per call, with active-query compaction, and the evaluated-pairs map
  behind the lazy check (a distance is evaluated once, charged always);
- :mod:`repro.perf.distance` — GEMM-style dtype-preserving distance
  engines with precomputed norms;
- :mod:`repro.perf.engine` — the GANNS traversal (one insertion merge:
  host work follows the records that enter a pool), plus the two-stage
  quantized pipeline (``ganns_search_staged``);
- :mod:`repro.perf.identity_cache` — per-corpus memoisation for the two
  modules around it, entries living exactly as long as their matrix;
- :mod:`repro.perf.quant` — compressed distance tables
  (float16 / int8 / PCA) for the staged search's first pass
  (``SearchParams.quant``; **lossy**, reported as such — see
  ``docs/quantization.md``);
- :mod:`repro.perf.construction` — batched insert/merge kernels for
  GGraphCon;
- :mod:`repro.perf.descent` — batched HNSW entry descent.

What the implementation answers to: the single-query warp kernel and
the batched oracle under ``tests/oracles/`` (``tests/test_perf_equivalence.py``,
``tests/test_perf_properties.py``) and the byte goldens under
``tests/data/``.  See ``docs/performance.md``, "Where the oracles
live".
"""

from repro.perf.arena import SearchArena, get_arena
from repro.perf.descent import hnsw_entry_descent_batch
from repro.perf.distance import make_distance_engine, resolve_compute_dtype
from repro.perf.quant import QUANT_MODES, QuantizedTable, quantize_points

__all__ = [
    "QUANT_MODES",
    "QuantizedTable",
    "SearchArena",
    "get_arena",
    "hnsw_entry_descent_batch",
    "make_distance_engine",
    "quantize_points",
    "resolve_compute_dtype",
]
