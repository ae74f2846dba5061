"""Baselines the paper compares against.

- :mod:`repro.baselines.beam` — Algorithm 1, the classical CPU beam search
  on a proximity graph (min-heap candidates, max-heap results, visited set).
- :mod:`repro.baselines.nsw_cpu` — GraphCon_NSW: single-thread sequential
  NSW insertion (GGraphCon with one group on a one-core CPU clock), and
  ``build_nsw_multicore``, GGraphCon over every group on a many-core
  CPU clock.
- :mod:`repro.baselines.hnsw_cpu` — GraphCon_HNSW: single-thread HNSW
  construction.
- :mod:`repro.baselines.song` — SONG, the state-of-the-art GPU search the
  paper benchmarks against, under the shared gpusim cost model.
- :mod:`repro.baselines.cpu_cost` — single-core CPU timing model for the
  construction baselines (Tables II/III).
"""

from repro.baselines.beam import BeamLanes, beam_search_lanes
from repro.baselines.nsw_cpu import build_nsw_cpu
from repro.baselines.hnsw_cpu import build_hnsw_cpu
from repro.baselines.song import song_search, SongParams
from repro.baselines.cpu_cost import CpuModel, DEFAULT_CPU

__all__ = [
    "BeamLanes",
    "beam_search_lanes",
    "build_nsw_cpu",
    "build_hnsw_cpu",
    "song_search",
    "SongParams",
    "CpuModel",
    "DEFAULT_CPU",
]
