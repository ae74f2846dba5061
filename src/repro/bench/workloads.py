"""Workload definitions shared by the benchmark files.

The paper's datasets range from 0.29M to 10M points; the stand-ins are
scaled down so the whole suite runs on a laptop while preserving each
dataset's *relative* size, dimensionality and metric.  Two environment
variables size a run, each read in one place here; a malformed value is a
:class:`~repro.errors.ConfigurationError` naming it (empty counts as
unset).  ``REPRO_BENCH_SCALE`` (a finite number >= 0.1, default 1)
scales every workload, e.g. ``4`` for a longer, higher-fidelity run;
``REPRO_BENCH_FULL=1`` runs the per-dataset figures on all ten Table I
datasets instead of four (``0`` or unset).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Tuple

from repro.core.params import BuildParams
from repro.datasets.catalog import Dataset, load_dataset
from repro.errors import ConfigurationError


def _scale() -> float:
    """Global workload scale from ``REPRO_BENCH_SCALE`` (default 1.0)."""
    raw = os.environ.get("REPRO_BENCH_SCALE", "")
    if not raw:
        return 1.0
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.1):
        raise ConfigurationError(
            f"REPRO_BENCH_SCALE must be a finite number >= 0.1, "
            f"got {raw!r}"
        )
    return value


@dataclass(frozen=True)
class BenchConfig:
    """Sizing of one benchmark run.

    Attributes:
        base_points: Stand-in size of a 1M-point dataset before relative
            scaling.
        max_points: Hard cap so the 8M/10M stand-ins stay tractable.
        n_queries: Queries per dataset (the paper uses 2000).
        k: Neighbors returned (the paper's Figure 6 fixes k = 10).
        d_min: Construction lower degree bound (paper default 16).
        d_max: Construction upper degree bound (paper default 32).
        n_blocks: Construction thread blocks / group count.
        ganns_settings: ``(l_n, e)`` sweep for GANNS recall curves.
        song_settings: ``(pq_bound,)`` sweep for SONG recall curves.
    """

    base_points: int = 4_000
    max_points: int = 10_000
    n_queries: int = 400
    k: int = 10
    d_min: int = 16
    d_max: int = 32
    n_blocks: int = 64
    ganns_settings: Tuple[Tuple[int, int], ...] = (
        (32, 16), (64, 32), (64, 64), (128, 96), (128, 128), (256, 192),
    )
    song_settings: Tuple[Tuple[int], ...] = (
        (16,), (32,), (64,), (96,), (128,), (192,),
    )

    def dataset_points(self, name: str) -> int:
        """Scaled point count for one dataset."""
        from repro.datasets.catalog import DATASET_SPECS

        spec = DATASET_SPECS[name.lower()]
        scaled = spec.scaled_points(int(self.base_points * _scale()))
        return min(scaled, int(self.max_points * _scale()))

    def load(self, name: str) -> Dataset:
        """Materialise one dataset at this config's scale."""
        return load_dataset(name, n_points=self.dataset_points(name),
                            n_queries=self.n_queries)

    def build_params(self, **overrides) -> BuildParams:
        """Construction parameters at the paper's defaults."""
        kwargs = {"d_min": self.d_min, "d_max": self.d_max,
                  "n_blocks": self.n_blocks}
        kwargs.update(overrides)
        return BuildParams(**kwargs)


DEFAULT_CONFIG = BenchConfig()
"""The configuration every ``benchmarks/bench_*.py`` file uses."""


def construction_device():
    """Scaled device for the construction benchmarks.

    The paper builds 0.29M-10M-point graphs on a device that can keep
    ~640 blocks resident; what shapes Figures 11/14 and Tables II/III is
    the *fill ratio* between launch width and device concurrency (the
    merge phase saturates the device; the group count sweep stays below
    its concurrency).  Our stand-ins are ~100x smaller, so the
    construction benches use a scaled device with 64 concurrent
    32-thread blocks.  64 is the *effective* construction concurrency the
    paper's own Table II numbers imply for the P5000 (8.5 s for 1M
    insertions whose single-block searches cost ~0.5 ms each); the
    occupancy limit of 640 is not reached because construction kernels
    saturate memory bandwidth first.  Search benchmarks use the full
    device; the calibrated ``time_scale`` is shared.
    """
    from repro.gpusim.device import QUADRO_P5000

    return QUADRO_P5000.with_overrides(
        name="Quadro P5000 (construction-effective, 64 blocks)",
        num_sms=16,
        max_blocks_per_sm=4,
        max_threads_per_sm=128,
    )

#: Datasets used by the full-table benchmarks, in Table I order.
ALL_DATASETS: Tuple[str, ...] = (
    "sift1m", "gist", "nytimes", "glove200", "uq_v",
    "msong", "notre", "ukbench", "deep", "sift10m",
)

#: Smaller subsets for figure benchmarks that only need representatives.
FAST_DATASETS: Tuple[str, ...] = ("sift1m", "gist", "nytimes", "ukbench")


def bench_datasets() -> Tuple[str, ...]:
    """Datasets of the per-dataset figures: all of Table I when
    ``REPRO_BENCH_FULL=1``, else the fast subset.

    Raises:
        ConfigurationError: When the variable holds anything but ``0``
            or ``1``.
    """
    raw = os.environ.get("REPRO_BENCH_FULL", "")
    if raw not in ("", "0", "1"):
        raise ConfigurationError(
            f"REPRO_BENCH_FULL must be unset, 0 or 1, got {raw!r}"
        )
    return ALL_DATASETS if raw == "1" else FAST_DATASETS
