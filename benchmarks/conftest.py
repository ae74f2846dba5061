"""Shared benchmark fixtures.

Every benchmark prints its paper-vs-measured table to stdout *and* writes
it to ``benchmarks/results/<name>.txt``, so a full ``pytest benchmarks/
--benchmark-only`` run leaves a browsable record behind (EXPERIMENTS.md is
assembled from those files) and writes nothing else.

Constructions go through :func:`repro.bench.runner.build`, memoised for
one session by dataset, parameters, scheme and device, so benches that
share a workload build it once per run.  Nothing persists between runs:
every run builds from the tree under test.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Hashable, Tuple

import pytest

from repro.bench import runner
from repro.bench.workloads import DEFAULT_CONFIG, construction_device
from repro.core.params import BuildParams
from repro.core.results import ConstructionReport
from repro.datasets.catalog import Dataset
from repro.gpusim.device import DeviceSpec, QUADRO_P5000
from repro.graphs.adjacency import ProximityGraph

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(scope="session")
def config():
    """The shared benchmark sizing configuration."""
    return DEFAULT_CONFIG


def _memo_key(dataset: Dataset, params: BuildParams, algorithm: str,
              device: DeviceSpec) -> Tuple[Hashable, ...]:
    return (dataset.name, dataset.n_points, dataset.n_dims, params,
            algorithm, device)


@pytest.fixture(scope="session")
def build() -> Callable[..., ConstructionReport]:
    """:func:`repro.bench.runner.build`, run once per key per session.

    The one memo, which :func:`graph_of` reads too: each report is kept
    with its graph when it was built on the serving device (what the
    searches run on), and without it otherwise (the construction-device
    benches read seconds), so the session's memory stays bounded.
    """
    memo: Dict[Tuple[Hashable, ...], ConstructionReport] = {}

    def _build(dataset: Dataset, params: BuildParams, algorithm: str,
               device: DeviceSpec) -> ConstructionReport:
        key = _memo_key(dataset, params, algorithm, device)
        if key not in memo:
            report = runner.build(dataset, params, algorithm, device)
            if device != QUADRO_P5000:
                report.graph = None
            memo[key] = report
        return memo[key]

    return _build


@pytest.fixture(scope="session")
def graph_of(build) -> Callable[..., ProximityGraph]:
    """The graph of :func:`repro.bench.runner.build` on the serving
    device, read through the :func:`build` memo."""

    def _graph(dataset: Dataset, params: BuildParams,
               algorithm: str = "ggc-ganns") -> ProximityGraph:
        return build(dataset, params, algorithm, QUADRO_P5000).graph

    return _graph


@pytest.fixture(scope="session")
def datasets(config) -> Dict[str, Dataset]:
    """Lazily materialised datasets, shared across benchmark files."""
    loaded: Dict[str, Dataset] = {}

    class _Loader(dict):
        def __missing__(self, name: str) -> Dataset:
            dataset = config.load(name)
            self[name] = dataset
            return dataset

    return _Loader(loaded)


@pytest.fixture(scope="session")
def emit():
    """Print a result table and persist it under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)

    def _emit(name: str, text: str) -> None:
        print()
        print(text)
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, "w") as handle:
            handle.write(text + "\n")

    return _emit


@pytest.fixture(scope="session")
def cdevice():
    """Scaled device used by every construction benchmark."""
    return construction_device()
