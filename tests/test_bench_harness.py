"""Tests for the benchmark harness: workloads and their environment
variables, report rendering, figures registry, and the construction
table."""

import ast
import importlib.util
import sys
from pathlib import Path
from typing import Set

import numpy as np
import pytest

from repro.bench.figures import (
    PAPER_FIG6,
    PAPER_TABLE2,
    PAPER_TABLE3,
)
from repro.bench.report import (
    format_table,
    speedup_band_note,
)
from repro.baselines.hnsw_cpu import build_hnsw_cpu
from repro.baselines.nsw_cpu import build_nsw_cpu
from repro.bench.runner import BUILDERS, build
from repro.bench.workloads import (
    ALL_DATASETS,
    FAST_DATASETS,
    BenchConfig,
    bench_datasets,
    construction_device,
)
from repro.core.construction import build_nsw_gpu
from repro.core.hnsw import build_hnsw_gpu
from repro.core.naive import build_nsw_naive_parallel, build_nsw_serial_gpu
from repro.core.params import BuildParams
from repro.datasets.catalog import DATASET_SPECS, load_dataset
from repro.errors import ConfigurationError
from repro.gpusim.device import QUADRO_P5000
from repro.graphs.adjacency import HierarchicalGraph
from repro.graphs.stats import graph_digest


class TestWorkloads:
    def test_all_datasets_cover_table1(self):
        assert set(ALL_DATASETS) == set(DATASET_SPECS)

    def test_fast_subset_is_subset(self):
        assert set(FAST_DATASETS) <= set(ALL_DATASETS)

    def test_dataset_points_scale_with_paper_sizes(self):
        config = BenchConfig(base_points=4000, max_points=100_000)
        assert (config.dataset_points("deep")
                == 8 * config.dataset_points("sift1m"))

    def test_max_points_cap(self):
        config = BenchConfig(base_points=4000, max_points=10_000)
        assert config.dataset_points("sift10m") == 10_000

    def test_build_params_paper_defaults(self):
        params = BenchConfig().build_params()
        assert params.d_min == 16
        assert params.d_max == 32

    def test_build_params_overrides(self):
        params = BenchConfig().build_params(d_max=64, d_min=32)
        assert params.d_max == 64

    def test_construction_device_concurrency(self):
        device = construction_device()
        assert device.concurrent_blocks(32) == 64

    def test_load_materialises_scaled_dataset(self):
        config = BenchConfig(base_points=1000, max_points=2000,
                             n_queries=10)
        dataset = config.load("nytimes")
        assert dataset.metric_name == "cosine"
        assert dataset.n_queries == 10


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.001]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows aligned

    def test_float_formatting(self):
        text = format_table(["x"], [[123456.0], [1.23456], [12.3]])
        assert "123,456" in text
        assert "1.235" in text
        assert "12.3" in text

    def test_speedup_band_note(self):
        assert "in paper band" in speedup_band_note(1.0, 2.0, 1.5)
        assert "outside" in speedup_band_note(1.0, 2.0, 3.0)


class TestFiguresRegistry:
    def test_tables_cover_all_datasets(self):
        assert set(PAPER_TABLE2) == set(DATASET_SPECS)
        assert set(PAPER_TABLE3) == set(DATASET_SPECS)
        assert set(PAPER_FIG6) == set(DATASET_SPECS)

    def test_paper_speedups_consistent(self):
        # The quoted Table II speedups must match cpu/gpu ratios.
        row = PAPER_TABLE2["sift1m"]
        assert row["cpu"] / row["ggc_ganns"] == pytest.approx(41.8, abs=1)

    def test_fig6_headline_point(self):
        assert PAPER_FIG6["sift1m"].ganns_qps == 458_500.0


class TestBenchEnvironment:
    """``REPRO_BENCH_FULL`` and ``REPRO_BENCH_SCALE``: each read in one
    place, a malformed value refused naming its variable."""

    @pytest.mark.parametrize("value", [None, "", "0"])
    def test_full_unset_or_zero_is_the_fast_subset(self, monkeypatch,
                                                   value):
        if value is None:
            monkeypatch.delenv("REPRO_BENCH_FULL", raising=False)
        else:
            monkeypatch.setenv("REPRO_BENCH_FULL", value)
        assert bench_datasets() == FAST_DATASETS

    def test_full_one_is_all_of_table1(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_FULL", "1")
        assert bench_datasets() == ALL_DATASETS

    @pytest.mark.parametrize("value", ["true", "yes", "2", " 1", "-1"])
    def test_full_refuses_anything_else(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BENCH_FULL", value)
        with pytest.raises(ConfigurationError, match="REPRO_BENCH_FULL"):
            bench_datasets()

    @pytest.mark.parametrize("value", [None, ""])
    def test_scale_unset_is_one(self, monkeypatch, value):
        if value is None:
            monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        else:
            monkeypatch.setenv("REPRO_BENCH_SCALE", value)
        assert BenchConfig().dataset_points("sift1m") == 4000

    @pytest.mark.parametrize("value,points", [
        ("0.1", 1000), ("0.5", 2000), ("2", 8000), ("4", 16000)])
    def test_scale_scales_points(self, monkeypatch, value, points):
        monkeypatch.setenv("REPRO_BENCH_SCALE", value)
        assert BenchConfig().dataset_points("sift1m") == points

    @pytest.mark.parametrize("value", [
        "abc", "0.01", "0", "-5", "nan", "inf", "-inf"])
    def test_scale_refuses_malformed_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BENCH_SCALE", value)
        with pytest.raises(ConfigurationError, match="REPRO_BENCH_SCALE"):
            BenchConfig().dataset_points("sift1m")


def _digests(graph):
    """Per-layer digests of a graph (one layer for a flat graph)."""
    layers = (graph.layers if isinstance(graph, HierarchicalGraph)
              else [graph])
    return [graph_digest(layer) for layer in layers]


class TestConstructionRunner:
    """``build`` runs the named builder: its report is the direct
    call's."""

    PARAMS = BuildParams(d_min=4, d_max=8, n_blocks=8)

    #: Each table name's builder, called directly.
    DIRECT = {
        "ggc-ganns": lambda points, params, device: build_nsw_gpu(
            points, params, search_kernel="ganns", device=device),
        "ggc-song": lambda points, params, device: build_nsw_gpu(
            points, params, search_kernel="song", device=device),
        "naive": lambda points, params, device: build_nsw_naive_parallel(
            points, params, search_kernel="song", device=device),
        "serial": lambda points, params, device: build_nsw_serial_gpu(
            points, params, search_kernel="song", device=device),
        "cpu-nsw": lambda points, params, device: build_nsw_cpu(
            points, params.d_min, params.d_max,
            ef_construction=params.effective_ef),
        "hnsw-ganns": lambda points, params, device: build_hnsw_gpu(
            points, params, search_kernel="ganns", device=device),
        "hnsw-song": lambda points, params, device: build_hnsw_gpu(
            points, params, search_kernel="song", device=device),
        "cpu-hnsw": lambda points, params, device: build_hnsw_cpu(
            points, params.d_min, params.d_max,
            ef_construction=params.effective_ef, seed=params.seed),
    }

    @pytest.fixture(scope="class")
    def tiny(self):
        return load_dataset("sift1m", n_points=300, n_queries=10)

    @pytest.fixture(scope="class")
    def device(self):
        return construction_device()

    def test_the_table_has_the_eight_schemes(self):
        assert set(BUILDERS) == set(self.DIRECT)

    @pytest.mark.parametrize("algorithm", sorted(DIRECT))
    def test_each_name_runs_its_builder(self, tiny, device, algorithm):
        ran = build(tiny, self.PARAMS, algorithm, device)
        direct = self.DIRECT[algorithm](tiny.points, self.PARAMS, device)
        assert _digests(ran.graph) == _digests(direct.graph)
        assert ran.seconds == direct.seconds > 0
        assert ran.category_seconds == direct.category_seconds

    def test_unknown_algorithm_rejected(self, tiny, device):
        with pytest.raises(ConfigurationError, match="unknown"):
            build(tiny, BuildParams(d_min=4, d_max=8), "magic", device)

    def test_cache_keys_distinguish_devices(self, tiny):
        """The device is part of what a build is: the same scheme prices
        differently on the scaled construction device."""
        scaled = build(tiny, self.PARAMS, "ggc-ganns",
                       device=construction_device())
        full = build(tiny, self.PARAMS, "ggc-ganns", device=QUADRO_P5000)
        # More concurrency -> strictly faster build on this workload.
        assert full.seconds < scaled.seconds


class TestPhaseBars:
    def test_bars_scale_with_time(self):
        from repro.bench.report import format_phase_bars
        text = format_phase_bars({"big": 0.3, "small": 0.1}, width=20)
        lines = text.splitlines()
        assert lines[0].strip().startswith("big")
        assert lines[0].count("#") == 20
        assert 5 <= lines[1].count("#") <= 9

    def test_shares_sum_to_one(self):
        from repro.bench.report import format_phase_bars
        text = format_phase_bars({"a": 0.5, "b": 0.5})
        assert text.count("50.0%") == 2

    def test_empty_input(self):
        from repro.bench.report import format_phase_bars
        assert "(no phases recorded)" in format_phase_bars({})

    def test_title_line(self):
        from repro.bench.report import format_phase_bars
        text = format_phase_bars({"a": 1.0}, title="Phases")
        assert text.splitlines()[0] == "Phases"


BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _fixture_names(path: Path) -> Set[str]:
    """Names of the functions a file decorates with ``pytest.fixture``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.FunctionDef) and any(
                "fixture" in ast.unparse(decorator)
                for decorator in node.decorator_list):
            names.add(node.name)
    return names


def _parametrized(node: ast.FunctionDef) -> Set[str]:
    """Argument names a test's ``parametrize`` marks supply."""
    names = set()
    for decorator in node.decorator_list:
        if (isinstance(decorator, ast.Call)
                and ast.unparse(decorator.func).endswith("parametrize")):
            argnames = ast.literal_eval(decorator.args[0])
            if isinstance(argnames, str):
                argnames = argnames.split(",")
            names.update(name.strip() for name in argnames)
    return names


class TestPaperBenchesWireUp:
    """The paper suite takes minutes and no CI job runs it, so check here
    that every ``benchmarks/bench_*.py`` imports and that each of its
    tests requests only fixtures the suite defines: the shared ones in
    ``benchmarks/conftest.py``, pytest-benchmark's, or the module's own."""

    BENCHES = sorted(BENCH_DIR.glob("bench_*.py"))

    def test_the_suite_is_found(self):
        assert len(self.BENCHES) >= 20

    @pytest.mark.parametrize("path", BENCHES, ids=lambda path: path.stem)
    def test_bench_imports_and_requests_known_fixtures(self, path):
        import pytest_benchmark.plugin

        saved_path = list(sys.path)
        for source in (BENCH_DIR / "conftest.py", path):
            spec = importlib.util.spec_from_file_location(
                f"_wired_{source.stem}", source)
            module = importlib.util.module_from_spec(spec)
            sys.modules[spec.name] = module
            try:
                spec.loader.exec_module(module)
            finally:
                del sys.modules[spec.name]
                sys.path[:] = saved_path

        own = _fixture_names(path)
        known = (_fixture_names(BENCH_DIR / "conftest.py")
                 | _fixture_names(Path(pytest_benchmark.plugin.__file__))
                 | own | {"request"})
        tests = 0
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name.startswith("test_") or node.name in own:
                tests += node.name.startswith("test_")
                requested = {arg.arg for arg in node.args.args}
                unknown = requested - _parametrized(node) - known
                assert not unknown, f"{node.name} requests {unknown}"
        if path.stem not in ("bench_bakeoff", "bench_recovery"):
            assert tests, "a paper bench runs at least one test"
