"""Tests for the benchmark harness: workloads, report rendering, figures
registry, and the construction-timing runner."""

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
from repro.bench.runner import GraphCache, _run_construction
from repro.bench.workloads import (
    ALL_DATASETS,
    BenchConfig,
    bench_datasets,
    construction_device,
)
from repro.datasets.catalog import DATASET_SPECS, load_dataset


class TestWorkloads:
    def test_all_datasets_cover_table1(self):
        assert set(ALL_DATASETS) == set(DATASET_SPECS)

    def test_fast_subset_is_subset(self):
        assert set(bench_datasets()) <= set(bench_datasets(full=True))

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


class TestConstructionRunner:
    @pytest.fixture(scope="class")
    def tiny(self):
        return load_dataset("sift1m", n_points=400, n_queries=10)

    @pytest.fixture(scope="class")
    def device(self):
        return construction_device()

    @pytest.mark.parametrize("algorithm", [
        "ggc-ganns", "ggc-song", "naive", "serial", "cpu-nsw",
        "hnsw-ganns", "cpu-hnsw",
    ])
    def test_all_algorithms_produce_timing(self, tiny, device, algorithm):
        from repro.core.params import BuildParams
        params = BuildParams(d_min=4, d_max=8, n_blocks=8)
        timing = _run_construction(tiny, params, algorithm, device)
        assert timing.seconds > 0

    def test_unknown_algorithm_rejected(self, tiny, device):
        from repro.core.params import BuildParams
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError, match="unknown"):
            _run_construction(tiny, BuildParams(d_min=4, d_max=8),
                              "magic", device)

    def test_timing_cache_round_trip(self, tiny, device, tmp_path):
        from repro.core.params import BuildParams
        cache = GraphCache(str(tmp_path))
        params = BuildParams(d_min=4, d_max=8, n_blocks=8)
        first = cache.construction_timing(tiny, params, "ggc-ganns",
                                          device=device)
        second = cache.construction_timing(tiny, params, "ggc-ganns",
                                           device=device)
        assert first.seconds == second.seconds
        assert first.distance_seconds == second.distance_seconds

    def test_cache_keys_distinguish_devices(self, tiny, tmp_path):
        from repro.core.params import BuildParams
        from repro.gpusim.device import QUADRO_P5000
        cache = GraphCache(str(tmp_path))
        params = BuildParams(d_min=4, d_max=8, n_blocks=8)
        scaled = cache.construction_timing(tiny, params, "ggc-ganns",
                                           device=construction_device())
        full = cache.construction_timing(tiny, params, "ggc-ganns",
                                         device=QUADRO_P5000)
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
