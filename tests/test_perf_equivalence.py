"""The one implementation against its oracles and pinned goldens.

``ganns_search`` and GGraphCon each have exactly one implementation
(the arena / GEMM / batched-merge code under ``repro.perf``).  This
suite pins it from outside:

- search ids, iterations and distance counts match the batched oracle
  (``tests/oracles/ganns_batched.py``) **exactly** (and the golden
  workload's ids byte-for-byte against the committed artifact);
- per-phase, per-lane cycle charges match the oracle exactly;
- distances match to dtype-scaled tolerance (the GEMM euclidean form
  regroups the same arithmetic; cosine/ip use identical expressions);
- construction reproduces ``tests/data/construction_golden.json`` —
  graph digests, simulated seconds and phase seconds recorded from the
  per-vertex ``insert_edge`` / ``merge_row`` branches before they were
  deleted (regenerate, consciously, with
  ``scripts/regen_golden.py --construction``);
- the batched HNSW descent returns the CPU baseline's per-query entries
  and distance counts exactly.
"""

import dataclasses
import functools
import json
import os

import numpy as np
import pytest

from repro.baselines.nsw_cpu import build_nsw_cpu, build_nsw_multicore
from repro.core.construction import build_nsw_gpu, insert_batch_nsw
from repro.core.ganns import ganns_search
from repro.core.hnsw import build_hnsw_gpu
from repro.core.knng import build_knn_graph_gpu
from repro.core.naive import build_nsw_serial_gpu
from repro.core.params import BuildParams, SearchParams
from repro.datasets.ground_truth import exact_knn
from repro.datasets.synthetic import gaussian_mixture
from repro.errors import SearchError
from repro.gpusim.costs import DEFAULT_COSTS
from repro.gpusim.tracker import CycleTracker
from repro.graphs.stats import graph_digest
from repro.metrics.distance import get_metric
from repro.perf import distance as perf_distance
from repro.perf import engine as perf_engine
from repro.perf.arena import get_arena
from repro.perf.descent import hnsw_entry_descent_batch
from tests.oracles.ganns_batched import ganns_search_oracle
from tests.oracles.hnsw_descent import hnsw_entry_descent

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "ganns_golden.npz")
CONSTRUCTION_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                                        "construction_golden.json")

#: Distance tolerance per compute dtype: the euclidean GEMM form
#: (norms - 2ab) regroups the oracle's (a-b)^2 sum, so the results
#: agree to a few ulps of the dtype, never exactly.
ATOL = {np.dtype(np.float64): 1e-10, np.dtype(np.float32): 1e-4}


def _assert_trackers_equal(expected, actual):
    assert expected.phase_names == actual.phase_names
    for phase in expected.phase_names:
        assert np.array_equal(expected.lane_cycles(phase),
                              actual.lane_cycles(phase)), (
            f"per-lane cycle drift in phase {phase!r}"
        )


def assert_matches_oracle(graph, points, queries, params, dtype=np.float64,
                          **search_kwargs):
    """``ganns_search`` against the batched oracle on one workload."""
    oracle = ganns_search_oracle(graph, points, queries, params,
                                 dtype=dtype, **search_kwargs)
    report = ganns_search(graph, points, queries, params, dtype=dtype,
                          **search_kwargs)
    assert oracle.ids.tobytes() == report.ids.tobytes()
    assert np.array_equal(oracle.iterations, report.iterations)
    assert oracle.n_distance_computations == report.n_distance_computations
    assert oracle.dists.dtype == report.dists.dtype == np.dtype(dtype)
    np.testing.assert_allclose(oracle.dists, report.dists,
                               atol=ATOL[np.dtype(dtype)], rtol=0)
    _assert_trackers_equal(oracle.tracker, report.tracker)
    return report


def _graph_and_data(metric, n=300, m=24, d=16, seed=5):
    points = gaussian_mixture(n, d, seed=seed)
    queries = gaussian_mixture(m, d, seed=seed + 1)
    graph = build_nsw_cpu(points, d_min=8, d_max=16).graph
    # "ip" has no CPU-builder metric; the searched structure is what
    # matters, so rebadge the euclidean graph for the kernel.
    graph.metric_name = metric
    return graph, points, queries


#: Wider than any batch the benchmark issues (search_lowdim runs 250).
WIDE = 300


@functools.lru_cache(maxsize=None)
def _wide_graph_and_data(metric):
    return _graph_and_data(metric, n=800, m=WIDE, seed=17)


class TestSearchEquivalence:
    @pytest.mark.parametrize("metric", ["euclidean", "cosine", "ip"])
    @pytest.mark.parametrize("lazy_check", [True, False])
    def test_ids_cycles_and_counts_match(self, metric, lazy_check):
        graph, points, queries = _graph_and_data(metric)
        assert_matches_oracle(graph, points, queries,
                              SearchParams(k=10, l_n=32, e=24),
                              lazy_check=lazy_check)

    def test_float32_compute_dtype(self):
        graph, points, queries = _graph_and_data("euclidean")
        assert_matches_oracle(graph, points, queries,
                              SearchParams(k=10, l_n=32), dtype=np.float32)

    def test_per_query_entry_vertices(self):
        graph, points, queries = _graph_and_data("euclidean")
        entries = np.arange(len(queries)) % graph.n_vertices
        assert_matches_oracle(graph, points, queries,
                              SearchParams(k=5, l_n=16), entry=entries)

    def test_fast_matches_golden_ids_byte_for_byte(self):
        # The frozen scenario of test_golden_determinism.
        points = gaussian_mixture(400, 16, n_clusters=6, cluster_std=0.3,
                                  intrinsic_dim=6, seed=42)
        queries = gaussian_mixture(30, 16, n_clusters=6, cluster_std=0.3,
                                   intrinsic_dim=6, seed=43)
        graph = build_nsw_cpu(points, d_min=8, d_max=16).graph
        report = ganns_search(graph, points, queries,
                              SearchParams(k=10, l_n=32, e=24))
        with np.load(GOLDEN_PATH) as golden:
            assert report.ids.tobytes() == golden["ids"].tobytes()
            np.testing.assert_allclose(report.dists, golden["dists"],
                                       atol=1e-10, rtol=0)

    # -- at the batch width the benchmark runs (search_lowdim: 250) -----

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("lazy_check", [True, False])
    @pytest.mark.parametrize("dtype, l_n", [(np.float64, 64),
                                            (np.float32, 32)])
    def test_wide_batch_matches_oracle(self, metric, lazy_check, dtype,
                                       l_n):
        graph, points, queries = _wide_graph_and_data(metric)
        assert_matches_oracle(graph, points, queries,
                              SearchParams(k=10, l_n=l_n), dtype=dtype,
                              lazy_check=lazy_check)

    def test_wide_batch_explore_budget_below_pool(self):
        graph, points, queries = _wide_graph_and_data("euclidean")
        assert_matches_oracle(graph, points, queries,
                              SearchParams(k=10, l_n=64, e=24))

    def test_wide_batch_staged_is_exact_at_saturating_pool(self):
        # 60 points under l_n=64: every vertex fits the explore window,
        # so the compressed traversal's pool is the whole corpus and
        # the exact rerank must return brute force.
        points = gaussian_mixture(60, 16, seed=21)
        queries = gaussian_mixture(WIDE, 16, seed=22)
        graph = build_nsw_cpu(points, d_min=8, d_max=16).graph
        report = ganns_search(graph, points, queries,
                              SearchParams(k=10, l_n=64, quant="int8",
                                           rerank_factor=2))
        truth_ids, truth_dists = exact_knn(points, queries, 10,
                                           return_distances=True)
        assert np.array_equal(report.ids, truth_ids)
        np.testing.assert_allclose(report.dists, truth_dists, atol=1e-5,
                                   rtol=0)

    def test_answer_does_not_depend_on_batch_width(self):
        """One query alone, then inside batches of 4, 37 and 300."""
        graph, points, queries = _wide_graph_and_data("euclidean")
        params = SearchParams(k=10, l_n=64)
        probe = queries[123:124]
        alone = ganns_search(graph, points, probe, params)
        for width, at in ((4, 2), (37, 36), (WIDE, 0)):
            batch = queries[:width].copy()
            batch[at] = probe[0]
            report = ganns_search(graph, points, batch, params)
            assert report.ids[at].tobytes() == alone.ids[0].tobytes()
            assert report.iterations[at] == alone.iterations[0]
            for phase in alone.tracker.phase_names:
                assert (report.tracker.lane_cycles(phase)[at]
                        == alone.tracker.lane_cycles(phase)[0]), phase


def _report_bytes(report):
    """Everything a search returns that must not depend on blocking."""
    return ([report.ids.tobytes(), report.dists.tobytes(),
             report.iterations.tobytes(),
             report.lane_distance_evaluations.tobytes()]
            + [report.tracker.lane_cycles(phase).tobytes()
               for phase in report.tracker.phase_names])


class TestBlockedGather:
    """The engines gather and reduce in :func:`row_blocks` blocks; a
    block a few rows tall — splitting a query's run of fresh records
    and leaving a partial last block — changes no byte."""

    #: Rows per block at width 1 and d=16 (pca keeps all 16 there):
    #: three, so most iterations end on a partial block.
    TINY = 3 * 16

    @pytest.mark.parametrize("quant", [None, "fp16", "int8", "pca"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("metric", ["euclidean", "cosine", "ip"])
    def test_search_bytes_do_not_depend_on_block_size(
            self, monkeypatch, metric, dtype, quant):
        graph, points, queries = _graph_and_data(metric)
        points, queries = points.astype(dtype), queries.astype(dtype)
        params = SearchParams(k=10, l_n=32, quant=quant)
        default = ganns_search(graph, points, queries, params, dtype=dtype)
        monkeypatch.setattr(perf_distance, "CHUNK_ELEMENTS", self.TINY)
        blocked = ganns_search(graph, points, queries, params, dtype=dtype)
        assert _report_bytes(blocked) == _report_bytes(default)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine", "ip"])
    def test_rerank_shaped_pairs(self, monkeypatch, metric):
        """The staged rerank's call: every query against a ``(m, l_q)``
        pool with ``-1`` pads, blocks of two queries over seven."""
        _, points, queries = _graph_and_data(metric)
        engine = perf_distance.make_distance_engine(
            get_metric(metric), points, queries[:7], np.dtype(np.float64))
        rows = np.arange(7)
        ids = np.random.default_rng(3).integers(-1, len(points), (7, 40))
        default = engine.pairs(rows, ids)
        monkeypatch.setattr(perf_distance, "CHUNK_ELEMENTS",
                            2 * 40 * points.shape[1])
        assert engine.pairs(rows, ids).tobytes() == default.tobytes()
        # Negative ids are row 0's distance, as the contract says.
        assert np.array_equal(default[ids < 0],
                              engine.pairs(rows, np.zeros_like(ids))[ids < 0])

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_nn_descent_shares_the_rule(self, monkeypatch, metric):
        points = gaussian_mixture(120, 16, seed=8)
        default = build_knn_graph_gpu(points, 8, metric=metric)
        monkeypatch.setattr(perf_distance, "CHUNK_ELEMENTS", self.TINY)
        blocked = build_knn_graph_gpu(points, 8, metric=metric)
        assert graph_digest(blocked.graph) == graph_digest(default.graph)


#: Non-integral cycle costs: a sum of n charges then differs from
#: ``n * cost`` in the last bits, which the default table's integers hide.
FRACTIONAL_COSTS = dataclasses.replace(
    DEFAULT_COSTS, alu_cycles=1.1, shared_access_cycles=3.37,
    ballot_cycles=2.2, sync_cycles=6.1, mem_word_cycles=6.1,
    compare_exchange_cycles=18.13)


class TestCycleCharges:
    @pytest.mark.parametrize("lazy_check", [True, False])
    def test_fractional_costs_charge_bit_for_bit(self, lazy_check):
        """Each lane's per-phase total equals the oracle's repeated
        ``+= cost``, byte for byte, in the same phase order."""
        graph, points, queries = _graph_and_data("euclidean")
        params = SearchParams(k=10, l_n=32, e=24)
        oracle = ganns_search_oracle(graph, points, queries, params,
                                     costs=FRACTIONAL_COSTS,
                                     lazy_check=lazy_check)
        report = ganns_search(graph, points, queries, params,
                              costs=FRACTIONAL_COSTS, lazy_check=lazy_check)
        assert oracle.tracker.phase_names == report.tracker.phase_names
        for phase in oracle.tracker.phase_names:
            assert (oracle.tracker.lane_cycles(phase).tobytes()
                    == report.tracker.lane_cycles(phase).tobytes()), phase
        # Every constant-cost phase tells a sum from a product here.
        costs, l_t, n_t = FRACTIONAL_COSTS, graph.d_max, params.n_threads
        passes = oracle.iterations
        constant = [
            ("candidate_locating",
             costs.ganns_candidate_locate_cycles(32, n_t) * (passes + 1)),
            ("neighborhood_exploration",
             costs.ganns_explore_cycles(l_t, n_t) * passes),
            ("sorting", costs.ganns_sort_cycles(l_t, n_t) * passes),
            ("candidate_update",
             costs.ganns_merge_cycles(32, l_t, n_t) * passes)]
        if lazy_check:
            constant.append(("lazy_check", passes * costs
                             .ganns_lazy_check_cycles(32, l_t, n_t)))
        for phase, product in constant:
            assert not np.array_equal(
                product, oracle.tracker.lane_cycles(phase)), phase

    def test_charge_calls_do_not_grow_per_phase(self, monkeypatch):
        """One ``bulk_distance`` charge per iteration, plus the entry
        load and one charge per constant-cost phase."""
        graph, points, queries = _wide_graph_and_data("euclidean")
        calls = []
        charge = CycleTracker.charge

        def counting(self, phase, *args, **kwargs):
            calls.append(phase)
            return charge(self, phase, *args, **kwargs)

        monkeypatch.setattr(CycleTracker, "charge", counting)
        report = ganns_search(graph, points, queries,
                              SearchParams(k=10, l_n=64))
        assert len(calls) <= report.iterations.max() + 7

    def test_iteration_cap_raises(self, monkeypatch):
        graph, points, queries = _graph_and_data("euclidean")
        params = SearchParams(k=10, l_n=32)
        needed = int(ganns_search(graph, points, queries,
                                  params).iterations.max())

        def cap_at(cap):  # the cap is factor * l_n + 256
            monkeypatch.setattr(perf_engine, "_MAX_ITERATION_FACTOR",
                                (cap - 256) / params.l_n)

        cap_at(needed)
        ganns_search(graph, points, queries, params)
        cap_at(needed - 1)
        with pytest.raises(SearchError,
                           match=f"exceeded {needed - 1}.0 iterations"):
            ganns_search(graph, points, queries, params)


def _nsw(n, d, seed, params, **kwargs):
    return lambda: build_nsw_gpu(gaussian_mixture(n, d, seed=seed), params,
                                 **kwargs)


def _insert_with_exclude_mask():
    """One streaming batch into a built graph, tombstones excluded."""
    points = gaussian_mixture(240, 8, seed=15)
    params = BuildParams(d_min=4, d_max=8, n_blocks=6)
    grown = build_nsw_gpu(points[:200], params).graph.widened(240)
    tombstones = np.zeros(240, dtype=bool)
    tombstones[[0, 3, 17, 42, 99, 150]] = True
    return insert_batch_nsw(grown, points, np.arange(200, 240), params,
                            entry=1, exclude_mask=tombstones)


def _on(build, n, d, seed, params, **kwargs):
    """``build`` over a seeded mixture — the other clocks' scenarios."""
    return lambda: build(gaussian_mixture(n, d, seed=seed), params,
                         **kwargs)


_SMALL = BuildParams(d_min=4, d_max=8)
_SIX_GROUPS = _SMALL.with_overrides(n_blocks=6)

#: The frozen construction scenarios.  Never change one without
#: regenerating the golden file (and saying so in the commit message).
CONSTRUCTION_SCENARIOS = {
    "nsw_euclidean": _nsw(300, 16, 9, BuildParams(d_min=8, d_max=16,
                                                  n_blocks=8)),
    "nsw_cosine": _nsw(300, 16, 9, BuildParams(d_min=8, d_max=16,
                                               n_blocks=8),
                       metric="cosine"),
    "nsw_exact": _nsw(120, 8, 10, _SMALL.with_overrides(n_blocks=5),
                      exact=True),
    "nsw_exact_cosine": _nsw(120, 8, 10, _SMALL.with_overrides(n_blocks=5),
                             exact=True, metric="cosine"),
    "nsw_blocks_1": _nsw(257, 8, 11, _SMALL.with_overrides(n_blocks=1)),
    "nsw_blocks_257": _nsw(257, 8, 11, _SMALL.with_overrides(n_blocks=257)),
    # 800 blocks over 1000 points: groups of one or two.
    "nsw_blocks_800": _nsw(1000, 8, 11, _SMALL.with_overrides(n_blocks=800)),
    # The default grid over the same points: 100 groups of ten.
    "nsw_grid_rule": _nsw(1000, 8, 11, _SMALL),
    "hnsw": lambda: build_hnsw_gpu(
        gaussian_mixture(250, 8, seed=12),
        BuildParams(d_min=4, d_max=8, n_blocks=4, seed=3)),
    "insert_exclude_mask": _insert_with_exclude_mask,
    # The same body on the CPU clock: six groups over one core (a plain
    # sum) and over four (LPT makespans in both phases).
    "multicore_1": _on(build_nsw_multicore, 240, 8, 16, _SIX_GROUPS,
                       n_cores=1),
    "multicore_4": _on(build_nsw_multicore, 240, 8, 16, _SIX_GROUPS,
                       n_cores=4),
    "multicore_exact_1": _on(build_nsw_multicore, 120, 8, 10, _SIX_GROUPS,
                             n_cores=1, exact=True),
    "multicore_exact_4": _on(build_nsw_multicore, 120, 8, 10, _SIX_GROUPS,
                             n_cores=4, exact=True),
    # GSerial: the GPU clock with a single group.
    "gserial_song": _on(build_nsw_serial_gpu, 200, 8, 17, _SMALL,
                        search_kernel="song"),
    "gserial_ganns": _on(build_nsw_serial_gpu, 200, 8, 17, _SMALL,
                         search_kernel="ganns"),
}


def compute_construction_golden():
    """Run every frozen scenario; JSON floats round-trip exactly."""
    golden = {}
    for name, build in CONSTRUCTION_SCENARIOS.items():
        report = build()
        golden[name] = {"graph_digest": graph_digest(report.graph),
                        "seconds": report.seconds,
                        "phase_seconds": report.phase_seconds}
    return golden


def write_construction_golden(golden):
    with open(CONSTRUCTION_GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


class TestConstructionEquivalence:
    """The batched construction reproduces the per-vertex branches' bytes."""

    def _assert_reproduces(self, name):
        with open(CONSTRUCTION_GOLDEN_PATH) as handle:
            expected = json.load(handle)[name]
        report = CONSTRUCTION_SCENARIOS[name]()
        assert graph_digest(report.graph) == expected["graph_digest"]
        assert report.seconds == expected["seconds"]
        assert report.phase_seconds == expected["phase_seconds"]

    def test_golden_covers_every_scenario(self):
        with open(CONSTRUCTION_GOLDEN_PATH) as handle:
            assert set(json.load(handle)) == set(CONSTRUCTION_SCENARIOS)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_nsw_build_byte_identical(self, metric):
        self._assert_reproduces(f"nsw_{metric}")

    def test_exact_mode_byte_identical(self):
        self._assert_reproduces("nsw_exact")

    def test_exact_mode_cosine(self):
        self._assert_reproduces("nsw_exact_cosine")

    @pytest.mark.parametrize("n_blocks", [1, 257, 800])
    def test_block_count_extremes(self, n_blocks):
        self._assert_reproduces(f"nsw_blocks_{n_blocks}")

    def test_default_grid_byte_identical(self):
        self._assert_reproduces("nsw_grid_rule")

    def test_hnsw_build_byte_identical(self):
        self._assert_reproduces("hnsw")

    def test_insert_batch_with_exclude_mask(self):
        self._assert_reproduces("insert_exclude_mask")

    @pytest.mark.parametrize("name", ["multicore_1", "multicore_4",
                                      "multicore_exact_1",
                                      "multicore_exact_4"])
    def test_cpu_clock_byte_identical(self, name):
        self._assert_reproduces(name)

    @pytest.mark.parametrize("kernel", ["song", "ganns"])
    def test_gserial_byte_identical(self, kernel):
        self._assert_reproduces(f"gserial_{kernel}")


class TestDescentEquivalence:
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_batch_descent_matches_reference(self, metric):
        points = gaussian_mixture(250, 8, seed=13)
        queries = gaussian_mixture(40, 8, seed=14)
        params = BuildParams(d_min=4, d_max=8, n_blocks=4, seed=3)
        built = build_hnsw_gpu(points, params, metric=metric)
        shuffled = points[built.order]
        entries, n_dists = hnsw_entry_descent_batch(built.graph, shuffled,
                                                    queries)
        for row in range(len(queries)):
            entry, count = hnsw_entry_descent(built.graph, shuffled,
                                              queries[row])
            assert entries[row] == entry
            assert n_dists[row] == count


class TestSearchesShareNoState:
    """Each search call builds its own arena: a search answers the same
    whatever ran before it."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_each_call_gets_a_fresh_padded_arena(self, dtype):
        first = get_arena(5, 32, 16, np.dtype(dtype))
        first.pool_ids[:] = 7
        second = get_arena(5, 32, 16, np.dtype(dtype))
        assert second is not first
        assert second.pool_dists.dtype == dtype
        assert second.pool_dists.shape == (5, 32)
        assert np.all(second.pool_dists == np.inf)
        assert np.all(second.pool_ids == -1)
        assert np.all(second.pool_explored)
        assert second.t_ids.shape == (5, 16)
        assert np.array_equal(second.query_rows, np.arange(5))

    def test_repeated_search_is_identical(self):
        graph, points, queries = _graph_and_data("euclidean", n=200, m=10)
        params = SearchParams(k=5, l_n=16)
        first = ganns_search(graph, points, queries, params)
        second = ganns_search(graph, points, queries, params)
        assert first.ids.tobytes() == second.ids.tobytes()
        assert first.dists.tobytes() == second.dists.tobytes()
        _assert_trackers_equal(first.tracker, second.tracker)

    def test_narrow_search_after_wide_one(self):
        graph, points, queries = _wide_graph_and_data("euclidean")
        params = SearchParams(k=10, l_n=64)
        fresh = ganns_search(graph, points, queries[:7], params)
        ganns_search(graph, points, queries, params)
        stale = ganns_search(graph, points, queries[:7], params)
        assert fresh.ids.tobytes() == stale.ids.tobytes()
        assert fresh.dists.tobytes() == stale.dists.tobytes()
        assert np.array_equal(fresh.iterations, stale.iterations)
        _assert_trackers_equal(fresh.tracker, stale.tracker)
