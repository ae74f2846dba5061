"""Tests for GGraphCon NSW construction, including the Section IV-C
equivalence theorem."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import beam
from repro.baselines.cpu_cost import DEFAULT_CPU
from repro.baselines.nsw_cpu import build_nsw_cpu
from repro.core import construction
from repro.core.construction import (
    _build_local_graphs,
    build_nsw_gpu,
    build_nsw_gpu_parts,
    insert_batch_nsw,
)
from repro.core.construction_costs import CpuClock
from repro.core.hnsw import build_hnsw_gpu
from repro.core.params import BuildParams
from repro.errors import ConstructionError
from repro.graphs.stats import graph_digest
from repro.graphs.validation import validate_graph
from repro.gpusim.tracker import PhaseCategory
from repro.metrics.distance import get_metric
from tests.oracles.nsw_sequential import build_nsw_sequential
from tests.oracles.graph_measures import edge_recall_against, edge_set, \
    reachable_fraction


PARAMS = BuildParams(d_min=6, d_max=12, n_blocks=8)


class TestEquivalenceTheorem:
    """Section IV-C: given exact nearest neighbors, Algorithm 2 generates
    the same NSW graph as sequential insertion."""

    @pytest.mark.parametrize("n_blocks", [2, 5, 16])
    def test_exact_mode_equals_sequential_insertion(self, small_points,
                                                    n_blocks):
        points = small_points[:250]
        params = PARAMS.with_overrides(n_blocks=n_blocks)
        gpu = build_nsw_gpu(points, params, exact=True)
        cpu = build_nsw_cpu(points, params.d_min, params.d_max, exact=True)
        assert edge_set(gpu.graph) == edge_set(cpu.graph)

    def test_exact_mode_cosine(self, cosine_points):
        points = cosine_points[:200]
        params = PARAMS.with_overrides(n_blocks=4)
        gpu = build_nsw_gpu(points, params, metric="cosine", exact=True)
        cpu = build_nsw_cpu(points, params.d_min, params.d_max,
                            metric="cosine", exact=True)
        assert edge_set(gpu.graph) == edge_set(cpu.graph)

    def test_single_group_is_sequential(self, small_points):
        points = small_points[:150]
        params = PARAMS.with_overrides(n_blocks=1)
        gpu = build_nsw_gpu(points, params, exact=True)
        cpu = build_nsw_cpu(points, params.d_min, params.d_max, exact=True)
        assert edge_set(gpu.graph) == edge_set(cpu.graph)


class TestApproximateQuality:
    def test_graph_validates(self, small_points):
        report = build_nsw_gpu(small_points[:300], PARAMS)
        validate_graph(report.graph, points=small_points[:300],
                       check_distances=True)

    def test_connected(self, small_points):
        report = build_nsw_gpu(small_points[:300], PARAMS)
        assert reachable_fraction(report.graph, 0) > 0.95

    def test_edge_overlap_with_sequential(self, small_points):
        """Approximate-search GGraphCon produces a graph sharing most
        edges with the sequential build (Figure 12's quality match)."""
        points = small_points[:300]
        gpu = build_nsw_gpu(points, PARAMS)
        cpu = build_nsw_cpu(points, PARAMS.d_min, PARAMS.d_max)
        assert edge_recall_against(gpu.graph, cpu.graph) > 0.5

    def test_search_recall_matches_sequential(self, small_points,
                                              small_queries):
        from repro.core.ganns import ganns_search
        from repro.core.params import SearchParams
        from repro.datasets.ground_truth import exact_knn
        from repro.metrics.recall import recall_at_k

        points = small_points[:400]
        gt = exact_knn(points, small_queries, 10)
        gpu_graph = build_nsw_gpu(points, PARAMS).graph
        cpu_graph = build_nsw_cpu(points, PARAMS.d_min, PARAMS.d_max).graph
        search = SearchParams(k=10, l_n=64)
        r_gpu = recall_at_k(
            ganns_search(gpu_graph, points, small_queries, search).ids, gt)
        r_cpu = recall_at_k(
            ganns_search(cpu_graph, points, small_queries, search).ids, gt)
        assert r_gpu > r_cpu - 0.08


class TestTimingModel:
    def test_phase_seconds_present(self, small_points):
        report = build_nsw_gpu(small_points[:200], PARAMS)
        assert "local_construction" in report.phase_seconds
        assert "merge_search" in report.phase_seconds
        assert report.seconds == pytest.approx(
            sum(report.phase_seconds.values()))

    def test_category_split_sums_to_total(self, small_points):
        report = build_nsw_gpu(small_points[:200], PARAMS)
        assert sum(report.category_seconds.values()) == pytest.approx(
            report.seconds, rel=1e-6)

    def test_ganns_kernel_builds_faster_than_song(self, small_points):
        """GGraphCon_GANNS vs GGraphCon_SONG (Section V-B: 1.4-3.3x)."""
        points = small_points[:300]
        ganns = build_nsw_gpu(points, PARAMS, search_kernel="ganns")
        song = build_nsw_gpu(points, PARAMS, search_kernel="song")
        assert song.seconds / ganns.seconds > 1.2
        # Same construction, same traversals: identical graphs.
        assert edge_set(ganns.graph) == edge_set(song.graph)

    def test_more_blocks_build_faster(self, small_points):
        """Inter-block parallelism pays (Figure 14's direction)."""
        points = small_points[:400]
        few = build_nsw_gpu(points, PARAMS.with_overrides(n_blocks=2))
        many = build_nsw_gpu(points, PARAMS.with_overrides(n_blocks=32))
        assert many.seconds < few.seconds

    def test_details_recorded(self, small_points):
        report = build_nsw_gpu(small_points[:200],
                               PARAMS.with_overrides(n_blocks=5))
        assert report.details["n_groups"] == 5
        assert report.details["merge_iterations"] == 4
        assert report.n_points == 200
        assert report.algorithm == "ggraphcon-ganns"


class TestValidation:
    def test_rejects_empty_points(self):
        with pytest.raises(ConstructionError, match="non-empty"):
            build_nsw_gpu(np.zeros((0, 4)), PARAMS)

    def test_rejects_unknown_kernel(self, small_points):
        with pytest.raises(Exception, match="kernel"):
            build_nsw_gpu(small_points[:50], PARAMS,
                          search_kernel="magic")

    def test_more_groups_than_points_clamped(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(20, 4)).astype(np.float32)
        report = build_nsw_gpu(points,
                               BuildParams(d_min=2, d_max=4, n_blocks=100))
        assert report.details["n_groups"] <= 20
        validate_graph(report.graph)


def _grown_graph_and_points():
    """A 30-point euclidean ``d_max = 8`` graph grown to 40 rows."""
    points = np.random.default_rng(7).normal(size=(40, 6))
    params = BuildParams(d_min=4, d_max=8, n_blocks=3)
    return build_nsw_gpu(points[:30], params).graph.widened(40), points


class TestInsertBatchContract:
    """``insert_batch_nsw`` enforces its own docstring with a typed
    :class:`ConstructionError` instead of writing a bad graph or raising
    a raw NumPy error."""

    @pytest.mark.parametrize("change, match", [
        ({"entry": 35}, "entry must be a vertex before the batch"),
        ({"entry": 2.5}, "entry must be an integer"),
        ({"metric": "cosine"}, "does not match the graph's 'euclidean'"),
        ({"params": BuildParams(d_min=4, d_max=16, n_blocks=3)},
         r"params.d_max \(16\) does not match"),
        ({"new_ids": np.arange(30, 40) + 0.5}, "1-D integer array"),
        ({"new_ids": np.arange(30, 40).reshape(2, 5)}, "1-D integer array"),
        ({"exclude_mask": np.zeros(10, dtype=bool)},
         r"exclude_mask must be a \(40,\) bool array"),
        ({"exclude_mask": np.zeros(40)}, "exclude_mask must be a"),
        ({"nan_row": 33}, "row 33 holds NaN or inf"),
        ({"points_dtype": np.complex128}, "real numbers"),
    ])
    def test_bad_argument_is_refused(self, change, match):
        graph, points = _grown_graph_and_points()
        if "nan_row" in change:
            points[change.pop("nan_row"), 1] = np.nan
        if "points_dtype" in change:
            points = points.astype(change.pop("points_dtype"))
        kwargs = {"entry": 0, "metric": "euclidean",
                  "params": BuildParams(d_min=4, d_max=8, n_blocks=3),
                  "new_ids": np.arange(30, 40), **change}
        before = graph.copy()
        with pytest.raises(ConstructionError, match=match):
            insert_batch_nsw(graph, points, kwargs.pop("new_ids"),
                             kwargs.pop("params"), **kwargs)
        assert graph.neighbor_ids.tobytes() == before.neighbor_ids.tobytes()

    def test_good_arguments_insert(self):
        graph, points = _grown_graph_and_points()
        insert_batch_nsw(graph, points, np.arange(30, 40),
                         BuildParams(d_min=4, d_max=8, n_blocks=3), entry=29)
        validate_graph(graph)
        assert graph.degrees[30:].min() > 0


class TestBlockDiagonalPhase1:
    """Phase 1 builds every group's local graph as one block of a scratch
    graph, the groups' j-th insertions in one lock-step search: each block
    is the graph the group builds on its own by sequential insertion, and
    each group's working unit is charged that build's work."""

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("lockstep", [False, True])
    @pytest.mark.parametrize("n_blocks", [1, 7, 120])
    def test_blocks_equal_per_group_builds(self, small_points, n_blocks,
                                           lockstep, exact):
        points = small_points[:120]
        params = BuildParams(d_min=4, d_max=8, n_blocks=n_blocks)
        boundaries = np.unique(
            np.linspace(0, 120, n_blocks + 1).astype(np.int64))
        clock = CpuClock(1, DEFAULT_CPU, flops_per_distance=1)
        clock.units(len(boundaries) - 1)
        forward_ids = np.full((120, 4), -1, dtype=np.int64)
        forward_dists = np.full((120, 4), np.inf)
        # Below the crossover each lane runs the heap loop; drive both
        # bodies.
        with mock.patch.object(beam, "_LOCKSTEP_MIN_LANES",
                               1 if lockstep else beam._LOCKSTEP_MIN_LANES):
            scratch = _build_local_graphs(
                points, boundaries, params, get_metric("euclidean"), exact,
                clock, forward_ids, forward_dists)
        for unit, (lo, hi) in enumerate(zip(boundaries[:-1],
                                            boundaries[1:])):
            local, counters = build_nsw_sequential(points[lo:hi], 4, 8,
                                                   exact=exact)
            assert np.array_equal(
                scratch.neighbor_ids[lo:hi],
                np.where(local.neighbor_ids >= 0, local.neighbor_ids + lo,
                         -1))
            assert scratch.neighbor_dists[lo:hi].tobytes() == \
                local.neighbor_dists.tobytes()
            assert np.array_equal(scratch.degrees[lo:hi], local.degrees)
            charged = clock._units
            assert (charged.n_distances[unit], charged.n_heap_ops[unit],
                    charged.n_hash_probes[unit],
                    charged.n_adjacency_inserts[unit]) == (
                counters.n_distances, counters.n_heap_ops,
                counters.n_hash_probes, counters.n_adjacency_inserts)


def assert_same_build(got, want):
    """Byte-equal graphs and equal clock readings and details."""
    for name in ("neighbor_ids", "neighbor_dists", "degrees"):
        a, b = getattr(got.graph, name), getattr(want.graph, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.graph.metric_name == want.graph.metric_name
    assert (got.algorithm, got.n_points, got.details) == (
        want.algorithm, want.n_points, want.details)
    assert got.seconds == want.seconds
    assert got.phase_seconds == want.phase_seconds
    assert got.category_seconds == want.category_seconds


class TestCorpusCast:
    """GGraphCon casts its corpus to float64 once per build.  Every
    distance form already casts its rows, so a float32 corpus and the
    same values as float64 build the same graph at the same price."""

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("builder", [build_nsw_gpu, build_hnsw_gpu])
    def test_float32_builds_as_its_float64_copy(self, small_points,
                                                builder, metric):
        points = small_points[:200].astype(np.float32)
        params = BuildParams(d_min=6, d_max=12)
        narrow = builder(points, params, metric=metric)
        wide = builder(points.astype(np.float64), params, metric=metric)
        assert graph_digest(narrow.graph) == graph_digest(wide.graph)
        assert narrow.seconds == wide.seconds
        assert narrow.phase_seconds == wide.phase_seconds


class TestManyParts:
    """Several corpora run through one GGraphCon body, their searches
    sharing lock-step calls, and every part still gets exactly the
    report its solo build returns."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_every_part_equals_its_solo_build(self, data):
        n_parts = data.draw(st.integers(1, 5))
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        metric = data.draw(st.sampled_from(["euclidean", "cosine", "ip"]))
        kernel = data.draw(st.sampled_from(["ganns", "song"]))
        # Exact search (brute force over each prefix) on small parts.
        exact = data.draw(st.booleans())
        sizes = data.draw(st.lists(st.integers(1, 60 if exact else 300),
                                   min_size=n_parts, max_size=n_parts))
        lockstep = data.draw(st.booleans())
        params = BuildParams(d_min=4, d_max=8,
                             n_blocks=data.draw(st.integers(1, 120)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        parts = [rng.normal(size=(size, 6)).astype(dtype)
                 for size in sizes]
        # Below the crossover each lane runs the heap loop; drive both
        # bodies.
        with mock.patch.object(beam, "_LOCKSTEP_MIN_LANES",
                               1 if lockstep else beam._LOCKSTEP_MIN_LANES):
            reports = build_nsw_gpu_parts(parts, params, kernel, metric,
                                          exact)
        assert len(reports) == n_parts
        for points, report in zip(parts, reports):
            assert_same_build(report, build_nsw_gpu(points, params, kernel,
                                                    metric, exact))

    @pytest.mark.parametrize("sizes", [(3, 300), (300, 3, 40)])
    def test_parts_merge_over_their_own_grids(self, small_points, sizes):
        """A part with fewer points than ``n_blocks`` has fewer groups,
        so its merges sort over a narrower grid than its neighbors'."""
        parts = [small_points[:size] for size in sizes]
        params = PARAMS.with_overrides(n_blocks=5)
        for points, report in zip(parts,
                                  build_nsw_gpu_parts(parts, params)):
            assert_same_build(report, build_nsw_gpu(points, params))

    def test_one_merge_call_per_iteration_for_every_part(self,
                                                         small_points):
        parts = [small_points[lo:lo + 150] for lo in range(0, 600, 150)]
        params = PARAMS.with_overrides(n_blocks=10)
        with mock.patch.object(
                construction, "merge_group_into_graph",
                wraps=construction.merge_group_into_graph) as merge:
            build_nsw_gpu_parts(parts, params)
        assert merge.call_count == 9
        assert [len(call.args[2]) for call in merge.call_args_list] == \
            [60] * 9

    def test_no_parts_is_refused(self):
        with pytest.raises(ConstructionError, match="at least one part"):
            build_nsw_gpu_parts((), PARAMS)

    @pytest.mark.parametrize("other", [
        np.zeros((20, 5)), np.zeros((20, 4), dtype=np.float32)])
    def test_parts_must_share_dimension_and_dtype(self, other):
        with pytest.raises(ConstructionError, match="dimension and dtype"):
            build_nsw_gpu_parts((np.zeros((20, 4)), other), PARAMS)

    def test_non_finite_row_names_its_part_and_row(self, small_points):
        bad = small_points[:30].copy()
        bad[17, 2] = np.nan
        with pytest.raises(ConstructionError,
                           match="^part 1: points must be finite: row 17"):
            build_nsw_gpu_parts((small_points[:30], bad), PARAMS)
