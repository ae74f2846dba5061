"""Tests for the SONG baseline (three-stage GPU search)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.beam import _LOCKSTEP_MIN_LANES, beam_search_lanes
from repro.baselines.song import SongParams, song_search
from repro.errors import ConfigurationError, SearchError
from repro.graphs.adjacency import ProximityGraph
from repro.gpusim.costs import DEFAULT_COSTS
from repro.gpusim.tracker import PhaseCategory
from repro.metrics.recall import recall_at_k
from tests.oracles.song_loop import song_loop

PHASES = ("bulk_distance", "candidates_locating", "structures_updating")


class TestParams:
    def test_defaults_valid(self):
        params = SongParams()
        assert params.pq_bound >= params.k

    def test_rejects_bad_k(self):
        with pytest.raises(ConfigurationError, match="k"):
            SongParams(k=0)

    def test_rejects_pq_below_k(self):
        with pytest.raises(ConfigurationError, match="pq_bound"):
            SongParams(k=10, pq_bound=5)

    def test_rejects_bad_threads(self):
        with pytest.raises(ConfigurationError, match="n_threads"):
            SongParams(n_threads=0)


class TestSearchBehaviour:
    def test_results_match_beam_search(self, small_graph, small_points,
                                       small_queries):
        """SONG keeps Algorithm 1's data structures; with matching queue
        bound its results must match the CPU beam search."""
        report = song_search(small_graph, small_points, small_queries[:8],
                             SongParams(k=5, pq_bound=32))
        for row in range(8):
            reference = beam_search_lanes(small_graph, small_points,
                                          small_queries[row:row + 1], k=5,
                                          ef=32).ids[0]
            reference = reference[reference >= 0]
            assert np.array_equal(report.ids[row][:len(reference)],
                                  reference)

    def test_recall_improves_with_pq_bound(self, small_graph, small_points,
                                           small_queries):
        from repro.datasets.ground_truth import exact_knn
        gt = exact_knn(small_points, small_queries, 10)
        r_small = recall_at_k(
            song_search(small_graph, small_points, small_queries,
                        SongParams(k=10, pq_bound=10)).ids, gt)
        r_large = recall_at_k(
            song_search(small_graph, small_points, small_queries,
                        SongParams(k=10, pq_bound=64)).ids, gt)
        assert r_large > r_small

    def test_no_distance_recomputation(self, small_graph, small_points,
                                       small_queries):
        """SONG's visited hash means distances never repeat: the count is
        bounded by queries x vertices."""
        report = song_search(small_graph, small_points, small_queries[:4],
                             SongParams(k=5, pq_bound=32))
        assert (report.n_distance_computations
                <= 4 * small_graph.n_vertices)

    def test_dists_sorted(self, small_graph, small_points, small_queries):
        report = song_search(small_graph, small_points, small_queries[:4],
                             SongParams(k=8, pq_bound=16))
        live = report.dists[np.isfinite(report.dists).all(axis=1)]
        assert (np.diff(live, axis=1) >= 0).all()

    def test_cosine_metric(self, cosine_graph, cosine_points):
        report = song_search(cosine_graph, cosine_points,
                             cosine_points[:5], SongParams(k=3, pq_bound=64))
        # A point's own id must be its nearest neighbor under cosine.
        assert np.array_equal(report.ids[:, 0], np.arange(5))

    def test_per_query_entry_array(self, small_graph, small_points,
                                   small_queries):
        entries = np.arange(4)
        report = song_search(small_graph, small_points, small_queries[:4],
                             SongParams(k=5, pq_bound=16), entry=entries)
        assert report.ids.shape == (4, 5)


class TestCostAccounting:
    def test_structure_dominates(self, small_graph, small_points,
                                 small_queries):
        """The paper's observation: 50-90%+ of SONG's time is structure
        operations (here at moderate dimensionality)."""
        report = song_search(small_graph, small_points, small_queries[:8],
                             SongParams(k=10, pq_bound=32))
        assert report.structure_fraction() > 0.5

    def test_phase_categories_registered(self, small_graph, small_points,
                                         small_queries):
        report = song_search(small_graph, small_points, small_queries[:2],
                             SongParams(k=5, pq_bound=16))
        totals = report.tracker.category_totals()
        assert PhaseCategory.DISTANCE in totals
        assert PhaseCategory.STRUCTURE in totals

    def test_structure_time_ignores_thread_count(self, small_graph,
                                                 small_points,
                                                 small_queries):
        """Host-thread serialization: SONG's structure cycles must not
        change with n_t (Figure 10's flat curve)."""
        lo = song_search(small_graph, small_points, small_queries[:4],
                         SongParams(k=5, pq_bound=16, n_threads=4))
        hi = song_search(small_graph, small_points, small_queries[:4],
                         SongParams(k=5, pq_bound=16, n_threads=32))
        lo_struct = lo.tracker.category_totals()[PhaseCategory.STRUCTURE]
        hi_struct = hi.tracker.category_totals()[PhaseCategory.STRUCTURE]
        assert lo_struct == pytest.approx(hi_struct)

    def test_distance_time_scales_with_threads(self, small_graph,
                                               small_points, small_queries):
        lo = song_search(small_graph, small_points, small_queries[:4],
                         SongParams(k=5, pq_bound=16, n_threads=4))
        hi = song_search(small_graph, small_points, small_queries[:4],
                         SongParams(k=5, pq_bound=16, n_threads=32))
        lo_dist = lo.tracker.category_totals()[PhaseCategory.DISTANCE]
        hi_dist = hi.tracker.category_totals()[PhaseCategory.DISTANCE]
        assert hi_dist < lo_dist


class TestValidation:
    def test_rejects_1d_queries(self, small_graph, small_points):
        with pytest.raises(SearchError, match="2-D"):
            song_search(small_graph, small_points, small_points[0],
                        SongParams(k=3))

    def test_rejects_dim_mismatch(self, small_graph, small_points):
        with pytest.raises(SearchError, match="disagree"):
            song_search(small_graph, small_points, np.zeros((2, 3)),
                        SongParams(k=3))

    def test_rejects_empty_queries(self, small_graph, small_points):
        with pytest.raises(SearchError, match="empty"):
            song_search(small_graph, small_points,
                        np.zeros((0, small_points.shape[1])),
                        SongParams(k=3))

    def test_rejects_bad_entry(self, small_graph, small_points,
                               small_queries):
        with pytest.raises(SearchError, match="entry"):
            song_search(small_graph, small_points, small_queries[:2],
                        SongParams(k=3), entry=10 ** 6)


def _random_graph(rng, n, d_max, metric, full_rows=True):
    graph = ProximityGraph(n, d_max, metric)
    for v in range(n):
        degree = min(d_max, n - 1)
        if not full_rows:
            degree = int(rng.integers(0, degree + 1))
        graph.neighbor_ids[v, :degree] = rng.choice(
            np.delete(np.arange(n), v), degree, replace=False)
        graph.degrees[v] = degree
    return graph


@st.composite
def song_workload(draw):
    """A random graph (full rows or any degrees) over normal points — no
    two distances tie — with own or shared entries, a queue bound from
    ``k`` to ``k + 12`` and any thread count."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 80))
    dims = draw(st.sampled_from([3, 8, 17]))
    metric = draw(st.sampled_from(["euclidean", "cosine", "ip"]))
    graph = _random_graph(rng, n, draw(st.integers(1, 10)), metric,
                          draw(st.booleans()))
    k = draw(st.integers(1, min(n, 6)))
    params = SongParams(k=k, pq_bound=k + draw(st.sampled_from([0, 1, 5,
                                                                12])),
                        n_threads=draw(st.sampled_from([1, 8, 32])))
    n_lanes = draw(st.integers(1, 12))
    if draw(st.booleans()):
        entries = rng.integers(0, n, n_lanes)
    else:
        entries = np.full(n_lanes, rng.integers(0, n))
    points = rng.normal(size=(n, dims))
    queries = rng.normal(size=(n_lanes, dims))
    return graph, points, queries, params, entries


def _assert_is_the_loop(report, want, rows, bound):
    """``report``'s lanes are the loop's lanes ``rows``, byte for byte,
    but for one stopping pop a lane may add: its ``C`` still holds a
    candidate SONG's bounded ``C`` rejected when SONG's has run dry.
    That pop costs one extract-and-compare in candidates locating."""
    ids, dists, iterations, n_distances, tracker = want
    assert np.array_equal(report.ids, ids[rows])
    assert report.dists.tobytes() == dists[rows].tobytes()
    extra = report.iterations - iterations[rows]
    assert ((extra == 0) | (extra == 1)).all()
    assert tuple(report.tracker.phase_names) == PHASES
    for phase in ("bulk_distance", "structures_updating"):
        assert (report.tracker.lane_cycles(phase).tobytes()
                == tracker.lane_cycles(phase)[rows].tobytes())
    assert (report.tracker.lane_cycles("candidates_locating").tobytes()
            == (tracker.lane_cycles("candidates_locating")[rows]
                + extra * DEFAULT_COSTS.song_locate_cycles(0, bound)
                ).tobytes())
    if len(rows) == len(ids):
        assert report.n_distance_computations == n_distances


class TestLoopOracle:
    """``song_search`` is Algorithm 1 priced by SONG's clock.  Without
    distance ties it expands what SONG's own per-query loop
    (``tests/oracles/song_loop.py``) expands: equal ids, distance bytes,
    distance counts and per-lane bulk-distance and updating cycles, and
    iterations and locating cycles up to one stopping pop — below the
    40-lane crossover (per-lane heap loops) and from it (lock-step)."""

    @given(song_workload())
    @settings(max_examples=80, deadline=None)
    def test_equals_the_loop_on_both_sides_of_the_crossover(self, workload):
        graph, points, queries, params, entries = workload
        want = song_loop(graph, points, queries, params, entries)
        n = len(queries)
        _assert_is_the_loop(
            song_search(graph, points, queries, params, entries), want,
            np.arange(n), params.pq_bound)
        wide = -(-_LOCKSTEP_MIN_LANES // n) * n
        rows = np.resize(np.arange(n), wide)
        _assert_is_the_loop(
            song_search(graph, points, queries[rows], params,
                        entries[rows]), want, rows, params.pq_bound)

    @pytest.mark.parametrize("n_lanes", [1, _LOCKSTEP_MIN_LANES])
    def test_a_dry_bounded_queue_skips_the_stopping_pop(self, n_lanes):
        """``k = pq_bound = 1``: the entry's neighbors 1 and 2 are both
        nearer than it, SONG's one-slot ``C`` keeps only 1 and runs dry
        after expanding it (two iterations); Algorithm 1 kept 2 and pops
        it to stop (three) — same ids, distances and distance count."""
        points = np.array([[3.0], [0.1], [1.0]])
        graph = ProximityGraph(3, 2, "euclidean")
        graph.neighbor_ids[0] = [1, 2]
        graph.degrees[:] = [2, 0, 0]
        queries = np.zeros((n_lanes, 1))
        params = SongParams(k=1, pq_bound=1)
        want = song_loop(graph, points, queries, params,
                         np.zeros(n_lanes, dtype=np.int64))
        report = song_search(graph, points, queries, params)
        assert (want[2] == 2).all() and (report.iterations == 3).all()
        _assert_is_the_loop(report, want, np.arange(n_lanes), 1)

    def test_tied_corpus_costs_algorithm_1_more_iterations(self):
        """The declared tie difference: SONG's full ``C`` rejects a
        candidate no better than its worst, which Algorithm 1 keeps and —
        when its distance ties ``N``'s worst as it is popped — expands.
        On this corpus of duplicated half-integer points, queried at
        corpus points, the ids and distances agree and one lane runs
        three more iterations.  (On other tied corpora the extra
        expansion can also find other ids, or end a lane sooner.)"""
        rng = np.random.default_rng(8)
        points = rng.integers(0, 6, size=(60, 2)) / 2.0
        graph = _random_graph(rng, 60, 8, "euclidean")
        queries = points[rng.integers(0, 60, 8)]
        params = SongParams(k=3, pq_bound=4)
        report = song_search(graph, points, queries, params)
        ids, dists, iterations, n_distances, _ = song_loop(
            graph, points, queries, params, np.zeros(8, dtype=np.int64))
        assert np.array_equal(report.ids, ids)
        assert report.dists.tobytes() == dists.tobytes()
        assert (report.iterations >= iterations).all()
        assert (report.iterations - iterations).max() == 3
        assert report.n_distance_computations > n_distances
