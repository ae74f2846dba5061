"""Tests for the SONG baseline (three-stage GPU search)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.beam import beam_search_lanes
from repro.baselines.song import SongParams, _push_bounded, song_search
from repro.errors import ConfigurationError, SearchError
from repro.gpusim.tracker import PhaseCategory
from repro.metrics.recall import recall_at_k


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


class TestVisitedDeletion:
    """SONG's fixed-2k-hash visited-deletion optimization."""

    def test_recall_preserved(self, small_graph, small_points,
                              small_queries):
        from repro.datasets.ground_truth import exact_knn
        gt = exact_knn(small_points, small_queries, 10)
        plain = song_search(small_graph, small_points, small_queries,
                            SongParams(k=10, pq_bound=32))
        deleting = song_search(small_graph, small_points, small_queries,
                               SongParams(k=10, pq_bound=32,
                                          visited_deletion=True))
        assert recall_at_k(deleting.ids, gt) == pytest.approx(
            recall_at_k(plain.ids, gt), abs=0.05)

    def test_revisits_cost_extra_distances(self, small_graph,
                                           small_points, small_queries):
        """Deleting evicted entries means some vertices are visited (and
        distance-computed) more than once — the memory/work trade."""
        plain = song_search(small_graph, small_points, small_queries,
                            SongParams(k=10, pq_bound=16))
        deleting = song_search(small_graph, small_points, small_queries,
                               SongParams(k=10, pq_bound=16,
                                          visited_deletion=True))
        assert (deleting.n_distance_computations
                >= plain.n_distance_computations)

    def test_memory_stays_bounded(self, small_graph, small_points,
                                  small_queries):
        """With deletion, H never holds more than |N| + |C| <= 2 x bound
        entries — checked indirectly: the option is exactly what makes
        the paper's 'fixed size 2k' claim true, and the search still
        terminates and returns full results."""
        report = song_search(small_graph, small_points, small_queries[:8],
                             SongParams(k=5, pq_bound=8,
                                        visited_deletion=True))
        assert (report.ids[:, 0] >= 0).all()

    def test_requires_hash_strategy(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError, match="hash"):
            SongParams(visited_strategy="bloom", visited_deletion=True)


#: A push of a ``(dist, id)`` key (few distinct distances, so ties are
#: broken by id) or, as ``None``, a pop of the minimum.
_queue_ops = st.lists(
    st.one_of(st.none(),
              st.tuples(st.integers(0, 6).map(float),
                        st.integers(0, 40))),
    max_size=120)


class TestBoundedQueue:
    """SONG's ``C``: an ascending list of at most ``pq_bound`` keys."""

    @given(_queue_ops, st.integers(min_value=1, max_value=12))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_model(self, operations, bound):
        """Any interleaving of pushes and pops keeps exactly the
        ``bound`` smallest keys: a full queue rejects a key no better
        than its worst and otherwise evicts (and returns) the worst."""
        queue, model = [], []
        for key in operations:
            if key is None:
                if model:
                    smallest = min(model)
                    model.remove(smallest)
                    assert queue.pop(0) == smallest
                continue
            if len(model) == bound and key >= max(model):
                expected = (False, None)
            elif len(model) == bound:
                worst = max(model)
                model.remove(worst)
                model.append(key)
                expected = (True, worst)
            else:
                model.append(key)
                expected = (True, None)
            assert _push_bounded(queue, key, bound) == expected
            assert queue == sorted(model)
            assert len(queue) <= bound
