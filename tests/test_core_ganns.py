"""Tests for the batched GANNS search."""

import numpy as np
import pytest

from repro.baselines.beam import beam_search_lanes
from repro.core.index import GannsIndex
from repro.core.ganns import ganns_search
from repro.core.params import SearchParams
from repro.datasets.ground_truth import exact_knn
from repro.errors import SearchError, ServeError
from repro.gpusim.tracker import PhaseCategory
from repro.metrics.recall import recall_at_k


class TestResultQuality:
    def test_matches_beam_search_recall(self, small_graph, small_points,
                                        small_queries):
        """GANNS follows the same search paradigm; its recall must track
        Algorithm 1's at comparable budget."""
        gt = exact_knn(small_points, small_queries, 10)
        ganns = ganns_search(small_graph, small_points, small_queries,
                             SearchParams(k=10, l_n=64))
        beam = beam_search_lanes(small_graph, small_points, small_queries,
                                 10, ef=64).ids
        assert recall_at_k(ganns.ids, gt) == pytest.approx(
            recall_at_k(beam, gt), abs=0.05)

    def test_high_budget_high_recall(self, small_graph, small_points,
                                     small_queries):
        gt = exact_knn(small_points, small_queries, 10)
        report = ganns_search(small_graph, small_points, small_queries,
                              SearchParams(k=10, l_n=128))
        assert recall_at_k(report.ids, gt) > 0.9

    def test_recall_monotone_in_e(self, small_graph, small_points,
                                  small_queries):
        gt = exact_knn(small_points, small_queries, 10)
        recalls = []
        for e in (10, 24, 64):
            report = ganns_search(small_graph, small_points, small_queries,
                                  SearchParams(k=10, l_n=64, e=e))
            recalls.append(recall_at_k(report.ids, gt))
        assert recalls[0] <= recalls[1] + 0.02
        assert recalls[1] <= recalls[2] + 0.02

    def test_dists_sorted_and_consistent(self, small_graph, small_points,
                                         small_queries):
        report = ganns_search(small_graph, small_points, small_queries,
                              SearchParams(k=10, l_n=64))
        finite = np.isfinite(report.dists)
        assert (np.diff(report.dists, axis=1)[finite[:, 1:]] >= 0).all()
        # Returned distances match recomputed ones.
        metric = small_graph.metric
        for row in range(3):
            ids = report.ids[row][report.ids[row] >= 0]
            expected = metric.one_to_many(small_queries[row],
                                          small_points[ids])
            assert np.allclose(report.dists[row][:len(ids)], expected)

    def test_self_query_returns_self_first(self, small_graph, small_points):
        report = ganns_search(small_graph, small_points, small_points[:6],
                              SearchParams(k=5, l_n=64))
        assert np.array_equal(report.ids[:, 0], np.arange(6))

    def test_cosine_metric(self, cosine_graph, cosine_points):
        report = ganns_search(cosine_graph, cosine_points,
                              cosine_points[:6], SearchParams(k=3, l_n=64))
        assert np.array_equal(report.ids[:, 0], np.arange(6))

    def test_per_query_entries(self, small_graph, small_points,
                               small_queries):
        entries = np.arange(len(small_queries)) % small_graph.n_vertices
        report = ganns_search(small_graph, small_points, small_queries,
                              SearchParams(k=5, l_n=64), entry=entries)
        assert report.ids.shape == (len(small_queries), 5)


class TestLazyCheck:
    def test_no_duplicate_ids_in_results(self, small_graph, small_points,
                                         small_queries):
        report = ganns_search(small_graph, small_points, small_queries,
                              SearchParams(k=10, l_n=64))
        for row in report.ids:
            live = row[row >= 0]
            assert len(np.unique(live)) == len(live)

    def test_redundant_distances_exist_but_bounded(self, small_graph,
                                                   small_points,
                                                   small_queries):
        """Lazy check trades recomputation for hash removal: GANNS
        computes more distances than the visited-hash beam search, but
        not explosively more."""
        from repro.baselines.beam import beam_search_lanes
        report = ganns_search(small_graph, small_points, small_queries,
                              SearchParams(k=10, l_n=64))
        beam_total = beam_search_lanes(
            small_graph, small_points, small_queries, 10,
            ef=64).n_distance_computations.sum()
        assert report.n_distance_computations >= beam_total
        assert report.n_distance_computations < 10 * beam_total

    def test_disabling_lazy_check_costs_more_distance_work(
            self, small_graph, small_points, small_queries):
        """Ablation: without phase (4) redundant exploration propagates."""
        with_check = ganns_search(small_graph, small_points, small_queries,
                                  SearchParams(k=10, l_n=64))
        without = ganns_search(small_graph, small_points, small_queries,
                               SearchParams(k=10, l_n=64), lazy_check=False)
        assert (without.n_distance_computations
                >= with_check.n_distance_computations)

    def test_lazy_check_required_for_quality_at_fixed_budget(
            self, small_graph, small_points, small_queries):
        """Why phase (4) exists: without it, re-discovered vertices flood
        the pool with duplicates, the effective explored set collapses,
        and recall craters at the same (l_n, e) budget."""
        gt = exact_knn(small_points, small_queries, 10)
        with_check = ganns_search(small_graph, small_points, small_queries,
                                  SearchParams(k=10, l_n=64))
        without = ganns_search(small_graph, small_points, small_queries,
                               SearchParams(k=10, l_n=64), lazy_check=False)
        assert (recall_at_k(with_check.ids, gt)
                > recall_at_k(without.ids, gt) + 0.3)


class TestCostAccounting:
    def test_all_six_phases_charged(self, small_graph, small_points,
                                    small_queries):
        report = ganns_search(small_graph, small_points, small_queries[:5],
                              SearchParams(k=5, l_n=64))
        assert set(report.tracker.phase_names) == {
            "candidate_locating", "neighborhood_exploration",
            "bulk_distance", "lazy_check", "sorting", "candidate_update",
        }

    def test_structure_ops_scale_with_threads(self, small_graph,
                                              small_points, small_queries):
        """GANNS's defining property (Figure 10): structure time shrinks
        near-linearly with n_t."""
        lo = ganns_search(small_graph, small_points, small_queries[:5],
                          SearchParams(k=5, l_n=64, n_threads=4))
        hi = ganns_search(small_graph, small_points, small_queries[:5],
                          SearchParams(k=5, l_n=64, n_threads=32))
        lo_struct = lo.tracker.category_totals()[PhaseCategory.STRUCTURE]
        hi_struct = hi.tracker.category_totals()[PhaseCategory.STRUCTURE]
        assert lo_struct / hi_struct > 3.0

    def test_iterations_close_to_e_budget(self, small_graph, small_points,
                                          small_queries):
        report = ganns_search(small_graph, small_points, small_queries[:5],
                              SearchParams(k=5, l_n=64, e=16))
        assert (report.iterations >= 1).all()
        # Every iteration explores one vertex from the first e slots;
        # replacement allows more than e iterations but same order.
        assert (report.iterations <= 16 * 8).all()

    def test_lane_cycles_vary_per_query(self, small_graph, small_points,
                                        small_queries):
        report = ganns_search(small_graph, small_points, small_queries,
                              SearchParams(k=5, l_n=64))
        cycles = report.tracker.lane_cycles()
        assert cycles.std() > 0


class TestValidation:
    def test_rejects_1d_queries(self, small_graph, small_points):
        with pytest.raises(SearchError, match="2-D"):
            ganns_search(small_graph, small_points, small_points[0],
                         SearchParams())

    def test_rejects_dim_mismatch(self, small_graph, small_points):
        with pytest.raises(SearchError, match="disagree"):
            ganns_search(small_graph, small_points, np.zeros((2, 3)),
                         SearchParams())

    def test_rejects_empty_queries(self, small_graph, small_points):
        with pytest.raises(SearchError, match="empty"):
            ganns_search(small_graph, small_points,
                         np.zeros((0, small_points.shape[1])),
                         SearchParams())

    def test_rejects_bad_entry(self, small_graph, small_points,
                               small_queries):
        with pytest.raises(SearchError, match="entry"):
            ganns_search(small_graph, small_points, small_queries,
                         SearchParams(), entry=-3)


class TestNonFiniteQueries:
    """NaN/inf queries are a typed one-line error at every entry point,
    never a silently mis-sorted pool."""

    @pytest.fixture(params=[np.nan, np.inf, -np.inf])
    def bad_queries(self, request, small_queries):
        queries = small_queries[:4].copy()
        queries[2, 5] = request.param
        return queries

    def test_ganns_search(self, small_graph, small_points, bad_queries):
        with pytest.raises(SearchError, match="NaN or infinite"):
            ganns_search(small_graph, small_points, bad_queries,
                         SearchParams())

    def test_staged_search(self, small_graph, small_points, bad_queries):
        with pytest.raises(SearchError, match="NaN or infinite"):
            ganns_search(small_graph, small_points, bad_queries,
                         SearchParams(quant="pca"))

    def test_index_search(self, small_graph, small_points, bad_queries):
        from repro.core.index import GannsIndex
        index = GannsIndex(small_points, small_graph, "nsw", "euclidean")
        with pytest.raises(SearchError, match="NaN or infinite"):
            index.search(bad_queries, k=5)

    def test_serve_replay(self, small_graph, small_points, small_queries,
                          bad_queries):
        from repro.serve.engine import ServeEngine
        from repro.serve.request import QueryRequest
        engine = ServeEngine(small_graph, small_points,
                             params=SearchParams(k=5, l_n=32))
        trace = [QueryRequest(0, small_queries[:2], 0.0),
                 QueryRequest(1, bad_queries, 1e-4)]
        # Rejected with the trace, before any batch forms — not by the
        # kernel in the middle of the replay.
        with pytest.raises(ServeError, match="request 1.*NaN or infinite"):
            engine.replay(trace)


def _hostile(kind, queries):
    """A query batch no search can rank, and the message that says why."""
    if kind in ("nan", "inf"):
        bad = queries[:4].copy()
        bad[2, 5] = np.nan if kind == "nan" else np.inf
        return bad, "NaN or infinite"
    if kind == "wrong dims":
        return queries[:4, :10], "disagree on dimensionality"
    if kind == "1-D":
        return queries[0], "2-D"
    return queries[:0], "non-empty"


HOSTILE = ["nan", "inf", "wrong dims", "1-D", "empty"]


class TestEveryAlgorithmChecksQueries:
    """GANNS, SONG and the beam baseline run one query check: a query
    they cannot rank is a typed error, never ids with NaN distances or
    a NumPy broadcast traceback."""

    @pytest.mark.parametrize("kind", HOSTILE)
    @pytest.mark.parametrize("algorithm", ["ganns", "song", "beam"])
    @pytest.mark.parametrize("graph_type", ["nsw", "hnsw"])
    def test_index_search(self, small_points, small_queries, flat_index,
                          hnsw_index, graph_type, algorithm, kind):
        index = flat_index if graph_type == "nsw" else hnsw_index
        queries, message = _hostile(kind, small_queries)
        with pytest.raises(SearchError, match=message):
            index.search(queries, k=5, algorithm=algorithm)

    @pytest.mark.parametrize("kind", HOSTILE)
    def test_song_search(self, small_graph, small_points, small_queries,
                         kind):
        from repro.baselines.song import SongParams, song_search
        queries, message = _hostile(kind, small_queries)
        with pytest.raises(SearchError, match=message):
            song_search(small_graph, small_points, queries, SongParams(k=5))

    @pytest.mark.parametrize("kind", HOSTILE)
    def test_beam_search_batch(self, small_graph, small_points,
                               small_queries, kind):
        index = GannsIndex(small_points, small_graph, "nsw", "euclidean")
        queries, message = _hostile(kind, small_queries)
        with pytest.raises(SearchError, match=message):
            index.search(queries, k=5, algorithm="beam")

    def test_song_rejects_an_entry_matrix(self, small_graph, small_points,
                                          small_queries):
        from repro.baselines.song import SongParams, song_search
        with pytest.raises(SearchError, match="one vertex per query"):
            song_search(small_graph, small_points, small_queries,
                        SongParams(k=5),
                        entry=np.zeros((len(small_queries), 1), dtype=int))

    def test_tune_search_song(self, small_graph, small_points,
                              small_queries):
        from repro.core.tuner import tune_search
        queries, _ = _hostile("nan", small_queries)
        with pytest.raises(SearchError, match="NaN or infinite"):
            tune_search(small_graph, small_points, queries, 0.9, k=5,
                        algorithm="song",
                        ground_truth=np.zeros((4, 5), dtype=int))


@pytest.fixture(scope="module")
def flat_index(small_points, small_graph):
    from repro.core.index import GannsIndex
    return GannsIndex(small_points, small_graph, "nsw", "euclidean")


@pytest.fixture(scope="module")
def hnsw_index(small_points):
    from repro.core.index import GannsIndex
    from repro.core.params import BuildParams
    return GannsIndex.build(small_points[:300], graph_type="hnsw",
                            params=BuildParams(d_min=4, d_max=8,
                                               n_blocks=8))


class TestMismatchedInputs:
    """A point matrix that is not the graph's, or a per-query entry
    array of the wrong length, is a typed error at every entry point —
    never an answer scored against clipped rows, never a NumPy
    broadcast traceback."""

    def test_ganns_search_rejects_foreign_points(self, small_graph,
                                                 small_points,
                                                 small_queries):
        for points in (small_points[:100],
                       np.concatenate([small_points, small_points[:1]])):
            with pytest.raises(SearchError, match="vertices"):
                ganns_search(small_graph, points, small_queries,
                             SearchParams(k=5, l_n=32))

    def test_staged_search_rejects_foreign_points(self, small_graph,
                                                  small_points,
                                                  small_queries):
        with pytest.raises(SearchError, match="vertices"):
            ganns_search(small_graph, small_points[:100], small_queries,
                         SearchParams(k=5, l_n=32, quant="fp16"))

    def test_index_search_rejects_foreign_points(self, small_graph,
                                                 small_points,
                                                 small_queries):
        from repro.core.index import GannsIndex
        index = GannsIndex(small_points[:100], small_graph, "nsw",
                           "euclidean")
        with pytest.raises(SearchError, match="vertices"):
            index.search(small_queries, k=5)

    def test_serve_replay_rejects_foreign_points(self, small_graph,
                                                 small_points,
                                                 small_queries):
        from repro.serve.engine import ServeEngine
        from repro.serve.request import QueryRequest
        engine = ServeEngine(small_graph, small_points[:100],
                             params=SearchParams(k=5, l_n=32))
        with pytest.raises(SearchError, match="vertices"):
            engine.replay([QueryRequest(0, small_queries[:2], 0.0)])

    @pytest.mark.parametrize("n_entries", [1, 3, 41])
    def test_rejects_entry_array_of_wrong_length(self, small_graph,
                                                 small_points,
                                                 small_queries, n_entries):
        with pytest.raises(SearchError, match="entry"):
            ganns_search(small_graph, small_points, small_queries,
                         SearchParams(k=5, l_n=32),
                         entry=np.zeros(n_entries, dtype=np.int64))

    def test_rejects_entry_matrix(self, small_graph, small_points,
                                  small_queries):
        with pytest.raises(SearchError, match="entry"):
            ganns_search(small_graph, small_points, small_queries,
                         SearchParams(k=5, l_n=32),
                         entry=np.zeros((len(small_queries), 1),
                                        dtype=np.int64))


@pytest.fixture(scope="module")
def tiny_index():
    """200 points: fewer than the k the refusal tests ask for."""
    from repro.core.params import BuildParams
    from repro.datasets.synthetic import gaussian_mixture
    return GannsIndex.build(gaussian_mixture(200, 8, seed=11),
                            params=BuildParams(d_min=4, d_max=8,
                                               n_blocks=8))


class TestKBeyondCorpus:
    """``k`` above the vertex count is refused at the search's door, as
    ``exact_knn`` refuses it — never rows of ``-1`` / ``inf`` pads."""

    @pytest.mark.parametrize("algorithm", ["ganns", "song", "beam"])
    def test_index_search(self, tiny_index, algorithm):
        queries = tiny_index.points[:5]
        with pytest.raises(SearchError, match="k=500 exceeds the 200"):
            tiny_index.search(queries, k=500, algorithm=algorithm)
        ids, _ = tiny_index.search(queries, k=200, algorithm=algorithm)
        assert ids.shape == (5, 200)

    @pytest.mark.parametrize("quant", [None, "int8"])
    def test_ganns_search(self, tiny_index, quant):
        graph, points = tiny_index.graph, tiny_index.points
        with pytest.raises(SearchError, match="k=201 exceeds the 200"):
            ganns_search(graph, points, points[:3],
                         SearchParams(k=201, l_n=256, quant=quant))
        report = ganns_search(graph, points, points[:3],
                              SearchParams(k=200, l_n=256, quant=quant))
        assert report.ids.shape == (3, 200)

    def test_stream_batches(self, tiny_index):
        from repro.core.pipeline import stream_batches
        graph, points = tiny_index.graph, tiny_index.points
        with pytest.raises(SearchError, match="k=201 exceeds the 200"):
            stream_batches(graph, points, points[:6],
                           SearchParams(k=201, l_n=256), batch_size=4)
