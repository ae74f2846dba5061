"""Tests for Algorithm 1 beam search (``beam_search_lanes``, one lane
per query: per-lane heap loops sharing their distance calls below
``_LOCKSTEP_MIN_LANES`` lanes, lock-step from there on; both held to
``tests/oracles/beam_heap.py``)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import beam
from repro.baselines.beam import _LOCKSTEP_MIN_LANES, beam_search_lanes
from repro.core import pipeline
from repro.core.ganns import check_queries
from repro.core.index import GannsIndex
from repro.datasets.ground_truth import exact_knn
from repro.errors import SearchError
from repro.graphs.adjacency import ProximityGraph
from repro.metrics.distance import get_metric
from repro.perf import arena
from tests.oracles.beam_heap import heap_lanes


def _line_graph():
    """Points on a line, chained bidirectionally: search is exact."""
    points = np.arange(10, dtype=np.float64)[:, None]
    g = ProximityGraph(10, 4)
    for v in range(9):
        g.insert_edge(v, v + 1, 1.0)
        g.insert_edge(v + 1, v, 1.0)
    return g, points


def _one(graph, points, query, k, ef=None, entry=0):
    """One query as a one-lane call (the heap loop): its found ids and
    distances, and the lanes' four counters."""
    lanes = beam_search_lanes(graph, points, np.asarray(query)[None], k,
                              ef, entry)
    found = lanes.ids[0] >= 0
    lanes.ids, lanes.dists = lanes.ids[0, found], lanes.dists[0, found]
    return lanes


class TestExactOnEasyGraph:
    def test_finds_true_neighbors_on_line(self):
        g, points = _line_graph()
        result = _one(g, points, np.array([4.6]), k=3, ef=6)
        assert np.array_equal(result.ids, [5, 4, 6])

    def test_distances_sorted_ascending(self):
        g, points = _line_graph()
        result = _one(g, points, np.array([2.2]), k=5, ef=8)
        assert (np.diff(result.dists) >= 0).all()

    def test_high_ef_matches_brute_force(self, small_graph, small_points,
                                          small_queries):
        gt = exact_knn(small_points, small_queries[:10], 5)
        hits = 0
        for row in range(10):
            result = _one(small_graph, small_points, small_queries[row],
                          k=5, ef=128)
            hits += len(np.intersect1d(result.ids, gt[row]))
        assert hits / 50 > 0.9


class TestBudgetSemantics:
    def test_ef_defaults_to_k(self):
        g, points = _line_graph()
        result = _one(g, points, np.array([0.0]), k=2)
        assert len(result.ids) == 2

    def test_larger_ef_never_reduces_recall(self, small_graph, small_points,
                                            small_queries):
        gt = exact_knn(small_points, small_queries[:5], 10)
        for row in range(5):
            small = _one(small_graph, small_points, small_queries[row],
                         k=10, ef=10)
            large = _one(small_graph, small_points, small_queries[row],
                         k=10, ef=64)
            assert (len(np.intersect1d(large.ids, gt[row]))
                    >= len(np.intersect1d(small.ids, gt[row])) - 1)

    def test_counters_grow_with_ef(self, small_graph, small_points,
                                   small_queries):
        small = _one(small_graph, small_points, small_queries[0], k=5,
                     ef=8)
        large = _one(small_graph, small_points, small_queries[0], k=5,
                     ef=64)
        assert large.n_distance_computations > small.n_distance_computations
        assert large.n_iterations > small.n_iterations


class TestCounters:
    def test_no_distance_recomputation(self, small_graph, small_points,
                                       small_queries):
        """With the visited hash, each vertex's distance is computed at
        most once: count <= number of distinct visited vertices."""
        result = _one(small_graph, small_points, small_queries[0], k=5,
                      ef=32)
        assert result.n_distance_computations <= small_graph.n_vertices
        # Hash probes cover every scanned neighbor (>= distances).
        assert result.n_hash_probes >= result.n_distance_computations - 1


class TestValidation:
    def test_rejects_bad_k(self, small_graph, small_points):
        with pytest.raises(SearchError, match="k must be positive"):
            beam_search_lanes(small_graph, small_points, small_points[:1],
                              k=0)

    def test_rejects_ef_below_k(self, small_graph, small_points):
        with pytest.raises(SearchError, match="at least k"):
            beam_search_lanes(small_graph, small_points, small_points[:1],
                              k=5, ef=3)

    def test_rejects_bad_entry(self, small_graph, small_points):
        # Callers of beam_search_lanes pass their entries through the
        # one query check every search entry point runs.
        with pytest.raises(SearchError, match="entry"):
            check_queries(small_points, small_points[:1], small_graph,
                          10 ** 6)

    @pytest.mark.parametrize("case,match", [
        ("nan_query", "NaN or infinite"),
        ("2d_query", "2-D"),
        ("wrong_dims", "dimensionality"),
        ("short_points", "rows but the gr"),
        ("float_k", "k must be an integer"),
        ("bool_k", "k must be an integer"),
    ])
    def test_runs_the_one_query_check(self, small_graph, small_points,
                                      case, match):
        """Algorithm 1's public door, ``GannsIndex.search(algorithm=
        "beam")``, refuses what every other search refuses, with a
        ``SearchError`` instead of a NaN answer or a NumPy traceback."""
        queries, points, k = small_points[:1], small_points, 3
        if case == "nan_query":
            queries = np.full_like(queries, np.nan)
        elif case == "2d_query":
            # Not an (m, d) query matrix.
            queries = queries[0]
        elif case == "wrong_dims":
            queries = queries[:, :-1]
        elif case == "short_points":
            points = small_points[:10]
        else:
            k = 2.5 if case == "float_k" else True
        index = GannsIndex(points, small_graph, "nsw", "euclidean")
        with pytest.raises(SearchError, match=match):
            index.search(queries, k, algorithm="beam")


class TestBatch:
    def test_batch_shape_and_padding(self):
        g, points = _line_graph()
        ids = beam_search_lanes(g, points, points[:3], k=4, ef=8).ids
        assert ids.shape == (3, 4)
        assert (ids >= 0).all()

    def test_batch_matches_single(self, small_graph, small_points,
                                  small_queries):
        batch = beam_search_lanes(small_graph, small_points,
                                  small_queries[:5], k=5, ef=16).ids
        for row in range(5):
            single = _one(small_graph, small_points, small_queries[row],
                          k=5, ef=16)
            assert np.array_equal(batch[row], single.ids)

    def test_batch_rejects_1d_queries(self, small_graph, small_points):
        index = GannsIndex(small_points, small_graph, "nsw", "euclidean")
        with pytest.raises(SearchError, match="2-D"):
            index.search(small_points[0], k=2, algorithm="beam")

    def test_unreachable_vertices_padded(self):
        # Two disconnected pairs; searching from entry 0 reaches only 2.
        points = np.array([[0.0], [1.0], [50.0], [51.0]])
        g = ProximityGraph(4, 2)
        g.insert_edge(0, 1, 1.0)
        g.insert_edge(1, 0, 1.0)
        g.insert_edge(2, 3, 1.0)
        g.insert_edge(3, 2, 1.0)
        ids = beam_search_lanes(g, points, np.array([[0.2]]), k=4,
                                ef=8).ids
        assert set(ids[0][ids[0] >= 0].tolist()) == {0, 1}
        assert (ids[0][2:] == -1).all()


class TestBatchEntries:
    def test_per_query_entries(self, small_graph, small_points,
                               small_queries):
        entries = np.arange(5) * 7
        batch = beam_search_lanes(small_graph, small_points,
                                  small_queries[:5], k=5, ef=16,
                                  entries=entries).ids
        for row in range(5):
            single = _one(small_graph, small_points, small_queries[row],
                          k=5, ef=16, entry=int(entries[row]))
            assert np.array_equal(batch[row], single.ids)

    def test_entry_shape_checked(self, small_graph, small_points,
                                 small_queries):
        # Callers of beam_search_lanes pass per-lane entries through
        # the one query check every search entry point runs.
        with pytest.raises(SearchError, match="one vertex per query"):
            check_queries(small_points, small_queries[:5], small_graph,
                          np.zeros(4, dtype=np.int64))


@st.composite
def lanes_workload(draw):
    """A random graph (full rows, or any degrees; optionally
    block-diagonal), points with or without forced ties, one lane per
    query with its own or a shared entry, and a distance block of any
    size.  Some lanes query their own entry with ``ef == k``: ``N``
    fills on the first pop and every farther neighbor is dropped, so
    ``C`` runs dry on a dropped candidate and its stopping pop must
    still be counted."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 90))
    dims = draw(st.sampled_from([1, 3, 8, 17]))
    d_max = draw(st.integers(1, 10))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    metric = draw(st.sampled_from(["euclidean", "cosine", "ip"]))
    k = draw(st.integers(1, 6))
    ef = k + draw(st.sampled_from([0, 0, 1, 5, 12]))
    n_lanes = draw(st.integers(1, 48))
    if draw(st.booleans()):
        # Duplicated points: distance ties everywhere.
        points = rng.integers(0, 3, size=(n, dims)).astype(dtype)
    else:
        points = rng.normal(size=(n, dims)).astype(dtype)
    blocks = np.unique(np.concatenate(
        [[0, n], rng.integers(0, n, draw(st.integers(0, 4)))]))
    full_rows = draw(st.booleans())
    graph = ProximityGraph(n, d_max, metric)
    for lo, hi in zip(blocks[:-1], blocks[1:]):
        for v in range(lo, hi):
            others = np.delete(np.arange(lo, hi), v - lo)
            degree = min(d_max, len(others))
            if not full_rows:
                degree = int(rng.integers(0, degree + 1))
            graph.neighbor_ids[v, :degree] = rng.choice(others, degree,
                                                        replace=False)
            graph.degrees[v] = degree
    block = rng.integers(0, len(blocks) - 1, n_lanes)
    window = None
    if draw(st.booleans()):
        # Lanes confined to their block (GGraphCon's Phase 1 shape).
        entries = blocks[block]
        window = int(np.diff(blocks).max())
    elif draw(st.booleans()):
        entries = rng.integers(0, n, n_lanes)
    else:
        entries = np.full(n_lanes, rng.integers(0, n))
    queries = np.where(rng.random((n_lanes, 1)) < 0.3,
                       points[rng.integers(0, n, n_lanes)],
                       rng.normal(size=(n_lanes, dims)))
    if draw(st.booleans()):
        queries[::2] = points[entries[::2]]
        ef = k
    # Rows per distance block of the narrow body: one, a few, or the
    # cache-sized default.
    chunk = draw(st.sampled_from([dims, 3 * dims, beam.CHUNK_ELEMENTS]))
    return graph, points, queries, k, ef, entries, metric, window, chunk


def _assert_lanes_equal(got, want, rows):
    for field, value in vars(want).items():
        assert getattr(got, field).tobytes() == value[rows].tobytes(), \
            field


class TestLanesProperty:
    """Every width of ``beam_search_lanes`` is the one-query heap loop
    (``tests/oracles/beam_heap.py``), lane for lane: ids, distance bytes
    and the four counters the clocks price.  The first three queries go
    through as one-lane calls, up to ``_LOCKSTEP_MIN_LANES - 1`` of them
    as one call of per-lane heap loops and all of them, repeated up to
    at least ``_LOCKSTEP_MIN_LANES`` lanes, as one lock-step call."""

    @given(lanes_workload())
    @settings(max_examples=150, deadline=None)
    def test_lanes_equal_per_query_beam_search(self, workload):
        (graph, points, queries, k, ef, entries, metric, window,
         chunk) = workload
        metric = get_metric(metric)
        want = heap_lanes(graph, points, queries, k, ef, entries, metric)
        n = len(queries)
        narrow = min(n, _LOCKSTEP_MIN_LANES - 1)
        wide = -(-_LOCKSTEP_MIN_LANES // n) * n
        with mock.patch.object(beam, "CHUNK_ELEMENTS", chunk):
            for lane in range(min(n, 3)):
                _assert_lanes_equal(beam_search_lanes(
                    graph, points, queries[lane:lane + 1], k, ef,
                    entries[lane:lane + 1], metric, window), want,
                    slice(lane, lane + 1))
            _assert_lanes_equal(beam_search_lanes(
                graph, points, queries[:narrow], k, ef, entries[:narrow],
                metric, window), want, slice(0, narrow))
        _assert_lanes_equal(beam_search_lanes(
            graph, points, np.resize(queries, (wide, queries.shape[1])), k,
            ef, np.resize(entries, wide), metric, window), want,
            np.resize(np.arange(n), wide))

    @pytest.mark.parametrize("n_lanes", [1, 5, _LOCKSTEP_MIN_LANES])
    def test_dropped_candidate_keeps_the_stopping_pop(self, n_lanes):
        """A query at its entry with ``ef == 1``: ``N`` fills on the
        first pop, the farther neighbor is dropped and ``C`` is empty,
        yet the heap loop pops that neighbor to stop — two iterations."""
        g, points = _line_graph()
        lanes = beam_search_lanes(g, points, np.zeros((n_lanes, 1)), k=1,
                                  ef=1)
        want = heap_lanes(g, points, np.zeros((1, 1)), 1, 1, [0],
                          get_metric("euclidean"))
        assert want.n_iterations[0] == 2
        _assert_lanes_equal(lanes, want, np.zeros(n_lanes, dtype=int))

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("n_lanes", [1, 7, _LOCKSTEP_MIN_LANES])
    def test_tied_distances_break_by_id(self, metric, n_lanes):
        """Points on a few shared directions and norms: every pop and
        every ``N`` rank is a tie that only the ids decide."""
        rng = np.random.default_rng(7)
        points = rng.integers(1, 3, size=(60, 4)).astype(np.float64)
        graph = ProximityGraph(60, 6, metric)
        for v in range(60):
            row = rng.choice(np.delete(np.arange(60), v), 6, replace=False)
            graph.neighbor_ids[v] = row
            graph.degrees[v] = 6
        queries = points[rng.integers(0, 60, n_lanes)]
        entries = rng.integers(0, 60, n_lanes)
        want = heap_lanes(graph, points, queries, 4, 9, entries,
                          get_metric(metric))
        _assert_lanes_equal(beam_search_lanes(
            graph, points, queries, 4, 9, entries), want,
            slice(0, n_lanes))


def test_lanes_split_when_bitmaps_pass_the_budget(small_graph, small_points,
                                                  small_queries):
    """Past the visited-bitmap budget a lanes call searches its lanes in
    several lock-step calls; every lane's answer is unchanged."""
    args = (small_graph, small_points, small_queries, 5, 16, 0)
    whole = beam_search_lanes(*args)
    with mock.patch.object(arena, "BITMAP_BUDGET_BYTES", 1):
        split = beam_search_lanes(*args)
    for field, value in vars(whole).items():
        assert np.array_equal(getattr(split, field), value), field


def test_wide_steps_gather_in_blocks(small_graph, small_points,
                                     small_queries):
    """Past the gather cap a lock-step step evaluates its fresh runs a
    cache-sized block at a time; every lane's answer is unchanged."""
    args = (small_graph, small_points, small_queries, 5, 16, 0)
    whole = beam_search_lanes(*args)
    calls = []
    real = beam._blocked_distances

    def counting(*inner):
        calls.append(len(inner[3]))
        return real(*inner)

    with mock.patch.object(beam, "_LOCKSTEP_GATHER_CAP", 1), \
            mock.patch.object(beam, "_blocked_distances", counting):
        blocked = beam_search_lanes(*args)
    assert calls
    for field, value in vars(whole).items():
        assert getattr(blocked, field).tobytes() == value.tobytes(), field


def test_beam_and_pipeline_share_one_bitmap_budget():
    """Algorithm 1's lock-step lanes and a replay's lane store split
    their calls by one rule, on the same 64 MiB bitmap budget."""
    assert arena.BITMAP_BUDGET_BYTES == 64 << 20
    assert beam.lanes_per_call is arena.lanes_per_call
    assert pipeline.lanes_per_call is arena.lanes_per_call
    # Algorithm 1 holds no pool: only the bitmaps bound its calls.
    per_lane = 1_000_000
    assert arena.lanes_per_call(1_000_000, 0, 40) == \
        arena.BITMAP_BUDGET_BYTES // per_lane
    assert arena.lanes_per_call(4000, 64, 1) == 1927
    assert arena.lanes_per_call(1 << 40, 0, 40) == 40
