"""GGraphCon's three row writes are one rank merge with ``merge_row``'s
semantics.

Every row that ``insert_bidirectional_batch`` (Phase-1 links),
``merge_forward_batch`` (Step 1's ``N ∪ N'``) and
``merge_segments_batch`` (Step 3, and NN-Descent's update) write must
equal :meth:`ProximityGraph.merge_row` of that row and its run: sorted
by ``(dist, id)``, one record per id (the nearer, and on equal distance
the row's own), the best ``d_max`` kept.  Distances are drawn from a
few values so that ties broken by id, and repeats of a row's ids that
are nearer, equal and farther, all occur.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import construction
from repro.core.construction import build_nsw_gpu
from repro.core.params import BuildParams
from repro.datasets.synthetic import gaussian_mixture
from repro.graphs.adjacency import ProximityGraph
from repro.gpusim.scan import csr_offsets_from_sorted_ids
from repro.perf.construction import (
    insert_bidirectional_batch,
    merge_forward_batch,
    merge_segments_batch,
    rank_merge,
)
from tests.oracles.merge_row import merge_row

N_VERTICES = 24
DISTANCES = st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0, 2.0, 3.5])


def _sorted_records(ids, dists):
    order = np.lexsort((ids, dists))
    return np.asarray(ids, dtype=np.int64)[order], \
        np.asarray(dists, dtype=np.float64)[order]


def _assert_graphs_equal(got, want):
    assert got.neighbor_ids.tobytes() == want.neighbor_ids.tobytes()
    assert got.neighbor_dists.tobytes() == want.neighbor_dists.tobytes()
    assert got.degrees.tobytes() == want.degrees.tobytes()


@st.composite
def rows_and_runs(draw):
    """A graph with sorted rows (empty, partial or full) and one sorted
    run of distinct ids for each of some distinct rows — the run may be
    longer than ``d_max`` and may repeat the row's ids."""
    d_max = draw(st.integers(1, 6))
    graph = ProximityGraph(N_VERTICES, d_max)
    others = st.integers(0, N_VERTICES - 1)
    for vertex in range(N_VERTICES):
        ids = draw(st.lists(others.filter(lambda u, v=vertex: u != v),
                            max_size=d_max, unique=True))
        dists = draw(st.lists(DISTANCES, min_size=len(ids),
                              max_size=len(ids)))
        graph.set_row(vertex, *_sorted_records(ids, dists))
    rows = draw(st.lists(st.integers(0, N_VERTICES - 1), min_size=1,
                         max_size=5, unique=True))
    runs = []
    for vertex in rows:
        held = graph.neighbors(vertex).tolist()
        pool = st.one_of(st.sampled_from(held), others) if held else others
        ids = draw(st.lists(pool.filter(lambda u, v=vertex: u != v),
                            max_size=d_max + 3, unique=True))
        dists = draw(st.lists(DISTANCES, min_size=len(ids),
                              max_size=len(ids)))
        runs.append(_sorted_records(ids, dists))
    return graph, rows, runs


class TestRankMergeProperty:

    @settings(max_examples=100, deadline=None)
    @given(rows_and_runs())
    def test_rank_merge_equals_merge_row(self, case):
        graph, rows, runs = case
        want = graph.copy()
        for vertex, (ids, dists) in zip(rows, runs):
            merge_row(want, vertex, ids, dists)
        rank_merge(graph, np.asarray(rows, dtype=np.int64),
                   np.repeat(np.arange(len(rows)), [len(r[0]) for r in runs]),
                   np.concatenate([r[0] for r in runs]),
                   np.concatenate([r[1] for r in runs]))
        _assert_graphs_equal(graph, want)

    @settings(max_examples=100, deadline=None)
    @given(rows_and_runs())
    def test_segments_equal_merge_row(self, case):
        graph, rows, runs = case
        want = graph.copy()
        for vertex, (ids, dists) in zip(rows, runs):
            merge_row(want, vertex, ids, dists)
        src = np.concatenate([np.full(len(ids), vertex, dtype=np.int64)
                              for vertex, (ids, _) in zip(rows, runs)])
        dst = np.concatenate([ids for ids, _ in runs])
        dist = np.concatenate([dists for _, dists in runs])
        if len(src) == 0:
            return
        # Step 2's order: (starting vertex, distance, ending vertex).
        order = np.lexsort((dst, dist, src))
        src, dst, dist = src[order], dst[order], dist[order]
        merge_segments_batch(graph, src, dst, dist,
                             csr_offsets_from_sorted_ids(src))
        _assert_graphs_equal(graph, want)


@st.composite
def phase_one_step(draw):
    """Phase 1's invariants: the new vertices' rows are empty and held
    by no row, each target row is linked once in the whole step."""
    d_max = draw(st.integers(1, 6))
    n_new = draw(st.integers(1, 4))
    old = N_VERTICES - n_new
    graph = ProximityGraph(N_VERTICES, d_max)
    for vertex in range(old):
        ids = draw(st.lists(st.integers(0, old - 1).filter(
            lambda u, v=vertex: u != v), max_size=d_max, unique=True))
        dists = draw(st.lists(DISTANCES, min_size=len(ids),
                              max_size=len(ids)))
        graph.set_row(vertex, *_sorted_records(ids, dists))
    targets = draw(st.lists(st.integers(0, old - 1), max_size=old,
                            unique=True))
    cuts = sorted(draw(st.lists(st.integers(0, len(targets)),
                                min_size=n_new - 1, max_size=n_new - 1)))
    parts = np.split(np.asarray(targets, dtype=np.int64), cuts)
    width = max(1, max(len(part) for part in parts))
    neighbor_ids = np.full((n_new, width), -1, dtype=np.int64)
    dists = np.full((n_new, width), np.inf)
    for row, part in enumerate(parts):
        neighbor_ids[row, :len(part)] = part
        dists[row, :len(part)] = draw(st.lists(
            DISTANCES, min_size=len(part), max_size=len(part)))
    return graph, np.arange(old, N_VERTICES), neighbor_ids, dists


@st.composite
def merge_step_one(draw):
    """Step 1's invariants: the group's rows are empty, search results
    lie before the group (with excluded results blanked to -1 in place),
    ``v.N'`` inside it."""
    d_min = draw(st.integers(1, 5))
    d_max = draw(st.integers(d_min, 6))
    n_group = draw(st.integers(1, 4))
    first = N_VERTICES - n_group
    group = np.arange(first, N_VERTICES)
    graph = ProximityGraph(N_VERTICES, d_max)
    search_ids = np.full((n_group, d_min), -1, dtype=np.int64)
    search_dists = np.full((n_group, d_min), np.inf)
    forward_ids = np.full((N_VERTICES, d_min), -1, dtype=np.int64)
    forward_dists = np.full((N_VERTICES, d_min), np.inf)
    for row, vertex in enumerate(group):
        ids = draw(st.lists(st.integers(0, first - 1), max_size=d_min,
                            unique=True))
        ids, dists = _sorted_records(ids, draw(st.lists(
            DISTANCES, min_size=len(ids), max_size=len(ids))))
        blank = draw(st.lists(st.booleans(), min_size=len(ids),
                              max_size=len(ids)))
        search_ids[row, :len(ids)] = np.where(blank, -1, ids)
        search_dists[row, :len(ids)] = dists
        # v.N' as Phase 1 leaves it: any order, -1 past the last.
        mates = draw(st.lists(st.sampled_from(
            [u for u in group if u != vertex] or [-1]), max_size=d_min,
            unique=True))
        mates = [u for u in mates if u >= 0]
        forward_ids[vertex, :len(mates)] = mates
        forward_dists[vertex, :len(mates)] = draw(st.lists(
            DISTANCES, min_size=len(mates), max_size=len(mates)))
    return (graph, group, search_ids, search_dists, forward_ids,
            forward_dists, d_min)


def test_an_infinite_record_ranks_behind_the_row_not_its_pads():
    """A pad is ``(+inf, -1)``: it ties a ``+inf`` record's distance and
    has the smaller id, yet is never ahead of it."""
    graph = ProximityGraph(4, 4)
    graph.set_row(0, [1, 2], [0.5, 1.0])
    want = graph.copy()
    merge_row(want, 0, [3], [np.inf])
    rank_merge(graph, np.array([0]), np.array([0]), np.array([3]),
               np.array([np.inf]))
    _assert_graphs_equal(graph, want)
    assert graph.neighbors(0).tolist() == [1, 2, 3]


class TestKernelsEqualMergeRow:

    @settings(max_examples=100, deadline=None)
    @given(phase_one_step())
    def test_links_equal_merge_row(self, case):
        graph, vertices, neighbor_ids, dists = case
        want = graph.copy()
        for vertex, ids, row_dists in zip(vertices, neighbor_ids, dists):
            found = ids >= 0
            merge_row(want, vertex, *_sorted_records(ids[found],
                                                    row_dists[found]))
            for u, dist in zip(ids[found], row_dists[found]):
                merge_row(want, u, [vertex], [dist])
        insert_bidirectional_batch(graph, vertices, neighbor_ids, dists)
        _assert_graphs_equal(graph, want)

    @settings(max_examples=100, deadline=None)
    @given(merge_step_one())
    def test_forward_merge_equals_merge_row(self, case):
        graph, group, search_ids, search_dists, forward_ids, \
            forward_dists, d_min = case
        want = graph.copy()
        edges = []
        for row, vertex in enumerate(group):
            ids = np.concatenate([search_ids[row], forward_ids[vertex]])
            dists = np.concatenate([search_dists[row],
                                    forward_dists[vertex]])
            ids, dists = _sorted_records(ids[ids >= 0], dists[ids >= 0])
            # N := the best d_min of search ∪ N', into an empty row.
            merge_row(want, vertex, ids[:d_min], dists[:d_min])
            edges += [(u, vertex, d) for u, d in zip(ids[:d_min],
                                                     dists[:d_min])]
        src, dst, dist = merge_forward_batch(
            graph, group, search_ids, search_dists, forward_ids,
            forward_dists, d_min)
        _assert_graphs_equal(graph, want)
        assert sorted(zip(src.tolist(), dst.tolist(), dist.tolist())) \
            == sorted((int(u), int(v), float(d)) for u, v, d in edges)


class TestGGraphConNeverOffersAHeldId:
    """The precondition of the dedup-free forward merge: no Phase-2
    merge offers a row an id it already holds, so only NN-Descent ever
    exercises the repeat rule."""

    @pytest.mark.parametrize("exact", [False, True])
    def test_no_merge_offers_a_held_id(self, exact):
        points = gaussian_mixture(160, 8, seed=21)
        params = BuildParams(d_min=4, d_max=8, n_blocks=12)
        offers = []

        def forward(graph, group, search_ids, search_dists, forward_ids,
                    forward_dists, d_min):
            assert not graph.degrees[group].any()
            for row, vertex in enumerate(group):
                found = search_ids[row][search_ids[row] >= 0]
                mates = forward_ids[vertex][forward_ids[vertex] >= 0]
                assert found.max(initial=-1) < group[0]
                assert set(mates) <= set(group.tolist()) - {vertex}
            offers.append("forward")
            return merge_forward_batch(graph, group, search_ids,
                                       search_dists, forward_ids,
                                       forward_dists, d_min)

        def segments(graph, src, dst, dist, offsets):
            for lo, hi in zip(offsets[:-1], offsets[1:]):
                held = set(graph.neighbors(src[lo]).tolist())
                assert not held & set(dst[lo:hi].tolist())
            offers.append("segments")
            merge_segments_batch(graph, src, dst, dist, offsets)

        with mock.patch.object(construction, "merge_forward_batch",
                               side_effect=forward), \
                mock.patch.object(construction, "merge_segments_batch",
                                  side_effect=segments):
            build_nsw_gpu(points, params, exact=exact)
        assert offers.count("forward") == 11
        assert offers.count("segments") == 11
