"""Batched tombstone compaction against the per-row reference pass.

:func:`repro.mutable.compaction.compact_graph` repairs every hole with
array operations — one rewrite over all live rows, batched bridge
distances, :func:`~repro.perf.construction.rank_merge` per wave and
batched forced-chain edges.  ``tests/oracles/compaction.py`` is the pass
it replaced, one row at a time.  Both must leave the same adjacency
bytes and the same :class:`~repro.mutable.compaction.CompactionStats`,
under any metric, graph dtype and cost table — fractional costs
included, where the order the charges are summed in shows.
"""

import ast
import dataclasses
import functools
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.construction import build_nsw_gpu
from repro.core.params import BuildParams
from repro.datasets.synthetic import gaussian_mixture
from repro.gpusim.costs import CostTable, DEFAULT_COSTS
from repro.graphs.adjacency import ProximityGraph
from repro.mutable import compaction
from repro.perf import distance as perf_distance
from repro.mutable.compaction import compact_graph
from tests.oracles.compaction import compact_graph_oracle

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def _assert_same(graph, stats, want_graph, want_stats):
    assert graph.neighbor_ids.tobytes() == want_graph.neighbor_ids.tobytes()
    assert graph.neighbor_dists.dtype == want_graph.neighbor_dists.dtype
    assert (graph.neighbor_dists.tobytes()
            == want_graph.neighbor_dists.tobytes())
    assert graph.degrees.tobytes() == want_graph.degrees.tobytes()
    # Bit-equal, float fields included (== would pass -0.0 for 0.0).
    assert repr(dataclasses.astuple(stats)) == repr(
        dataclasses.astuple(want_stats))


def _both(graph, points, tombstones, costs=DEFAULT_COSTS):
    """Run both passes on copies; assert they agree; return the result."""
    got, want = graph.copy(), graph.copy()
    stats = compact_graph(got, points, tombstones, costs=costs)
    want_stats = compact_graph_oracle(want, points, tombstones, costs=costs)
    _assert_same(got, stats, want, want_stats)
    return got, stats


@functools.lru_cache(maxsize=None)
def _built(metric, seed, d_max):
    points = gaussian_mixture(48, 6, n_clusters=3, seed=seed)
    params = BuildParams(d_min=max(2, d_max // 2), d_max=d_max,
                         n_blocks=4, n_threads=32)
    return points, build_nsw_gpu(points, params, metric=metric).graph


def _as_dtype(graph, dtype):
    return ProximityGraph.from_arrays(
        graph.neighbor_ids.copy(), graph.neighbor_dists.astype(dtype),
        graph.degrees.copy(), graph.metric_name)


FRACTIONAL = st.builds(
    CostTable,
    alu_cycles=st.floats(0.1, 3.0),
    fma_cycles=st.floats(0.1, 3.0),
    shared_access_cycles=st.floats(0.1, 9.0),
    mem_word_cycles=st.floats(0.1, 9.0),
    mem_fixed_cycles=st.floats(0.1, 17.0),
    shuffle_cycles=st.floats(0.1, 5.0),
    compare_exchange_cycles=st.floats(0.1, 40.0),
)


class TestAgainstPerRowPass:

    @settings(max_examples=60, deadline=None)
    @given(metric=st.sampled_from(["euclidean", "cosine", "ip"]),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2),
           d_max=st.sampled_from([3, 4, 8]),
           first=st.lists(st.booleans(), min_size=48, max_size=48),
           second=st.lists(st.booleans(), min_size=48, max_size=48),
           costs=FRACTIONAL)
    def test_two_passes_equal_the_reference(self, metric, dtype, seed,
                                            d_max, first, second, costs):
        """A pass, then a second one whose mask keeps the first pass's
        tombstones — already detached, counted again in ``n_dead``."""
        points, built = _built(metric, seed, d_max)
        graph = _as_dtype(built, dtype)
        dead = np.asarray(first) & (np.arange(48) % 3 == 0)
        graph, _ = _both(graph, points, dead, costs)
        _both(graph, points, dead | np.asarray(second), costs)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine", "ip"])
    def test_one_row_blocks_equal_the_reference(self, monkeypatch, metric):
        """The candidate grid and the bridge distances are built in
        ``CHUNK_ELEMENTS`` blocks; at three elements every block holds
        one member's run, and the bytes must not move."""
        monkeypatch.setattr(perf_distance, "CHUNK_ELEMENTS", 3)
        monkeypatch.setattr(compaction, "CHUNK_ELEMENTS", 3)
        points, graph = _built(metric, 1, 4)
        dead = np.random.default_rng(0).random(48) < 0.4
        _, stats = _both(graph, points, dead)
        assert stats.n_bridge_candidates > 0

    def test_no_dead_vertex_charges_only_the_scan(self):
        points, graph = _built("euclidean", 0, 4)
        _, stats = _both(graph, points, np.zeros(48, dtype=bool))
        assert stats.n_dead == 0 and stats.distance_cycles == 0.0


def _line_graph(d_max, rows):
    """Points on a line (vertex ``v`` at ``x = v``) and sorted rows."""
    n = len(rows)
    points = np.zeros((n, 2))
    points[:, 0] = np.arange(n, dtype=np.float64)
    graph = ProximityGraph(n, d_max)
    for v, ids in enumerate(rows):
        ids = np.asarray(ids, dtype=np.int64)
        dists = (ids - v).astype(np.float64) ** 2
        order = np.lexsort((ids, dists))
        graph.set_row(v, ids[order], dists[order])
    return points, graph


def _edges(graph):
    src, col = np.nonzero(np.arange(graph.d_max) < graph.degrees[:, None])
    return src, graph.neighbor_ids[src, col]


class TestRegressions:

    def test_live_vertex_adjacent_to_two_dead_components(self):
        """Vertex 3 points into hole {2} and hole {4}: its row takes hole
        2's merge and chain first, then hole 4's."""
        points, graph = _line_graph(3, [
            [1, 2], [0, 2], [1, 3], [2, 4], [3, 5], [4, 6], [5]])
        dead = np.isin(np.arange(7), [2, 4])
        hole, member = compaction._holes(*_edges(graph), dead)
        assert hole.tolist() == [2, 2, 2, 4, 4]
        assert member.tolist() == [0, 1, 3, 3, 5]
        got, stats = _both(graph, points, dead)
        assert stats.n_dead == 2 and stats.n_rows_rewritten == 4
        assert got.neighbors(3).tolist() == [1, 5, 0]

    def test_chain_evicts_from_a_full_row(self):
        """Hole {6} bridges 0 and 5, whose full rows hold nearer
        neighbors: the merge keeps neither bridge, so the chain forces
        both edges, each evicting its row's farthest record."""
        points, graph = _line_graph(2, [
            [1, 2], [0, 2], [1, 3], [2, 4], [3, 5], [4, 3], [5, 0]])
        dead = np.arange(7) == 6
        got, stats = _both(graph, points, dead)
        assert got.neighbors(0).tolist() == [1, 5]
        assert got.neighbors(5).tolist() == [4, 0]
        assert stats.n_bridge_candidates == 2


    def test_float32_tie_left_by_the_chain_is_merged_in_id_order(self):
        """The chain ranks a forced edge on its float64 distance: 0.09
        sorts before float32(0.09), so the pass leaves row 0 holding a
        tie out of id order.  A later merge into that row ranks the tie
        by id, as ``merge_row`` does, before the next forced edge evicts
        the last record."""
        p = 0.3
        points = np.array([[0, 0], [-p, 0], [0, -p], [p, p], [p, 0],
                           [-1, -1], [5, 5]], dtype=np.float64)
        graph = ProximityGraph(7, 2, dtype=np.float32)
        metric = graph.metric
        for v, ids in enumerate([[1, 2], [0, 2], [0], [4, 0], [3, 6],
                                 [0, 6], [5]]):
            dists = metric.one_to_many(points[v], points[ids])
            order = np.lexsort((ids, dists))
            graph.set_row(v, np.asarray(ids)[order], dists[order])
        first = np.arange(7) == 3
        graph, _ = _both(graph, points, first)
        assert graph.neighbors(0).tolist() == [4, 1]
        tie = graph.neighbor_dists[0, :2]
        assert tie[0] == tie[1]
        graph, _ = _both(graph, points, first | (np.arange(7) == 5))
        assert graph.neighbors(0).tolist() == [1, 6]


class TestNoPerRowCalls:
    """The pass writes rows in batches, and no product path merges one
    row at a time."""

    @staticmethod
    def _calls(tree):
        return {getattr(node.func, "attr", getattr(node.func, "id", ""))
                for node in ast.walk(tree) if isinstance(node, ast.Call)}

    def test_compaction_makes_no_per_row_writes(self):
        tree = ast.parse((SRC / "mutable" / "compaction.py").read_text())
        assert not self._calls(tree) & {"set_row", "merge_row",
                                        "insert_edge", "_force_edge"}

    def test_no_product_path_calls_merge_row(self):
        callers = [str(path.relative_to(SRC))
                   for path in sorted(SRC.rglob("*.py"))
                   if "merge_row" in self._calls(ast.parse(
                       path.read_text()))]
        assert callers == []
