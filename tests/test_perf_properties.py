"""Hypothesis property test: ``ganns_search`` == its oracles, always.

One composite strategy draws a whole randomised workload — dataset
seed and size, metric, compute dtype, pool shape, entry scheme, lazy
check — and the single property is the search contract: ids, iterations
and per-phase cycle charges identical to the batched oracle
(``tests/oracles/ganns_batched.py``), distances within dtype tolerance;
and, on the draws the single-query warp kernel supports (lazy check on,
float64), identical to ``ganns_search_kernel`` query by query as well.
Well-separated Gaussian data (not raw hypothesis arrays) keeps the
workloads representative of what the kernels actually see.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.nsw_cpu import build_nsw_cpu
from repro.core.ganns import ganns_search
from repro.core.params import SearchParams
from repro.datasets.synthetic import gaussian_mixture
from repro.perf.arena import EvaluatedPairs, SearchArena
from repro.perf.distance import GroupDistanceEngine
from repro.perf.engine import _insert_merge
from repro.perf.quant import QuantizedGroupEngine
from tests.oracles.ganns_batched import ganns_search_oracle
from tests.oracles.ganns_kernel import ganns_search_kernel
from tests.test_perf_equivalence import _assert_trackers_equal, \
    assert_matches_oracle


@st.composite
def search_workload(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=40, max_value=160))
    dims = draw(st.sampled_from([4, 8, 16]))
    n_queries = draw(st.integers(min_value=1, max_value=12))
    metric = draw(st.sampled_from(["euclidean", "cosine", "ip"]))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    l_n = draw(st.sampled_from([8, 16, 32]))
    k = draw(st.integers(min_value=1, max_value=min(l_n, 8)))
    e = draw(st.one_of(st.none(),
                       st.integers(min_value=1, max_value=l_n)))
    lazy_check = draw(st.booleans())
    per_query_entries = draw(st.booleans())

    points = gaussian_mixture(n, dims, n_clusters=4, cluster_std=0.3,
                              intrinsic_dim=min(4, dims), seed=seed)
    queries = gaussian_mixture(n_queries, dims, n_clusters=4,
                               cluster_std=0.3,
                               intrinsic_dim=min(4, dims), seed=seed + 1)
    if per_query_entries:
        entry = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                              min_size=n_queries, max_size=n_queries))
        entry = np.asarray(entry, dtype=np.int64)
    else:
        entry = draw(st.integers(min_value=0, max_value=n - 1))
    params = SearchParams(k=k, l_n=l_n, e=e)
    return points, queries, metric, dtype, params, entry, lazy_check


class TestBackendProperty:
    @given(search_workload())
    @settings(max_examples=30, deadline=None)
    def test_fast_equals_reference(self, workload):
        points, queries, metric, dtype, params, entry, lazy = workload
        graph = build_nsw_cpu(points, d_min=4, d_max=8).graph
        graph.metric_name = metric
        report = assert_matches_oracle(graph, points, queries, params,
                                       dtype=dtype, entry=entry,
                                       lazy_check=lazy)
        if not lazy or dtype != np.float64:
            return
        entries = np.broadcast_to(entry, (len(queries),))
        for row in range(len(queries)):
            single = ganns_search_kernel(graph, points, queries[row],
                                         params, entry=int(entries[row]))
            assert np.array_equal(single.ids[0], report.ids[row])
            assert single.iterations[0] == report.iterations[row]
            for phase in single.tracker.phase_names:
                assert single.tracker.total_cycles(phase) == \
                    report.tracker.lane_cycles(phase)[row], phase


# ----------------------------------------------------------------------
# Evaluate once, charge every time
# ----------------------------------------------------------------------

@st.composite
def tie_heavy_workload(draw):
    """Integer coordinates and duplicated points (equal distances with
    different ids everywhere; every distance form is exact, so bytes
    can be compared) searched with pools so small that records are
    evicted on nearly every iteration."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    n = draw(st.integers(min_value=24, max_value=96))
    dims = draw(st.sampled_from([2, 4, 8]))
    levels = draw(st.integers(min_value=2, max_value=4))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    distinct = rng.integers(0, levels, (max(2, n // 2), dims))
    points = distinct[rng.integers(0, len(distinct), n)].astype(dtype)
    n_queries = draw(st.integers(min_value=1, max_value=8))
    queries = rng.integers(0, levels, (n_queries, dims)).astype(dtype)
    l_n = draw(st.sampled_from([4, 8]))
    params = SearchParams(
        k=draw(st.integers(min_value=1, max_value=l_n)), l_n=l_n,
        e=draw(st.one_of(st.none(), st.integers(1, l_n))),
        quant=draw(st.sampled_from([None, "pca", "int8", "fp16"])),
        rerank_factor=draw(st.sampled_from([1, 2])))
    return {
        "points": points, "queries": queries, "params": params,
        "dtype": dtype,
        "metric": draw(st.sampled_from(["euclidean", "cosine", "ip"])),
        "lazy_check": draw(st.booleans()),
        "entry": draw(st.integers(min_value=0, max_value=n - 1)),
    }


class TestEvaluateOnceProperty:
    @given(tie_heavy_workload())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_oracle_that_evaluates_everything(self, w):
        """The oracle computes every slot of T every iteration and
        scans the pool; the library evaluates a pair once per call.
        Same ids, same distance bytes, same charges — exact and staged."""
        graph = build_nsw_cpu(w["points"], d_min=3, d_max=6).graph
        graph.metric_name = w["metric"]
        args = (graph, w["points"], w["queries"], w["params"])
        kwargs = dict(entry=w["entry"], lazy_check=w["lazy_check"],
                      dtype=w["dtype"])
        oracle = ganns_search_oracle(*args, **kwargs)
        report = ganns_search(*args, **kwargs)
        assert oracle.ids.tobytes() == report.ids.tobytes()
        assert oracle.dists.tobytes() == report.dists.tobytes()
        assert np.array_equal(oracle.iterations, report.iterations)
        assert oracle.n_distance_computations == \
            report.n_distance_computations
        _assert_trackers_equal(oracle.tracker, report.tracker)
        charged = report.lane_distance_computations
        evaluated = report.lane_distance_evaluations
        if w["lazy_check"]:
            assert (evaluated <= charged).all()
        else:
            assert np.array_equal(evaluated, charged)

    @pytest.mark.parametrize("quant", [None, "pca"])
    def test_no_pair_is_evaluated_twice(self, monkeypatch, quant):
        """Every ``pairs`` call of one search recorded: under the lazy
        check a (query row, id) pair reaches an engine at most once."""
        points = gaussian_mixture(400, 16, seed=3).astype(np.float32)
        queries = gaussian_mixture(20, 16, seed=4).astype(np.float32)
        graph = build_nsw_cpu(points, d_min=8, d_max=16).graph
        seen_by = {}
        for engine in (GroupDistanceEngine, QuantizedGroupEngine):
            def recording(self, query_rows, cand_ids, _inner=engine.pairs):
                rows = np.broadcast_to(query_rows[:, None], cand_ids.shape)
                real = cand_ids >= 0
                seen_by.setdefault(id(self), []).append(
                    np.stack([rows[real], cand_ids[real]], axis=1))
                return _inner(self, query_rows, cand_ids)
            monkeypatch.setattr(engine, "pairs", recording)

        report = ganns_search(graph, points, queries,
                              SearchParams(k=10, l_n=16, quant=quant))

        evaluated = 0
        for calls in seen_by.values():  # one entry per engine instance
            pairs = np.concatenate(calls)
            assert len(np.unique(pairs, axis=0)) == len(pairs)
            evaluated += len(pairs)
        assert evaluated == report.lane_distance_evaluations.sum()
        # The kernel is charged for several times that many.
        assert 2 * evaluated < report.n_distance_computations


# ----------------------------------------------------------------------
# The merge step on its own
# ----------------------------------------------------------------------

@st.composite
def merge_scenario(draw):
    width = draw(st.sampled_from([2, 4, 8, 16]))
    return {
        "seed": draw(st.integers(min_value=0, max_value=10_000)),
        "width": width,
        # Up to three times the pool: more entrants than free slots.
        "l_t": draw(st.integers(min_value=1, max_value=3 * width)),
        "m": draw(st.integers(min_value=1, max_value=6)),
        "retired": draw(st.integers(min_value=0, max_value=3)),
        "spare_vertices": draw(st.integers(min_value=0, max_value=20)),
        # Few distinct distances: equal keys with different ids.
        "levels": draw(st.integers(min_value=1, max_value=6)),
        # Shifts every distance below zero, as the ip metric's are.
        "negative": draw(st.booleans()),
        "lazy_check": draw(st.booleans()),
        "dtype": draw(st.sampled_from([np.float64, np.float32])),
        "steps": draw(st.integers(min_value=1, max_value=5)),
    }


def _oracle_merge(pool_dists, pool_ids, pool_explored, t_dists, t_ids,
                  dead):
    """Phases 5+6 exactly as ``tests/oracles/ganns_batched.py`` runs
    them: sort T, lexsort the concatenated runs, truncate."""
    width = pool_dists.shape[1]
    t_dists = np.where(dead, np.inf, t_dists)
    t_ids = np.where(dead, -1, t_ids)
    order = np.lexsort((t_ids, t_dists), axis=1)
    t_dists = np.take_along_axis(t_dists, order, axis=1)
    t_ids = np.take_along_axis(t_ids, order, axis=1)
    all_dists = np.concatenate([pool_dists, t_dists], axis=1)
    all_ids = np.concatenate([pool_ids, t_ids], axis=1)
    all_explored = np.concatenate([pool_explored, t_ids < 0], axis=1)
    merge_order = np.lexsort((all_ids, all_dists), axis=1)[:, :width]
    return (np.take_along_axis(all_dists, merge_order, axis=1),
            np.take_along_axis(all_ids, merge_order, axis=1),
            np.take_along_axis(all_explored, merge_order, axis=1))


class TestInsertMergeProperty:
    @given(merge_scenario())
    @settings(max_examples=150, deadline=None)
    def test_equals_lexsort_of_the_concatenated_runs(self, sc):
        """The merge fed what ``_traverse`` feeds it — the alive lanes
        (under the lazy check, only the never-evaluated ones) as flat
        row-major records — against the oracle's merge fed every lane's
        true distance and a scan of the pool."""
        rng = np.random.default_rng(sc["seed"])
        width, l_t, m = sc["width"], sc["l_t"], sc["m"]
        n_vertices = max(width, l_t) + sc["spare_vertices"]
        # An id's distance never changes, so with the lazy check off a
        # re-discovered vertex is an identical (dist, id) record.
        dist_of = ((rng.integers(0, sc["levels"], n_vertices)
                    - sc["negative"] * sc["levels"]) / 2.0
                   ).astype(sc["dtype"])
        # Compact rows map to a scattered subset of the caller's rows,
        # as after a few retirements; one arena row past m is a canary.
        n_queries = m + sc["retired"]
        arena = SearchArena(m + 1, width, l_t, sc["dtype"])
        query_rows = np.sort(rng.choice(n_queries, m, replace=False))
        arena.query_rows[:m] = query_rows
        seen = (EvaluatedPairs(n_queries, n_vertices)
                if sc["lazy_check"] else None)
        ever = np.zeros((m, n_vertices), dtype=bool)

        for row in range(m):  # non-full pools of distinct ids
            fill = int(rng.integers(0, width + 1))
            ids = rng.choice(n_vertices, fill, replace=False)
            ids = ids[np.lexsort((ids, dist_of[ids]))]
            arena.pool_ids[row, :fill] = ids
            arena.pool_dists[row, :fill] = dist_of[ids]
            arena.pool_explored[row, :fill] = rng.random(fill) < 0.5
            ever[row, ids] = True
            if seen is not None:
                seen.insert(np.full(fill, query_rows[row]), ids)
        canary = [a[m].copy() for a in (arena.pool_dists, arena.pool_ids,
                                        arena.pool_explored)]

        every_id = np.broadcast_to(np.arange(n_vertices), (m, n_vertices))
        for _ in range(sc["steps"]):
            t_ids = np.stack([rng.choice(n_vertices, l_t, replace=False)
                              for _ in range(m)])
            t_ids[rng.random((m, l_t)) < 0.3] = -1  # short adjacency rows
            valid = t_ids >= 0
            true_dists = dist_of[t_ids]
            in_pool = (t_ids[:, :, None]
                       == arena.pool_ids[:m, None, :]).any(axis=2)
            if seen is not None:
                alive = valid & ~seen.contains(query_rows, t_ids)
                # Everything resident was evaluated once; nothing alive
                # is resident.
                assert not (alive & in_pool).any()
                expected_dead = ~valid | in_pool
            else:
                alive = valid
                expected_dead = ~valid
            expected = _oracle_merge(
                arena.pool_dists[:m], arena.pool_ids[:m],
                arena.pool_explored[:m], true_dists, t_ids, expected_dead)

            row, lane = np.nonzero(alive)
            _insert_merge(arena, row, true_dists[row, lane],
                          t_ids[row, lane])
            if seen is not None:
                ever[row, t_ids[row, lane]] = True
                seen.insert(query_rows[row], t_ids[row, lane])

            for got, want in zip((arena.pool_dists, arena.pool_ids,
                                  arena.pool_explored), expected):
                assert got[:m].tobytes() == want.tobytes()
            for got, want in zip((arena.pool_dists, arena.pool_ids,
                                  arena.pool_explored), canary):
                assert np.array_equal(got[m], want)
            if seen is not None:
                assert np.array_equal(
                    seen.contains(query_rows, every_id), ever)
                others = np.setdiff1d(np.arange(n_queries), query_rows)
                assert not seen.contains(
                    others, np.broadcast_to(every_id[0], (len(others),
                                                          n_vertices))).any()
