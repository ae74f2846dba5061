"""Tests for the streamed multi-batch pipeline (the Section III-B
stream-overlap remark)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.nsw_cpu import build_nsw_cpu
from repro.core import pipeline
from repro.core.ganns import ganns_search
from repro.core.params import SearchParams
from repro.core.pipeline import _LaneStore, stream_batches
from repro.errors import SearchError


@pytest.fixture(scope="module")
def params():
    return SearchParams(k=5, l_n=32)


class TestCorrectness:
    def test_results_match_unbatched_search(self, small_graph,
                                            small_points, small_queries,
                                            params):
        streamed = stream_batches(small_graph, small_points,
                                  small_queries, params, batch_size=7)
        direct = ganns_search(small_graph, small_points, small_queries,
                              params)
        assert np.array_equal(streamed.ids, direct.ids)
        assert np.allclose(streamed.dists, direct.dists)

    def test_batch_partitioning(self, small_graph, small_points,
                                small_queries, params):
        streamed = stream_batches(small_graph, small_points,
                                  small_queries, params, batch_size=16)
        sizes = [b.n_queries for b in streamed.batches]
        assert sum(sizes) == len(small_queries)
        assert all(size <= 16 for size in sizes)

    def test_single_batch(self, small_graph, small_points, small_queries,
                          params):
        streamed = stream_batches(small_graph, small_points,
                                  small_queries, params,
                                  batch_size=10_000)
        assert len(streamed.batches) == 1


class TestOverlapTiming:
    def test_overlap_never_slower_than_serial(self, small_graph,
                                              small_points, small_queries,
                                              params):
        streamed = stream_batches(small_graph, small_points,
                                  small_queries, params, batch_size=8)
        assert streamed.overlapped_seconds <= streamed.serial_seconds
        assert 0.0 <= streamed.overlap_saving < 1.0

    def test_overlap_at_least_compute_bound(self, small_graph,
                                            small_points, small_queries,
                                            params):
        streamed = stream_batches(small_graph, small_points,
                                  small_queries, params, batch_size=8)
        compute_total = sum(b.compute_seconds for b in streamed.batches)
        assert streamed.overlapped_seconds >= compute_total

    def test_transfer_nearly_hidden(self, small_graph, small_points,
                                    small_queries, params):
        """The paper's remark quantified: with overlap, the stream costs
        barely more than pure compute."""
        streamed = stream_batches(small_graph, small_points,
                                  small_queries, params, batch_size=8)
        compute_total = sum(b.compute_seconds for b in streamed.batches)
        exposed = streamed.overlapped_seconds - compute_total
        transfer_total = sum(b.upload_seconds + b.download_seconds
                             for b in streamed.batches)
        assert exposed <= transfer_total * 0.6 + 1e-9

    def test_multiple_batches_amortise_better(self, small_graph,
                                              small_points, small_queries,
                                              params):
        many = stream_batches(small_graph, small_points, small_queries,
                              params, batch_size=5)
        assert many.overlap_saving >= 0.0
        assert len(many.batches) >= 2


class TestValidation:
    def test_empty_queries(self, small_graph, small_points, params):
        with pytest.raises(SearchError, match="non-empty"):
            stream_batches(small_graph, small_points,
                           np.zeros((0, small_points.shape[1])), params)

    def test_bad_batch_size(self, small_graph, small_points,
                            small_queries, params):
        with pytest.raises(SearchError, match="batch_size"):
            stream_batches(small_graph, small_points, small_queries,
                           params, batch_size=0)


def assert_same_report(got, want):
    """Field for field, byte for byte."""
    for field in ("ids", "dists", "iterations",
                  "lane_distance_computations",
                  "lane_distance_evaluations"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field
    assert got.n_distance_computations == want.n_distance_computations
    assert (got.algorithm, got.n_threads, got.shared_mem_bytes) == (
        want.algorithm, want.n_threads, want.shared_mem_bytes)
    names = tuple(want.tracker.phase_names)
    assert tuple(got.tracker.phase_names) == names
    for name in names:
        assert (got.tracker.lane_cycles(name).tobytes()
                == want.tracker.lane_cycles(name).tobytes()), name
        assert (got.tracker.category_of(name)
                is want.tracker.category_of(name))
    assert got.launch().seconds == want.launch().seconds


class TestLaneStore:
    """Which simulated batch a lane is charged to and which host call
    computes it are two decisions: whatever the store's host width,
    every batch gets the report a search of that batch alone returns."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_batch_equals_its_own_search(self, small_graph,
                                               small_points,
                                               small_queries, data):
        quant = data.draw(st.sampled_from([None, "pca", "int8", "fp16"]))
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        width = data.draw(st.integers(1, 48))
        # Rows drawn with replacement: a permutation of a subset with
        # duplicates, cut into batches at random places.
        rows = data.draw(st.lists(st.integers(0, len(small_queries) - 1),
                                  min_size=1, max_size=24))
        sizes = data.draw(st.lists(st.integers(1, 7), min_size=len(rows),
                                   max_size=len(rows)))
        points = small_points.astype(dtype)
        queries = small_queries.astype(dtype)[rows]
        params = SearchParams(k=5, l_n=32, quant=quant)
        batches, start = [], 0
        for size in sizes:
            if start < len(queries):
                batches.append(queries[start:start + size])
                start += size
        # The store may be built over more than is ever dispatched.
        upcoming = batches + [small_queries.astype(dtype)[:3]]
        with mock.patch.object(pipeline, "_HOST_WIDTH", width):
            store = _LaneStore([(small_graph, points, upcoming)], params)
        order = data.draw(st.permutations(range(len(batches))))
        for index in order:
            got = store.search(small_graph, points, batches[index],
                               params)
            want = ganns_search(small_graph, points, batches[index],
                                params)
            assert_same_report(got, want)

    def test_nothing_is_searched_until_asked_and_no_lane_twice(
            self, small_graph, small_points, small_queries, params,
            searched_rows):
        with mock.patch.object(pipeline, "_HOST_WIDTH", 16):
            store = _LaneStore([(small_graph, small_points,
                                 [small_queries])], params)
        assert searched_rows == []
        for start in (0, 4, 8, 30, 12, 0):
            stream_batches(small_graph, small_points,
                           small_queries[start:start + 4], params,
                           _lanes=store)
        flat = [row for call in searched_rows for row in call]
        assert len(flat) == len(set(flat)) <= len(small_queries)
        # Rows 0..15 in one call, 30..39 in a second (nothing follows
        # them), 12..15 and the second 0..3 are already held.
        assert [len(call) for call in searched_rows] == [16, 10]

    def test_a_wide_batch_is_one_call_whatever_the_width(
            self, small_graph, small_points, small_queries, params,
            searched_rows):
        with mock.patch.object(pipeline, "_HOST_WIDTH", 4):
            store = _LaneStore([(small_graph, small_points,
                                 [small_queries])], params)
        streamed = stream_batches(small_graph, small_points,
                                  small_queries[:20], params,
                                  batch_size=20, _lanes=store)
        assert [len(call) for call in searched_rows] == [20]
        assert_same_report(streamed.reports[0],
                           ganns_search(small_graph, small_points,
                                        small_queries[:20], params))

    def test_width_shrinks_to_the_membership_budget(
            self, small_graph, small_points, small_queries, params,
            searched_rows):
        per_query = -(-small_graph.n_vertices // 8)
        with mock.patch.object(pipeline, "BITMAP_BUDGET_BYTES",
                               3 * per_query + 1):
            store = _LaneStore([(small_graph, small_points,
                                 [small_queries])], params)
        stream_batches(small_graph, small_points, small_queries[:1],
                       params, _lanes=store)
        assert [len(call) for call in searched_rows] == [3]

    @pytest.mark.parametrize("change", ["params", "points",
                                        "unknown query"])
    def test_a_call_the_store_was_not_built_for_goes_direct(
            self, small_graph, small_points, small_queries, params,
            searched_rows, change):
        store = _LaneStore([(small_graph, small_points,
                             [small_queries[:20]])], params)
        points, batch = small_points, small_queries[:4]
        if change == "params":
            params = SearchParams(k=5, l_n=16)
        elif change == "points":
            points = small_points.copy()
        else:
            batch = small_queries[18:22]
        got = stream_batches(small_graph, points, batch, params,
                             _lanes=store)
        assert [len(call) for call in searched_rows] == [4]
        assert_same_report(got.reports[0],
                           ganns_search(small_graph, points, batch,
                                        params))


def _nsw_part(rng, n, dtype, metric):
    points = rng.normal(size=(n, 12)).astype(dtype)
    return build_nsw_cpu(points, d_min=4, d_max=8, metric=metric).graph, \
        points


class TestManyParts:
    """A store over several graphs searches them as one block-diagonal
    graph, and every batch still gets exactly the report a search of
    its own part returns."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_batch_equals_its_own_parts_search(self, data):
        n_parts = data.draw(st.integers(1, 5))
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        metric = data.draw(st.sampled_from(["euclidean", "cosine"]))
        quant = data.draw(st.sampled_from([None, None, "int8", "fp16",
                                           "pca"]))
        width = data.draw(st.integers(1, 48))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        params = SearchParams(k=4, l_n=16, quant=quant)
        # Part sizes from below l_n upward.
        parts = [_nsw_part(rng, data.draw(st.integers(8, 48)), dtype,
                           metric) for _ in range(n_parts)]
        # One query pool for every part: rows repeat within a part and
        # across parts.
        pool = rng.normal(size=(10, 12)).astype(dtype)
        batches, upcoming = [], []
        for part, (graph, points) in enumerate(parts):
            rows = data.draw(st.lists(st.integers(0, len(pool) - 1),
                                      min_size=1, max_size=12))
            cuts = sorted(set(data.draw(st.lists(
                st.integers(1, len(rows)), max_size=4))) | {len(rows)})
            mine = [pool[rows[lo:hi]]
                    for lo, hi in zip([0] + cuts[:-1], cuts)]
            batches += [(part, batch) for batch in mine]
            upcoming.append((graph, points, mine))
        with mock.patch.object(pipeline, "_HOST_WIDTH", width):
            store = _LaneStore(upcoming, params)
        for index in data.draw(st.permutations(range(len(batches)))):
            part, batch = batches[index]
            graph, points = parts[part]
            got = store.search(graph, points, batch, params)
            assert_same_report(got, ganns_search(graph, points, batch,
                                                 params))

    @pytest.mark.parametrize("quant", [None, "int8"])
    def test_one_call_over_every_part_unless_quantized(
            self, small_graph, small_points, small_queries, searched_rows,
            quant):
        params = SearchParams(k=5, l_n=32, quant=quant)
        other = (small_graph.copy(), small_points.copy())
        store = _LaneStore([(small_graph, small_points, [small_queries]),
                            (*other, [small_queries[:10]])], params)
        for graph, points in ((small_graph, small_points), other):
            got = stream_batches(graph, points, small_queries[:4], params,
                                 _lanes=store)
            assert_same_report(got.reports[0],
                               ganns_search(graph, points,
                                            small_queries[:4], params))
        # The same four rows, once per part: 50 lanes in one call over
        # the stack, or one call per part when the tables are per part.
        expected = [50] if quant is None else [40, 10]
        assert [len(call) for call in searched_rows] == expected
