"""Tests for the crash-safe mutable index: lifecycle, WAL, snapshots."""

import binascii
import json

import numpy as np
import pytest

from repro.cluster.engine import ClusterEngine
from repro.core.ganns import ganns_search
from repro.core.params import BuildParams, SearchParams
from repro.datasets.synthetic import gaussian_mixture
from repro.errors import MutableIndexError
from repro.metrics.distance import get_metric
from repro.mutable import (
    DurableStore,
    MutableIndex,
    OP_DELETE,
    OP_INSERT,
    WalRecord,
    WriteAheadLog,
    compact_graph,
    default_build_params,
    recover,
)
from repro.mutable.snapshot import state_digest
from repro.mutable.wal import decode_array
from repro.observability.metrics import MetricsRegistry
from repro.observability.span import SpanTracer
from repro.serve.trace import synthetic_trace

PARAMS = default_build_params()
SEARCH = SearchParams(k=5, l_n=32)


def _handle_digest(handle):
    """SHA-256 over a pinned snapshot's epoch, entry and state bytes."""
    return state_digest(b"epoch=%d entry=%d " % (handle.epoch, handle.entry),
                        handle.points, handle.graph, handle.tombstones)


def _corpus(n=120, d=8, seed=0):
    return gaussian_mixture(n, d, n_clusters=6,
                            seed=seed).astype(np.float64)


@pytest.fixture(scope="module")
def built():
    """One seed build shared by the read-only tests."""
    return MutableIndex.build(_corpus(), PARAMS)


def _fresh():
    return MutableIndex.build(_corpus(), PARAMS)


def _search_pinned(handle, queries):
    """GANNS over the pinned arrays, from the pinned entry."""
    return ganns_search(handle.graph, handle.points, queries, SEARCH,
                        entry=handle.entry)


class TestBuild:
    def test_build_validates_and_logs_base_record(self, built):
        built.validate()
        records = built.store.surviving_records()
        assert len(records) == 1
        assert records[0].op == OP_INSERT
        assert records[0].lsn == 1
        assert built.store.meta["d_min"] == PARAMS.d_min

    def test_counts(self, built):
        assert built.n_slots == 120
        assert built.n_live == 120
        assert built.n_tombstones == 0
        assert built.epoch == 0

    def test_points_cast_to_float64(self, built):
        assert built.points.dtype == np.float64

    def test_digest_is_deterministic(self, built):
        assert _fresh().digest() == built.digest()


class TestInsert:
    def test_ids_are_a_contiguous_tail(self):
        index = _fresh()
        ids = index.insert(_corpus(7, seed=9), now=1.0)
        assert np.array_equal(ids, np.arange(120, 127))
        assert index.n_slots == 127
        assert index.epoch == 1
        index.validate()

    def test_inserted_points_are_searchable(self):
        index = _fresh()
        new = _corpus(5, seed=9)
        ids = index.insert(new, now=1.0)
        got, _ = index.search(new, SEARCH.with_overrides(k=1))
        assert set(got[:, 0]) == set(ids.tolist())

    def test_wal_records_the_batch(self):
        index = _fresh()
        new = _corpus(4, seed=9)
        index.insert(new, now=1.0)
        record = index.store.surviving_records()[-1]
        assert record.op == OP_INSERT
        assert np.array_equal(record.points, new)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(MutableIndexError, match="dimensionality"):
            _fresh().insert(np.zeros((2, 3)))

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf, "empty"])
    def test_non_finite_batch_never_reaches_the_wal(self, poison):
        index = _fresh()
        records = len(index.store.surviving_records())
        if poison == "empty":
            batch, message = np.empty((0, 8)), "non-empty"
        else:
            batch, message = _corpus(4, seed=9), "row 2"
            batch[2, 5] = poison
        with pytest.raises(MutableIndexError, match=message):
            index.insert(batch, now=1.0)
        assert len(index.store.surviving_records()) == records
        assert index.epoch == 0
        assert index.n_slots == 120
        # The store stays recoverable: the refused batch left no record.
        index.insert(_corpus(3, seed=9), now=2.0)
        assert recover(index.store).digest() == index.digest()

    def test_publishes_metrics(self):
        index = _fresh()
        metrics = MetricsRegistry()
        index.insert(_corpus(3, seed=9), now=1.0, metrics=metrics)
        assert metrics.value("mutate.inserts") == 1
        assert metrics.value("mutate.points_inserted") == 3
        assert metrics.value("mutate.epoch") == 1


class TestDelete:
    def test_deleted_ids_never_returned(self):
        index = _fresh()
        queries = index.points[:10].copy()
        index.delete([0, 5, 9], now=1.0)
        ids, _ = index.search(queries, SEARCH)
        returned = ids[ids >= 0]
        assert not np.any(np.isin(returned, [0, 5, 9]))

    def test_double_delete_rejected(self):
        index = _fresh()
        index.delete([3], now=1.0)
        with pytest.raises(MutableIndexError, match="already tombstoned"):
            index.delete([3], now=2.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(MutableIndexError, match="out of range"):
            _fresh().delete([500])

    def test_deleting_everything_rejected(self):
        index = _fresh()
        with pytest.raises(MutableIndexError, match="last live"):
            index.delete(np.arange(120))

    def test_entry_moves_off_tombstone(self):
        index = _fresh()
        assert index.entry == 0
        index.delete([0], now=1.0)
        assert index.entry == index._first_live()
        assert not index.tombstones[index.entry]

    @pytest.mark.parametrize("ids", [[1.5], [2.0], [True]])
    def test_non_integer_ids_never_reach_the_wal(self, ids):
        index = _fresh()
        records = len(index.store.surviving_records())
        with pytest.raises(MutableIndexError, match="integers"):
            index.delete(ids, now=1.0)
        assert len(index.store.surviving_records()) == records
        assert index.epoch == 0
        assert index.n_tombstones == 0

    def test_empty_delete_is_a_no_op(self):
        index = _fresh()
        assert index.delete([]) == 0
        assert index.epoch == 0


class TestCompaction:
    def test_detaches_and_validates(self):
        index = _fresh()
        index.delete([2, 40, 77], now=1.0)
        stats = index.compact(now=2.0)
        assert stats.n_dead == 3
        assert np.all(index.graph.degrees[[2, 40, 77]] == 0)
        index.validate()  # reachable-tombstone contract now enforced

    def test_is_deterministic(self):
        results = []
        for _ in range(2):
            index = _fresh()
            index.delete([2, 40, 77], now=1.0)
            index.compact(now=2.0)
            results.append(index.digest())
        assert results[0] == results[1]

    def test_bridges_keep_live_graph_searchable(self):
        index = _fresh()
        dead = list(range(10, 40))
        index.delete(dead, now=1.0)
        index.compact(now=2.0)
        ids, _ = index.search(index.points[:8].copy(), SEARCH)
        assert np.all(ids >= 0)  # full k results despite the holes
        assert not np.any(np.isin(ids, dead))

    def test_fresh_deletes_after_compaction_validate(self):
        # New tombstones legitimately keep routing until the next pass.
        index = _fresh()
        index.delete([5], now=1.0)
        index.compact(now=2.0)
        index.delete([6], now=3.0)
        index.validate()

    def _unreachable_live(self, index):
        from collections import deque
        g = index.graph
        seen = {index.entry}
        queue = deque([index.entry])
        while queue:
            u = queue.popleft()
            for v in g.neighbor_ids[u, :int(g.degrees[u])]:
                v = int(v)
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return sorted(set(map(int, index.live_ids())) - seen)

    def test_deleting_a_hub_cannot_disconnect_live_vertices(self):
        # Regression: deleting the few inter-cluster hub vertices used
        # to cut off whole clusters — the capacity-bounded bridge merge
        # dropped the far bridge edges in favor of closer neighbors.
        params = BuildParams(d_min=8, d_max=16, n_blocks=4,
                             n_threads=32)
        corpus = gaussian_mixture(80, 8, n_clusters=4,
                                  seed=0).astype(np.float64)
        index = MutableIndex.build(corpus, params)
        rng = np.random.default_rng(8)
        index.delete(np.sort(rng.choice(80, size=7, replace=False)),
                     now=1.0)
        index.compact(now=2.0)
        index.validate()
        assert self._unreachable_live(index) == []

    def test_adjacent_dead_vertices_bridge_as_one_hole(self):
        # A live path crossing a chain of dead vertices has no single
        # dead vertex whose bridge members span it; components must be
        # repaired as a unit.
        index = _fresh()
        v = 10
        chain = sorted({v, *map(int, index.graph.neighbors(v)[:2])})
        index.delete(chain, now=1.0)
        index.compact(now=2.0)
        index.validate()
        assert self._unreachable_live(index) == []

    def test_compact_graph_rejects_bad_mask(self, built):
        with pytest.raises(MutableIndexError, match="shape"):
            compact_graph(built.graph.copy(), built.points,
                          np.zeros(3, dtype=bool))


class TestSearchOverfetch:
    def test_k_preserved_with_many_tombstones(self):
        index = _fresh()
        index.delete(np.arange(30), now=1.0)  # no compaction
        ids, dists = index.search(index.points[40:44].copy(), SEARCH)
        assert ids.shape == (4, SEARCH.k)
        assert np.all(ids >= 0)
        assert np.all(np.isfinite(dists))

    def test_overfetch_clamps_to_the_vertex_count(self):
        """``k + tombstones`` beyond the 120 vertices fetches all 120
        instead of tripping the search's ``k > n`` refusal."""
        index = _fresh()
        index.delete(np.arange(30), now=1.0)
        ids, _ = index.search(index.points[40:44].copy(),
                              SearchParams(k=100, l_n=128))
        assert ids.shape == (4, 100)
        assert not np.isin(ids, np.arange(30)).any()
        assert (ids >= 0).sum(axis=1).max() <= 90

    def test_compacted_tombstones_are_not_fetched_again(self,
                                                        monkeypatch):
        """Compaction detaches its tombstones, so they no longer route:
        the over-fetch counts only the deletes since the pass."""
        import repro.mutable.index as module
        index = _fresh()
        index.delete(np.arange(20), now=1.0)
        index.compact(now=2.0)
        index.delete([40, 41], now=3.0)
        fetched, search = [], module.ganns_search

        def spy(graph, points, queries, params, **kwargs):
            fetched.append(params.k)
            return search(graph, points, queries, params, **kwargs)

        monkeypatch.setattr(module, "ganns_search", spy)
        ids, _ = index.search(index.points[50:54].copy(), SEARCH)
        assert fetched == [SEARCH.k + 2]
        assert index.n_tombstones == 22
        assert not np.isin(ids, np.r_[np.arange(20), 40, 41]).any()

    def test_results_sorted_by_distance(self):
        index = _fresh()
        index.delete([1, 2], now=1.0)
        _, dists = index.search(index.points[:6].copy(), SEARCH)
        for row in dists:
            finite = row[np.isfinite(row)]
            assert np.all(np.diff(finite) >= 0)


class TestWal:
    def test_lsn_must_increase(self):
        wal = WriteAheadLog()
        wal.append(WalRecord(lsn=1, op=OP_DELETE, at_seconds=0.0,
                             ids=np.array([1])))
        with pytest.raises(MutableIndexError, match="lsn"):
            wal.append(WalRecord(lsn=1, op=OP_DELETE, at_seconds=1.0,
                                 ids=np.array([2])))

    def test_record_payload_validation(self):
        with pytest.raises(MutableIndexError, match="points"):
            WalRecord(lsn=1, op=OP_INSERT, at_seconds=0.0)
        with pytest.raises(MutableIndexError, match="ids"):
            WalRecord(lsn=1, op=OP_DELETE, at_seconds=0.0)
        with pytest.raises(MutableIndexError, match="unknown WAL op"):
            WalRecord(lsn=1, op="truncate", at_seconds=0.0)

    def test_record_json_round_trip(self):
        record = WalRecord(lsn=3, op=OP_INSERT, at_seconds=1.5,
                           points=np.arange(6.0).reshape(2, 3))
        import json
        restored = json.loads(record.to_json())
        assert restored["lsn"] == 3
        assert np.array_equal(decode_array(restored["points"]),
                              record.points)

    def test_checkpoint_truncates_folded_records(self):
        store = DurableStore()
        store.append(OP_DELETE, 0.0, ids=np.array([1]))
        store.append(OP_DELETE, 1.0, ids=np.array([2]))
        store.install_checkpoint(b"blob", 1)
        assert len(store.surviving_records()) == 1
        assert store.surviving_records()[0].lsn == 2
        with pytest.raises(MutableIndexError, match="backwards"):
            store.install_checkpoint(b"blob2", 0)

    def test_store_digest_tracks_content(self):
        a, b = DurableStore(), DurableStore()
        assert a.digest() == b.digest()
        a.append(OP_DELETE, 0.0, ids=np.array([1]))
        assert a.digest() != b.digest()


class TestCheckpoint:
    def test_round_trip_restores_identical_state(self):
        index = _fresh()
        index.insert(_corpus(6, seed=9), now=1.0)
        index.delete([3, 17], now=2.0)
        index.compact(now=3.0)
        blob = index._to_checkpoint_bytes(index.store.next_lsn - 1)
        restored = MutableIndex.from_checkpoint_bytes(
            blob, index.store)
        assert restored.digest() == index.digest()
        assert restored.build_params == index.build_params
        assert np.array_equal(restored.compacted_tombstones,
                              index.compacted_tombstones)
        assert restored.mutation_seconds == index.mutation_seconds

    @staticmethod
    def _blob():
        index = _fresh()
        return index._to_checkpoint_bytes(index.store.next_lsn - 1), index

    def _assert_corrupt(self, blob, store, cause):
        with pytest.raises(MutableIndexError, match="corrupt checkpoint") \
                as info:
            MutableIndex.from_checkpoint_bytes(blob, store)
        assert isinstance(info.value.__cause__, cause)

    def test_truncated_blob_is_a_typed_error(self):
        blob, index = self._blob()
        self._assert_corrupt(blob[:len(blob) // 2], index.store,
                             json.JSONDecodeError)

    def test_bit_flipped_blob_is_a_typed_error(self):
        blob, index = self._blob()
        # Flip 0x40 on a lowercase base64 letter: it becomes punctuation
        # that JSON accepts and base64 rejects.
        head = b'"points": {"data": "'
        at = blob.index(head) + len(head)
        while not chr(blob[at]).islower():
            at += 1
        flipped = blob[:at] + bytes([blob[at] ^ 0x40]) + blob[at + 1:]
        self._assert_corrupt(flipped, index.store, binascii.Error)

    def test_empty_blob_is_a_typed_error(self):
        _, index = self._blob()
        self._assert_corrupt(b"", index.store, json.JSONDecodeError)

    def test_missing_key_is_a_typed_error(self):
        blob, index = self._blob()
        payload = json.loads(blob)
        del payload["degrees"]
        self._assert_corrupt(json.dumps(payload).encode(), index.store,
                             KeyError)

    def test_checkpoint_installs_and_truncates(self):
        index = _fresh()
        index.delete([3], now=1.0)
        lsn = index.checkpoint(now=2.0)
        assert lsn == 2
        assert index.store.checkpoint is not None
        assert len(index.store.surviving_records()) == 0


class TestSnapshots:
    def test_snapshot_replays_byte_identically_across_mutations(self):
        index = _fresh()
        queries = _corpus(6, seed=11)
        handle = index.snapshot()
        before = _search_pinned(handle, queries)
        index.insert(_corpus(9, seed=12), now=1.0)
        index.delete([4, 8, 15], now=2.0)
        index.compact(now=3.0)
        after = _search_pinned(handle, queries)
        assert before.ids.tobytes() == after.ids.tobytes()
        assert before.dists.tobytes() == after.dists.tobytes()

    def test_serving_view_excludes_tombstones_without_filtering(self):
        index = _fresh()
        index.delete([0, 7, 13], now=1.0)
        handle = index.snapshot()
        assert not handle.tombstones[handle.entry]
        engine = ClusterEngine.from_snapshot(handle, 1, 1, params=SEARCH)
        # The served corpus holds the live points only, so every answer
        # is a full k live ids with nothing filtered out after search.
        assert len(engine.points) == 117
        assert not np.any(np.isin(engine.external_ids, [0, 7, 13]))
        trace = synthetic_trace(index.points[:6].copy(), 12,
                                mean_qps=1e4, seed=1)
        report = engine.replay(trace)
        assert all(outcome.answered for outcome in report.outcomes)
        for outcome in report.outcomes:
            returned = engine.map_to_external(outcome.ids)
            assert np.all(returned >= 0)
            assert not np.any(np.isin(returned, [0, 7, 13]))

    def test_taking_a_snapshot_copies_no_arrays(self):
        index = _fresh()
        handle = index.snapshot()
        assert handle.points is index.points
        assert handle.graph is index.graph
        pinned = handle.points.copy()
        index.insert(_corpus(3, seed=14), now=1.0)
        # The mutation swapped in fresh arrays; the pin still holds the
        # old ones, unchanged.
        assert handle.points is not index.points
        assert handle.graph is not index.graph
        assert np.array_equal(handle.points, pinned)
        assert handle.graph.n_vertices == 120

    def test_snapshot_digest_pins_epoch(self):
        index = _fresh()
        a = index.snapshot()
        index.insert(_corpus(2, seed=13), now=1.0)
        b = index.snapshot()
        assert a.epoch == 0 and b.epoch == 1
        assert _handle_digest(a) != _handle_digest(b)
        assert a.graph.n_vertices == 120 and b.graph.n_vertices == 122

    def test_live_ids_excludes_tombstones(self):
        index = _fresh()
        index.delete([1, 2], now=1.0)
        handle = index.snapshot()
        assert len(handle.live_ids()) == 118
        assert not np.any(np.isin(handle.live_ids(), [1, 2]))


class TestServeFromSnapshot:
    def test_engine_serves_pinned_view(self):
        index = _fresh()
        index.delete([0, 3], now=1.0)
        handle = index.snapshot()
        engine = ClusterEngine.from_snapshot(handle, 1, 1, params=SEARCH,
                                             cache_capacity=64)
        trace = synthetic_trace(index.points[:20].copy(), 30,
                                mean_qps=1e4, seed=0)
        report = engine.replay(trace)
        assert all(outcome.answered for outcome in report.outcomes)
        for outcome in report.outcomes:
            returned = engine.map_to_external(outcome.ids)
            assert not np.any(np.isin(returned, [0, 3]))

    def test_pinned_replay_is_byte_deterministic_under_mutation(self):
        index = _fresh()
        index.delete([7, 30], now=1.0)
        handle = index.snapshot()
        trace = synthetic_trace(index.points[:20].copy(), 40,
                                mean_qps=1e4, seed=3)

        def replay():
            engine = ClusterEngine.from_snapshot(handle, 1, 1,
                                                 params=SEARCH)
            report = engine.replay(trace, metrics=MetricsRegistry())
            report.verify_against_metrics()
            for outcome in report.outcomes:
                served = engine.map_to_external(outcome.ids)
                assert not np.any(np.isin(served, [7, 30]))
            return report.to_bytes()

        before = replay()
        # Land every mutation kind on the live index, then replay the
        # pinned epoch again: the bytes must not move.
        index.insert(_corpus(10, seed=5), now=2.0)
        index.delete([40, 41, 55], now=3.0)
        index.compact(now=4.0)
        index.checkpoint(now=5.0)
        assert replay() == before

    def test_each_epoch_is_served_from_fresh_caches(self):
        """A result cached while serving one epoch never answers for a
        later one: the deleted point's own query stops returning it."""
        index = _fresh()
        trace = synthetic_trace(index.points[5:6].copy(), 8,
                                mean_qps=1e4, seed=2)

        def served_ids(cache_capacity):
            engine = ClusterEngine.from_snapshot(
                index.snapshot(), 1, 1, params=SEARCH,
                cache_capacity=cache_capacity)
            report = engine.replay(trace)
            return [engine.map_to_external(outcome.ids)
                    for outcome in report.outcomes]

        assert all(ids[0, 0] == 5 for ids in served_ids(64))
        index.delete([5], now=1.0)
        after = served_ids(64)
        assert not any(np.isin(5, ids) for ids in after)
        uncached = served_ids(0)
        assert all(np.array_equal(a, b) for a, b in zip(after, uncached))

    def test_replaying_twice_starts_from_cold_caches(self):
        index = _fresh()
        trace = synthetic_trace(index.points[:20].copy(), 60,
                                mean_qps=1e4, repeat_fraction=0.8,
                                seed=4)

        def engine(cache_capacity):
            return ClusterEngine.from_snapshot(
                index.snapshot(), 1, 1, params=SEARCH,
                cache_capacity=cache_capacity)

        cached = engine(64)
        first = cached.replay(trace).to_bytes()
        # The cache changes what a replay does, and a second replay of
        # the same engine does it again from the same cold start.
        assert engine(0).replay(trace).to_bytes() != first
        assert cached.replay(trace).to_bytes() == first


class TestClusterFromSnapshot:
    def test_external_id_mapping(self):
        index = _fresh()
        index.delete([0, 1, 2], now=1.0)
        handle = index.snapshot()
        engine = ClusterEngine.from_snapshot(
            handle, n_shards=2, n_replicas=1,
            params=SearchParams(k=3, l_n=32))
        assert len(engine.points) == len(handle.live_ids())
        # Dense row 0 is external id 3 (ids 0-2 are tombstoned).
        mapped = engine.map_to_external(np.array([[0, -1]]))
        assert mapped[0, 0] == 3
        assert mapped[0, 1] == -1
        # Mapped ids are slot ids: the corpora agree point-for-point.
        metric = get_metric("euclidean")
        assert np.allclose(engine.points[0],
                           index.points[int(mapped[0, 0])])
        assert metric.one_to_many(
            engine.points[0], index.points[[3]])[0] == 0.0

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_metric_defaults_to_the_pinned_graph(self, metric):
        index = MutableIndex.build(_corpus(), PARAMS, metric=metric)
        handle = index.snapshot()
        assert handle.graph.metric_name == metric
        engine = ClusterEngine.from_snapshot(handle, 1, 1, params=SEARCH)
        assert engine.metric == metric

    def test_identity_mapping_without_snapshot(self):
        engine = ClusterEngine(_corpus(80), n_shards=2, n_replicas=1,
                               params=SearchParams(k=3, l_n=32))
        ids = np.array([[4, -1, 2]])
        assert np.array_equal(engine.map_to_external(ids), ids)


class TestObservability:
    def test_spans_validate_and_attributes_land(self):
        tracer = SpanTracer()
        index = _fresh()
        index.insert(_corpus(3, seed=9), now=1.0, tracer=tracer)
        index.delete([2], now=2.0, tracer=tracer)
        index.compact(now=3.0, tracer=tracer)
        index.checkpoint(now=4.0, tracer=tracer)
        tracer.finish()
        tracer.validate()
        names = [s.name for s in tracer.find("mutate.insert")]
        assert names == ["mutate.insert"]
        (compaction,) = tracer.find("compaction.pass")
        assert compaction.attributes["n_dead"] == 1
        (ckpt,) = tracer.find("recovery.checkpoint")
        assert ckpt.attributes["last_lsn"] == 4
