"""Property-based invariants for the mutable index (hypothesis).

Two families:

* **Snapshot isolation** — no mutation sequence, however shaped, may
  change what a pinned :class:`SnapshotHandle` returns, byte for byte.
* **Recall after delete** — with tombstoned ids masked out of the
  ground truth denominator, deletes must not silently destroy recall,
  and no tombstoned id may ever be returned.

Examples are kept small (corpus of ~80 points, d=8) because every
example pays for a full graph build; ``deadline=None`` for the same
reason.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ganns import ganns_search
from repro.core.params import BuildParams, SearchParams
from repro.datasets.ground_truth import exact_knn
from repro.datasets.synthetic import gaussian_mixture
from repro.metrics.recall import recall_at_k
from repro.mutable import MutableIndex, recover
from repro.mutable.snapshot import state_digest
from tests.oracles.recall import mask_deleted_ground_truth

# Denser than default_build_params(): the d_max=8 sim default leaves a
# tiny clustered corpus weakly connected (baseline recall ~0.35 with
# zero deletes), which would drown the recall-after-delete signal.
PARAMS = BuildParams(d_min=8, d_max=16, n_blocks=4, n_threads=32)
SEARCH = SearchParams(k=5, l_n=32)
N_BASE = 80
N_DIMS = 8

# An op is ("insert", batch_seed, batch_size) | ("delete", pick_seed)
# | ("compact",).  Seeds make the drawn sequence self-contained: the
# actual points/ids are derived deterministically at apply time.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 2**16),
                  st.integers(1, 6)),
        st.tuples(st.just("delete"), st.integers(0, 2**16)),
        st.tuples(st.just("compact")),
    ),
    min_size=1, max_size=6,
)

_SLOW = settings(max_examples=12, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _base_corpus(seed=0):
    return gaussian_mixture(N_BASE, N_DIMS, n_clusters=4,
                            seed=seed).astype(np.float64)


def _pinned_state(handle):
    """SHA-256 over a pinned snapshot's epoch, entry and state bytes."""
    return state_digest(b"epoch=%d entry=%d " % (handle.epoch, handle.entry),
                        handle.points, handle.graph, handle.tombstones)


def _search_pinned(handle, queries):
    """GANNS over the pinned arrays, from the pinned entry."""
    return ganns_search(handle.graph, handle.points, queries, SEARCH,
                        entry=handle.entry)


def _apply_ops(index, ops):
    """Replay a drawn op sequence; skipped ops return False."""
    now = 1.0
    for op in ops:
        if op[0] == "insert":
            _, batch_seed, batch_size = op
            rng = np.random.default_rng(batch_seed)
            index.insert(rng.standard_normal((batch_size, N_DIMS)),
                         now=now)
        elif op[0] == "delete":
            live = index.live_ids()
            if len(live) <= 1:
                continue
            rng = np.random.default_rng(op[1])
            n_del = int(min(1 + rng.integers(0, 3), len(live) - 1))
            ids = np.sort(rng.choice(live, size=n_del, replace=False))
            index.delete(ids, now=now)
        else:
            index.compact(now=now)
        now += 1.0


class TestSnapshotIsolation:
    @_SLOW
    @given(ops=_OPS, query_seed=st.integers(0, 2**16))
    def test_pinned_snapshot_is_immune_to_mutations(self, ops,
                                                    query_seed):
        index = MutableIndex.build(_base_corpus(), PARAMS)
        handle = index.snapshot()
        rng = np.random.default_rng(query_seed)
        queries = rng.standard_normal((3, N_DIMS))
        before = _search_pinned(handle, queries)
        pinned = (before.ids.tobytes(), before.dists.tobytes())
        state = _pinned_state(handle)
        _apply_ops(index, ops)
        index.validate()
        after = _search_pinned(handle, queries)
        assert (after.ids.tobytes(), after.dists.tobytes()) == pinned
        assert _pinned_state(handle) == state

    @_SLOW
    @given(ops=_OPS)
    def test_recovery_replays_any_sequence_exactly(self, ops):
        """WAL replay equivalence is not just for the battery's
        hand-picked sequences — it holds for arbitrary ones."""
        index = MutableIndex.build(_base_corpus(), PARAMS)
        _apply_ops(index, ops)
        recovered = recover(index.store)
        assert recovered.digest() == index.digest()
        recovered.validate()


class TestRecallAfterDelete:
    @_SLOW
    @given(pick_seed=st.integers(0, 2**16),
           n_delete=st.integers(1, 20),
           compact=st.booleans())
    def test_deletes_never_return_tombstones_and_recall_survives(
            self, pick_seed, n_delete, compact):
        corpus = _base_corpus()
        index = MutableIndex.build(corpus, PARAMS)
        rng = np.random.default_rng(pick_seed)
        doomed = np.sort(rng.choice(N_BASE, size=n_delete,
                                    replace=False))
        index.delete(doomed, now=1.0)
        if compact:
            index.compact(now=2.0)
        # In-distribution queries: jittered corpus points.  Far-away
        # N(0,1) queries see near-equidistant ties a d_max=8 graph
        # legitimately misses; that would test the graph, not deletes.
        anchors = rng.choice(N_BASE, size=8, replace=False)
        queries = corpus[anchors] + 0.05 * rng.standard_normal(
            (8, N_DIMS))
        ids, dists = index.search(queries, SEARCH)
        returned = ids[ids >= 0]
        # Zero wrong answers: a tombstoned id is never returned.
        assert not np.any(index.tombstones[returned])
        # Recall against the surviving true neighbors only.
        truth = exact_knn(corpus, queries, k=SEARCH.k)
        truth = mask_deleted_ground_truth(truth, index.tombstones)
        assert recall_at_k(ids, truth) >= 0.5
        # Distances in each row stay sorted despite the filtering.
        for row in dists:
            finite = row[np.isfinite(row)]
            assert np.all(np.diff(finite) >= 0)
