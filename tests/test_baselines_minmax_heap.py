"""Bounded-queue semantics of SONG's candidate queue ``C``.

SONG describes ``C`` as a bounded min-max heap: pop the minimum, and when
full, drop the worst to admit a better key.  Here ``C`` is an ascending
list of at most ``bound`` keys (``visited._push_bounded``, the queue of
the visited-marking ablation) with the same
semantics; these tests hold it to them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.visited import _push_bounded


def _pushed(keys, bound):
    queue = []
    for key in keys:
        _push_bounded(queue, key, bound)
    return queue


class TestBasicOperations:
    def test_pop_min_ascending(self):
        values = [5.0, 2.0, 8.0, 1.0, 9.0, 3.0]
        queue = _pushed([(v, i) for i, v in enumerate(values)], bound=16)
        popped = [queue.pop(0)[0] for _ in range(len(values))]
        assert popped == sorted(values)
        assert not queue


class TestBoundedSemantics:
    def test_eviction_keeps_best(self):
        queue = []
        for i, v in enumerate((5.0, 3.0, 4.0)):
            assert _push_bounded(queue, (v, i), 3) == (True, None)
        assert _push_bounded(queue, (1.0, 9), 3) == (True, (5.0, 0))
        assert queue == [(1.0, 9), (3.0, 1), (4.0, 2)]

    def test_worse_than_max_rejected_when_full(self):
        queue = _pushed([(1.0, 0), (2.0, 1)], bound=2)
        assert _push_bounded(queue, (3.0, 2), 2) == (False, None)
        assert _push_bounded(queue, (2.0, 1), 2) == (False, None)
        assert queue == [(1.0, 0), (2.0, 1)]

    def test_tie_break_by_id(self):
        queue = _pushed([(1.0, 5), (1.0, 2)], bound=2)
        # (1.0, 9) >= the worst, (1.0, 5)
        assert _push_bounded(queue, (1.0, 9), 2) == (False, None)
        assert _push_bounded(queue, (1.0, 1), 2) == (True, (1.0, 5))
        assert queue == [(1.0, 1), (1.0, 2)]


class TestProperties:
    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=0,
                    max_size=200),
           st.integers(min_value=1, max_value=32))
    @settings(max_examples=60, deadline=None)
    def test_matches_sorted_truncation(self, values, bound):
        """A bounded queue fed a stream keeps exactly the bound smallest
        (dist, id) pairs."""
        keys = [(v, i) for i, v in enumerate(values)]
        assert _pushed(keys, bound) == sorted(keys)[:bound]

    @given(st.lists(st.tuples(st.booleans(),
                              st.floats(min_value=0, max_value=100)),
                    min_size=1, max_size=150))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_mixed_operations(self, operations):
        """The queue stays ascending and within its bound after any
        interleaving of pushes and pops, and a pop returns its minimum."""
        queue = []
        for i, (is_push, value) in enumerate(operations):
            if is_push or not queue:
                _push_bounded(queue, (value, i), 16)
            else:
                smallest = min(queue)
                assert queue.pop(0) == smallest
            assert queue == sorted(queue)
            assert len(queue) <= 16
