"""Tests for the micro-batching scheduler: triggers, ordering, fairness."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ServeError
from repro.serve.request import QueryRequest
from repro.serve.scheduler import (
    TRIGGER_DEADLINE,
    TRIGGER_DRAIN,
    TRIGGER_SIZE,
    BatchPolicy,
    MicroBatchScheduler,
)


def _req(request_id, arrival, n_queries=1, dims=4):
    return QueryRequest(request_id=request_id,
                        queries=np.zeros((n_queries, dims)),
                        arrival_seconds=arrival)


class TestBatchPolicy:
    def test_defaults_valid(self):
        policy = BatchPolicy()
        assert policy.max_batch > 0
        assert policy.max_queue >= policy.max_batch

    def test_rejects_nonpositive_max_batch(self):
        with pytest.raises(ConfigurationError, match="max_batch"):
            BatchPolicy(max_batch=0)

    def test_rejects_negative_window(self):
        with pytest.raises(ConfigurationError, match="max_wait"):
            BatchPolicy(max_wait_seconds=-1e-3)

    def test_rejects_queue_smaller_than_batch(self):
        with pytest.raises(ConfigurationError, match="max_queue"):
            BatchPolicy(max_batch=64, max_queue=32)


class TestSizeTrigger:
    def test_flushes_exactly_at_max_batch(self):
        sched = MicroBatchScheduler(BatchPolicy(max_batch=3,
                                                max_wait_seconds=1.0))
        assert sched.submit(_req(0, 0.0), 0.0) == []
        assert sched.submit(_req(1, 0.1), 0.1) == []
        flushed = sched.submit(_req(2, 0.2), 0.2)
        assert len(flushed) == 1
        batch = flushed[0]
        assert batch.trigger == TRIGGER_SIZE
        assert batch.n_queries == 3
        assert batch.flush_seconds == 0.2
        assert sched.pending_queries == 0

    def test_multi_query_request_counts_queries_not_requests(self):
        sched = MicroBatchScheduler(BatchPolicy(max_batch=4,
                                                max_wait_seconds=1.0))
        flushed = sched.submit(_req(0, 0.0, n_queries=4), 0.0)
        assert len(flushed) == 1
        assert flushed[0].n_requests == 1
        assert flushed[0].n_queries == 4

    def test_overflowing_request_flushes_pending_first(self):
        """A request that would exceed max_batch closes the open batch
        and starts the next one, so no batch exceeds the bound."""
        sched = MicroBatchScheduler(BatchPolicy(max_batch=4,
                                                max_wait_seconds=1.0))
        sched.submit(_req(0, 0.0, n_queries=3), 0.0)
        flushed = sched.submit(_req(1, 0.1, n_queries=2), 0.1)
        assert len(flushed) == 1
        assert [r.request_id for r in flushed[0].requests] == [0]
        assert sched.pending_queries == 2

    def test_oversized_single_request_forms_own_batch(self):
        sched = MicroBatchScheduler(BatchPolicy(max_batch=4,
                                                max_wait_seconds=1.0))
        flushed = sched.submit(_req(0, 0.0, n_queries=9), 0.0)
        assert len(flushed) == 1
        assert flushed[0].n_queries == 9


class TestDeadlineTrigger:
    def test_poll_before_deadline_is_noop(self):
        sched = MicroBatchScheduler(BatchPolicy(max_batch=100,
                                                max_wait_seconds=0.5))
        sched.submit(_req(0, 0.0), 0.0)
        assert sched.poll(0.4) == []
        assert sched.pending_queries == 1

    def test_flush_is_stamped_with_deadline_not_poll_time(self):
        """A timer fires at the deadline; noticing it late (at the next
        arrival) must not inflate the batch's flush time."""
        sched = MicroBatchScheduler(BatchPolicy(max_batch=100,
                                                max_wait_seconds=0.5))
        sched.submit(_req(0, 0.1), 0.1)
        flushed = sched.poll(7.0)
        assert len(flushed) == 1
        assert flushed[0].trigger == TRIGGER_DEADLINE
        assert flushed[0].flush_seconds == pytest.approx(0.6)

    def test_deadline_tracks_oldest_member(self):
        sched = MicroBatchScheduler(BatchPolicy(max_batch=100,
                                                max_wait_seconds=0.5))
        sched.submit(_req(0, 0.0), 0.0)
        sched.submit(_req(1, 0.3), 0.3)
        assert sched.deadline() == pytest.approx(0.5)

    def test_deadline_none_when_empty(self):
        sched = MicroBatchScheduler(BatchPolicy())
        assert sched.deadline() is None
        assert sched.poll(100.0) == []


class TestFifoFairness:
    def test_arrival_order_preserved_within_and_across_batches(self):
        sched = MicroBatchScheduler(BatchPolicy(max_batch=2,
                                                max_wait_seconds=10.0))
        batches = []
        for i in range(7):
            batches.extend(sched.submit(_req(i, i * 0.1), i * 0.1))
        batches.extend(sched.drain())
        served = [r.request_id for b in batches for r in b.requests]
        assert served == list(range(7))
        assert [b.index for b in batches] == [0, 1, 2, 3]

    def test_batch_indices_strictly_increase_across_triggers(self):
        sched = MicroBatchScheduler(BatchPolicy(max_batch=2,
                                                max_wait_seconds=0.1))
        collected = []
        collected += sched.submit(_req(0, 0.0), 0.0)      # pending
        collected += sched.poll(1.0)                      # deadline flush
        collected += sched.submit(_req(1, 1.0), 1.0)
        collected += sched.submit(_req(2, 1.0), 1.0)      # size flush
        collected += sched.submit(_req(3, 2.0), 2.0)
        collected += sched.drain()                        # drain flush
        assert [b.index for b in collected] == [0, 1, 2]
        assert [b.trigger for b in collected] == [
            TRIGGER_DEADLINE, TRIGGER_SIZE, TRIGGER_DRAIN]


class TestDrain:
    def test_drain_empty_returns_nothing(self):
        assert MicroBatchScheduler(BatchPolicy()).drain() == []

    def test_drain_stamps_deadline(self):
        sched = MicroBatchScheduler(BatchPolicy(max_batch=100,
                                                max_wait_seconds=0.25))
        sched.submit(_req(0, 2.0), 2.0)
        (batch,) = sched.drain()
        assert batch.trigger == TRIGGER_DRAIN
        assert batch.flush_seconds == pytest.approx(2.25)


class TestTimeDiscipline:
    def test_rejects_time_running_backwards(self):
        sched = MicroBatchScheduler(BatchPolicy())
        sched.submit(_req(0, 5.0), 5.0)
        with pytest.raises(ServeError, match="backwards"):
            sched.submit(_req(1, 4.0), 4.0)

    def test_flush_counts_by_trigger(self):
        sched = MicroBatchScheduler(BatchPolicy(max_batch=1,
                                                max_wait_seconds=1.0))
        sched.submit(_req(0, 0.0), 0.0)
        sched.submit(_req(1, 0.5), 0.5)
        assert sched.flush_counts[TRIGGER_SIZE] == 2
        assert sched.flush_counts[TRIGGER_DEADLINE] == 0
