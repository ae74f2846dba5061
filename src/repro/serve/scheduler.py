"""Dynamic micro-batching: aggregate requests, flush on size or deadline.

GPU graph search only pays off when queries arrive at the kernel in
large batches (one thread block per query; a batch of one leaves the
device idle).  The scheduler therefore holds arriving requests in a FIFO
accumulator and flushes a merged batch when either

- the accumulated query count reaches ``max_batch`` (*size* trigger), or
- the oldest waiting request has waited ``max_wait_seconds`` (*deadline*
  trigger) — the knob that bounds worst-case queueing latency.

Whichever fires first wins, giving the classic latency/throughput
trade-off the serving benchmark sweeps.  All time is simulated seconds,
consistent with the rest of the package: the scheduler never reads a
real clock, so every replay is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.params import as_count, as_finite
from repro.errors import ConfigurationError, ServeError
from repro.serve.request import QueryRequest

#: Flush triggers, in the order they are checked.
TRIGGER_SIZE = "size"
TRIGGER_DEADLINE = "deadline"
TRIGGER_DRAIN = "drain"


@dataclass(frozen=True)
class BatchPolicy:
    """Micro-batching and admission-control knobs.

    Attributes:
        max_batch: Flush when this many queries have accumulated.
        max_wait_seconds: Flush when the oldest request has waited this
            long (the batching window).
        max_queue: Admission bound — maximum queries waiting or
            in flight before new requests are rejected.
    """

    max_batch: int = 256
    max_wait_seconds: float = 2e-3
    max_queue: int = 8192

    def __post_init__(self) -> None:
        as_count(self.max_batch, "max_batch", 1)
        as_count(self.max_queue, "max_queue", 1)
        if as_finite(self.max_wait_seconds, "max_wait_seconds") < 0:
            raise ConfigurationError(
                f"max_wait_seconds must be >= 0, got "
                f"{self.max_wait_seconds}"
            )
        if self.max_queue < self.max_batch:
            raise ConfigurationError(
                f"max_queue ({self.max_queue}) must be >= max_batch "
                f"({self.max_batch}), or every full batch would be "
                f"rejected"
            )


@dataclass(frozen=True)
class Batch:
    """One flushed micro-batch, ready for dispatch.

    Attributes:
        index: Dispatch order (0-based, strictly increasing).
        requests: The member requests, in arrival (FIFO) order.
        open_seconds: Arrival time of the first member.
        flush_seconds: When the flush fired (the deadline itself for
            deadline flushes, not the time the next event was noticed).
        trigger: ``"size"``, ``"deadline"`` or ``"drain"``.
    """

    index: int
    requests: Tuple[QueryRequest, ...]
    open_seconds: float
    flush_seconds: float
    trigger: str

    @property
    def n_queries(self) -> int:
        """Total query vectors across member requests."""
        return sum(r.n_queries for r in self.requests)

    @property
    def n_requests(self) -> int:
        """Number of member requests."""
        return len(self.requests)


class MicroBatchScheduler:
    """FIFO accumulator with size- and deadline-triggered flushing.

    Drive it with simulated time: call :meth:`poll` with the current
    time before each arrival (to fire any deadline that expired in the
    gap), then :meth:`submit` the arrival, and :meth:`drain` once the
    trace ends.  Flushed batches preserve arrival order both across
    batches and within each batch, so serving is globally FIFO.
    """

    def __init__(self, policy: BatchPolicy):
        self.policy = policy
        self._pending: List[QueryRequest] = []
        self._pending_queries = 0
        self._open_seconds: Optional[float] = None
        self._last_event_seconds = 0.0
        self._next_index = 0
        self.flush_counts: Dict[str, int] = {
            TRIGGER_SIZE: 0, TRIGGER_DEADLINE: 0, TRIGGER_DRAIN: 0}

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def pending_queries(self) -> int:
        """Query vectors currently accumulating."""
        return self._pending_queries

    def deadline(self) -> Optional[float]:
        """When the current accumulation must flush, or ``None`` if empty."""
        if self._open_seconds is None:
            return None
        return self._open_seconds + self.policy.max_wait_seconds

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def _check_time(self, now: float) -> None:
        if now < self._last_event_seconds:
            raise ServeError(
                f"scheduler driven backwards in time: {now} after "
                f"{self._last_event_seconds}"
            )
        self._last_event_seconds = now

    def _flush(self, flush_seconds: float, trigger: str) -> Batch:
        if not self._pending:
            raise ServeError("cannot flush an empty scheduler")
        batch = Batch(
            index=self._next_index,
            requests=tuple(self._pending),
            open_seconds=self._open_seconds,
            flush_seconds=flush_seconds,
            trigger=trigger,
        )
        self._next_index += 1
        self.flush_counts[trigger] += 1
        self._pending = []
        self._pending_queries = 0
        self._open_seconds = None
        return batch

    def poll(self, now: float) -> List[Batch]:
        """Fire any deadline that expired at or before ``now``.

        The flush is stamped with the *deadline* time, not ``now`` —
        in a live system a timer fires at the deadline regardless of
        when the next request happens to arrive.
        """
        self._check_time(now)
        flushed: List[Batch] = []
        deadline = self.deadline()
        if deadline is not None and deadline <= now:
            flushed.append(self._flush(deadline, TRIGGER_DEADLINE))
        return flushed

    def submit(self, request: QueryRequest, now: float) -> List[Batch]:
        """Accept one request; return any batches this arrival flushed.

        A request whose queries would overflow the accumulating batch
        first flushes the accumulation (size trigger), then opens a new
        batch — so batches never exceed ``max_batch`` queries unless a
        single request alone is larger (it then forms its own oversized
        batch rather than being split, because a request's queries must
        be answered together).
        """
        self._check_time(now)
        flushed: List[Batch] = []
        if (self._pending
                and self._pending_queries + request.n_queries
                > self.policy.max_batch):
            flushed.append(self._flush(now, TRIGGER_SIZE))
        if self._open_seconds is None:
            self._open_seconds = now
        self._pending.append(request)
        self._pending_queries += request.n_queries
        if self._pending_queries >= self.policy.max_batch:
            flushed.append(self._flush(now, TRIGGER_SIZE))
        return flushed

    def drain(self) -> List[Batch]:
        """Flush whatever is left at the end of a trace.

        The batch is stamped with its deadline — the engine replays the
        trace to quiescence, and the batching window still applies to
        the tail.
        """
        if not self._pending:
            return []
        return [self._flush(self.deadline(), TRIGGER_DRAIN)]
