"""Request and outcome records of the query-serving engine.

A :class:`QueryRequest` is one client call: one or more query vectors
that arrive together at a simulated wall-clock instant and must be
answered together.  A :class:`RequestOutcome` is the engine's record of
what happened to it — served from a dispatched batch, served from the
result cache, or rejected by admission control — together with the
latency split the serving benchmarks plot (queue wait vs compute).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.ganns import check_queries
from repro.errors import SearchError, ServeError


class RequestStatus(enum.Enum):
    """Terminal state of one request."""

    SERVED = "served"
    CACHE_HIT = "cache_hit"
    REJECTED = "rejected"
    #: Deadline expired while queued; dropped before dispatch.
    TIMED_OUT = "timed_out"
    #: Dispatch failed permanently (retries exhausted or breaker open).
    FAILED = "failed"


@dataclass(frozen=True, eq=False)
class QueryRequest:
    """One client request entering the serving engine.

    Attributes:
        request_id: Caller-chosen identifier, unique within a trace.
        queries: ``(m, d)`` query matrix — ``m`` is usually 1, but a
            client may bundle a few queries into one request.
        arrival_seconds: Simulated arrival time.
        deadline_seconds: Optional per-request deadline, *relative* to
            arrival.  A request still queued past its deadline is
            dropped (``TIMED_OUT``); one completing late is served but
            marked ``deadline_missed``.  ``None`` defers to the
            engine's default deadline, if any.
    """

    request_id: int
    queries: np.ndarray
    arrival_seconds: float
    deadline_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        queries = np.asarray(self.queries)
        if queries.ndim == 1:
            queries = queries[None, :]
        if queries.ndim != 2 or len(queries) == 0:
            raise ServeError(
                f"request {self.request_id}: queries must be a non-empty "
                f"1-D vector or 2-D matrix, got shape "
                f"{np.asarray(self.queries).shape}"
            )
        object.__setattr__(self, "queries", queries)
        # NaN passes a ``< 0`` test, and a non-finite arrival only
        # surfaces after the search, in the latency histogram.
        if not (math.isfinite(self.arrival_seconds)
                and self.arrival_seconds >= 0):
            raise ServeError(
                f"request {self.request_id}: arrival_seconds must be "
                f"finite and >= 0, got {self.arrival_seconds}"
            )
        if self.deadline_seconds is not None:
            check_deadline(self.deadline_seconds,
                           f"request {self.request_id}: deadline_seconds")

    @property
    def n_queries(self) -> int:
        """Number of query vectors bundled in this request."""
        return len(self.queries)

    def deadline_or(self, default_seconds: Optional[float]
                    ) -> Optional[float]:
        """This request's relative deadline, else the engine default."""
        return (self.deadline_seconds if self.deadline_seconds is not None
                else default_seconds)


def check_deadline(seconds: Optional[float], what: str,
                   error: type = ServeError) -> Optional[float]:
    """Validate a relative deadline: ``None``, or finite and positive.

    One rule for a request's own deadline and an engine's default: a
    non-positive default fails every request, and NaN compares false
    against every clock reading, i.e. silently means "no deadline".
    """
    if seconds is not None and not (math.isfinite(seconds)
                                    and seconds > 0):
        raise error(
            f"{what} must be finite and positive, got {seconds}"
        )
    return seconds


def validate_trace(trace: Sequence[QueryRequest], points: np.ndarray,
                   error: type = ServeError) -> None:
    """Reject a trace an engine cannot replay, before any side effect.

    Raises ``error`` unless arrivals are non-decreasing and every query
    matrix is searchable over ``points``: the search's own query check
    (:func:`repro.core.ganns.check_queries`), and the same dtype.  The
    kernel refuses each of these too, but only once a batch reaches it —
    mid-replay, and for every request that shares the batch.
    """
    last_arrival = float("-inf")
    for req in trace:
        if req.arrival_seconds < last_arrival:
            raise error(
                f"trace is not arrival-ordered: request "
                f"{req.request_id} at {req.arrival_seconds} after "
                f"{last_arrival}"
            )
        last_arrival = req.arrival_seconds
        try:
            check_queries(points, req.queries)
        except SearchError as exc:
            raise error(f"request {req.request_id}: {exc}") from exc
        if req.queries.dtype != points.dtype:
            raise error(
                f"request {req.request_id}: queries are "
                f"{req.queries.dtype} but the index holds {points.dtype} "
                f"points; cast them explicitly"
            )


@dataclass(frozen=True, eq=False)
class RequestOutcome:
    """What the engine did with one request.

    Attributes:
        request_id: The request's identifier.
        status: Served, served from cache, or rejected.
        ids: ``(m, k)`` neighbor ids (``None`` when rejected).
        dists: Matching distances (``None`` when rejected).
        arrival_seconds: When the request arrived.
        completion_seconds: When its results were ready (equals the
            arrival time for cache hits and rejections).
        queue_seconds: Time spent waiting for its batch to start.
        compute_seconds: Time from batch start to batch completion.
        batch_index: Index of the dispatched batch that served it, or
            ``-1`` for cache hits and rejections.
        degraded_tier: Quality tier the request was served at — ``0``
            is full quality; higher tiers searched with a shrunken
            candidate pool under the admission governor and are
            *explicitly marked* as such (never silently degraded).
        deadline_missed: Served, but after the request's deadline.
        n_retries: Dispatch re-executions the serving batch survived.
        detail: Failure reason for ``FAILED``/``TIMED_OUT`` outcomes.
    """

    request_id: int
    status: RequestStatus
    ids: Optional[np.ndarray]
    dists: Optional[np.ndarray]
    arrival_seconds: float
    completion_seconds: float
    queue_seconds: float = 0.0
    compute_seconds: float = 0.0
    batch_index: int = -1
    degraded_tier: int = 0
    deadline_missed: bool = False
    n_retries: int = 0
    detail: str = ""

    @property
    def latency_seconds(self) -> float:
        """End-to-end latency (0 for rejections, by construction)."""
        return self.completion_seconds - self.arrival_seconds

    @property
    def served(self) -> bool:
        """True when results were delivered (full quality or degraded)."""
        return self.status in (RequestStatus.SERVED,
                               RequestStatus.CACHE_HIT)

    @property
    def degraded(self) -> bool:
        """True when served below the full-quality tier."""
        return self.served and self.degraded_tier > 0
