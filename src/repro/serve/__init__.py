"""Batched query-serving subsystem.

Turns the paper's batch-oriented GANNS kernel into a serving layer:
individual requests are admitted through a bounded queue, answered from
the engine's own LRU result cache when possible, aggregated by a
dynamic micro-batching scheduler (flush on size or deadline), dispatched
through the stream-overlap pipeline of :mod:`repro.core.pipeline`, and
demultiplexed back into per-request results with queue/compute latency
accounting.  The engine is fault-tolerant: wired to a
:class:`repro.faults.FaultPlan` it survives injected kernel faults with
deadlines, retries, a circuit breaker and graceful quality degradation.
See ``docs/serving.md`` and ``docs/fault_model.md`` for the design.
"""

from repro.serve.cache import CacheStats, ResultCache
from repro.serve.engine import ServeEngine
from repro.serve.report import ServeReport
from repro.serve.request import QueryRequest, RequestOutcome, RequestStatus
from repro.serve.scheduler import (
    Batch,
    BatchPolicy,
    MicroBatchScheduler,
    TRIGGER_DEADLINE,
    TRIGGER_DRAIN,
    TRIGGER_SIZE,
)
from repro.serve.trace import synthetic_trace

__all__ = [
    "Batch",
    "BatchPolicy",
    "CacheStats",
    "MicroBatchScheduler",
    "QueryRequest",
    "RequestOutcome",
    "RequestStatus",
    "ResultCache",
    "ServeEngine",
    "ServeReport",
    "TRIGGER_DEADLINE",
    "TRIGGER_DRAIN",
    "TRIGGER_SIZE",
    "synthetic_trace",
]
