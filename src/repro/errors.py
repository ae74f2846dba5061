"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch one base class.  Each subclass names the subsystem that
raised it; message text carries the specifics.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""


class ConfigurationError(ReproError):
    """An invalid parameter or device configuration was supplied.

    Raised eagerly, at construction time, so that a bad run fails before any
    expensive work is performed.
    """


class UnknownFamilyError(ConfigurationError):
    """A graph_type / index-family name is not in the backend registry.

    Raised by :func:`repro.core.backend.get_backend` (and therefore by
    every entry point that selects an index family by name: the
    :class:`~repro.core.index.GannsIndex` constructors, the cluster
    engine, and the ``repro build`` CLI).  Subclasses
    :class:`ConfigurationError` so existing ``except ConfigurationError``
    call sites keep working.
    """


class UnsupportedOperationError(ReproError):
    """A registered index family does not support the requested operation.

    Example: sharding a cluster over a family with no flat serving graph
    (HNSW).  Raised eagerly at configuration time.
    """


class DeviceError(ReproError):
    """A simulated-device constraint was violated.

    Examples: a kernel requests more shared memory per block than the device
    spec provides, a PCIe transfer of negative size is priced, or the
    merge-step segment scan is given a non-1-D id array.
    """


class GraphError(ReproError):
    """A proximity graph is structurally invalid for the requested operation.

    Examples: adjacency rows that are not distance-ordered, vertex ids out of
    range, or a graph whose degree bound does not match the search
    parameters.
    """


class ValidationError(GraphError):
    """Tombstone-aware validation failed: a dead vertex is still wired in.

    Raised by :func:`repro.graphs.validation.validate_graph` when a
    tombstone mask is supplied and either a live adjacency row still
    references a tombstoned vertex (the dead node is *reachable*) or a
    tombstoned vertex still carries edges after compaction claimed to
    have detached it.
    """


class MutableIndexError(ReproError):
    """The mutable index was misused or reached an unrecoverable state.

    Examples: deleting an id that is already tombstoned or out of range,
    inserting points whose dimensionality does not match the index, or
    deleting the last live point (an index must always keep a search
    entry).
    """


class DatasetError(ReproError):
    """A dataset could not be generated, loaded, or validated."""


class SearchError(ReproError):
    """A search invocation was inconsistent with the index it targets."""


class ConstructionError(ReproError):
    """A graph-construction invocation failed or was misconfigured."""


class ServeError(ReproError):
    """The query-serving engine was misused or misconfigured.

    Examples: a replay trace whose arrival times are not sorted, or a
    request whose query dimensionality does not match the served index.
    """


class OverloadError(ServeError):
    """A request was rejected by admission control.

    The serving engine bounds its queue; when the backlog (waiting plus
    in-flight requests) reaches the bound, new requests are rejected
    explicitly instead of growing latency without limit.
    """


class ClusterError(ServeError):
    """The sharded serving cluster was misused or misconfigured.

    Examples: a shard placement that leaves a shard empty or smaller
    than ``k``, a replica topology with no replicas, or a scatter-gather
    merge over mismatched per-shard result shapes.
    """


class DeadlineExceededError(ServeError):
    """A request's deadline cannot be met and it was failed fast.

    Raised (and recorded as an outcome detail) by the cluster
    coordinator when a request arrives within one scatter round-trip of
    its deadline: fanning it out to every shard would burn cluster-wide
    work on an answer that is already guaranteed to be late, so the
    coordinator rejects it *before* scatter instead.
    """


class HealError(ClusterError):
    """The self-healing layer was misused or misconfigured.

    Examples: a repair policy with a non-positive bandwidth fraction,
    a repair source whose digest cannot be computed, or a controller
    driven with revival times that precede the death they repair.
    """


class ObservabilityError(ReproError):
    """The observability layer was misused, or a trace is malformed.

    Examples: closing a span that is not open, a span tree whose child
    interval escapes its parent, a Chrome trace export whose B/E pairs
    do not match, or an attribute value that cannot be serialized
    deterministically.
    """


class FaultError(ReproError):
    """An injected (simulated) hardware or infrastructure fault fired.

    Raised by the fault-injection layer (:mod:`repro.faults`) inside the
    dispatch path.  Carries the simulated time the failed attempt
    consumed on each device engine before dying, so the serving engine
    can charge the wasted work to its clock.

    Attributes:
        kind: Fault taxonomy name (one of the ``FAULT_*`` constants in
            :mod:`repro.faults.plan`).
        upload_seconds: Upload-engine time consumed by the failed attempt.
        compute_seconds: Compute-engine time consumed by the failed attempt.
    """

    def __init__(self, message: str, kind: str = "fault",
                 upload_seconds: float = 0.0,
                 compute_seconds: float = 0.0):
        super().__init__(message)
        self.kind = kind
        self.upload_seconds = float(upload_seconds)
        self.compute_seconds = float(compute_seconds)


class KernelTimeoutError(FaultError):
    """The simulated driver killed a kernel that exceeded its watchdog.

    The attempt consumed the full watchdog interval on the compute
    engine before being killed; no results were produced.
    """


class MemoryFaultError(FaultError):
    """An uncorrectable (simulated) ECC error hit a distance buffer.

    The kernel ran to completion, so its whole compute time is wasted,
    but the corruption is *detected* — the result buffer is discarded
    and never served, preserving the no-silent-wrong-answers guarantee.
    """


class DeviceMemoryError(FaultError):
    """Device memory exhaustion: a batch's buffers could not be allocated.

    Fails before any compute; only the attempted upload is charged.
    """


class ProcessCrashError(FaultError):
    """The (simulated) index process died at a named lifecycle phase.

    Delivered by :class:`repro.faults.injector.CrashInjector` when a
    ``crash`` fault arms during a mutation phase (compaction,
    checkpointing).  Everything in volatile memory is lost; only the
    durable store (checkpoint + write-ahead log) survives, and recovery
    must rebuild the index from it.

    Attributes:
        phase: The lifecycle phase name the process died in (e.g.
            ``"compaction.repair"``).
    """

    def __init__(self, message: str, phase: str = "",
                 kind: str = "crash"):
        super().__init__(message, kind=kind)
        self.phase = phase
