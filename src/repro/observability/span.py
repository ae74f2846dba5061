"""Clock-domain spans: nested intervals on the *simulated* clock.

The whole stack runs on simulated seconds, which makes tracing exact in
a way wall-clock tracers never are: a :class:`Span` opens and closes at
engine-cycle timestamps, so "where did request #4812's latency go?" has
one answer that every replay reproduces byte-for-byte.

A :class:`SpanTracer` records a forest of spans:

- Spans **nest** — a child's interval lies inside its parent's.
- Spans carry a **lane** (a render track, the Chrome-trace ``tid``).
  Two siblings may overlap in time only if they sit on different lanes;
  the tracer allocates lanes deterministically (lowest free index per
  lane *group*), so the pipelined overlap of micro-batches lays out as
  a flame chart instead of a lie.
- Spans carry **attributes** (JSON scalars) and point-in-time
  **events** (a fault delivery, a breaker trip) stamped inside their
  interval.

Serialization is canonical: sorted keys, exact ``repr`` floats,
ASCII-escaped strings — two tracers built by identical replays produce
identical bytes (:meth:`SpanTracer.to_json_bytes`), which is what the
golden-trace test pins.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ObservabilityError

#: Lane used when a root span does not name one.
DEFAULT_LANE = "main"

#: Span kinds :meth:`SpanTracer.tree_summary` lists before it elides
#: the rest.
TREE_SUMMARY_MAX_NAMES = 12


def jsonable_scalar(value: object) -> object:
    """Coerce ``value`` to a deterministically serializable JSON scalar.

    Accepts Python/NumPy bools, ints, floats and strings (``None``
    passes through).  Non-finite floats are rejected: ``NaN``/``inf``
    have no canonical JSON spelling, so letting one into a trace would
    silently break byte-determinism downstream.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    # NumPy scalars satisfy these dunders without importing numpy here.
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ObservabilityError(
                f"non-finite float {value!r} cannot be serialized "
                f"deterministically; store a sentinel string instead"
            )
        return float(value)
    if hasattr(value, "item"):  # numpy scalar
        return jsonable_scalar(value.item())
    raise ObservabilityError(
        f"attribute value {value!r} of type {type(value).__name__} is "
        f"not a JSON scalar (bool/int/float/str/None)"
    )


def _jsonable_attrs(attributes: Optional[Dict[str, object]]
                    ) -> Dict[str, object]:
    if not attributes:
        return {}
    out: Dict[str, object] = {}
    for key, value in attributes.items():
        if not isinstance(key, str):
            raise ObservabilityError(
                f"attribute keys must be strings, got {key!r}"
            )
        out[key] = jsonable_scalar(value)
    return out


@dataclass(frozen=True)
class SpanEvent:
    """A point-in-time annotation inside a span's interval."""

    seconds: float
    name: str
    attributes: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form for canonical serialization."""
        return {"seconds": self.seconds, "name": self.name,
                "attributes": dict(self.attributes)}


@dataclass
class Span:
    """One traced interval on the simulated clock.

    Attributes:
        span_id: Tracer-assigned id, dense from 0 in open order.
        name: Span taxonomy name (see ``docs/observability.md``).
        lane: Render track; siblings on one lane never overlap.
        start_seconds: Simulated open instant.
        parent_id: Enclosing span's id (``None`` for roots).
        end_seconds: Simulated close instant (``None`` while open).
        attributes: JSON-scalar annotations.
        events: Point events stamped inside the interval.
    """

    span_id: int
    name: str
    lane: str
    start_seconds: float
    parent_id: Optional[int] = None
    end_seconds: Optional[float] = None
    attributes: Dict[str, object] = field(default_factory=dict)
    events: List[SpanEvent] = field(default_factory=list)

    @property
    def open(self) -> bool:
        """True while the span has not been closed."""
        return self.end_seconds is None

    def overlaps(self, other: "Span") -> bool:
        """Strict interval overlap (zero-width spans never overlap)."""
        if self.end_seconds is None or other.end_seconds is None:
            raise ObservabilityError("cannot test overlap of open spans")
        return (self.start_seconds < other.end_seconds
                and other.start_seconds < self.end_seconds)

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form for canonical serialization."""
        return {
            "span_id": self.span_id,
            "name": self.name,
            "lane": self.lane,
            "parent_id": self.parent_id,
            "start_seconds": self.start_seconds,
            "end_seconds": self.end_seconds,
            "attributes": dict(self.attributes),
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        """Inverse of :meth:`to_dict`."""
        return cls(
            span_id=int(data["span_id"]),
            name=str(data["name"]),
            lane=str(data["lane"]),
            parent_id=(None if data.get("parent_id") is None
                       else int(data["parent_id"])),
            start_seconds=float(data["start_seconds"]),
            end_seconds=(None if data.get("end_seconds") is None
                         else float(data["end_seconds"])),
            attributes=dict(data.get("attributes", {})),
            events=[SpanEvent(seconds=float(e["seconds"]),
                              name=str(e["name"]),
                              attributes=dict(e.get("attributes", {})))
                    for e in data.get("events", [])],
        )


class _LaneGroup:
    """Deterministic lane packing: lowest-index lane free at open time.

    A lane is occupied from a span's open until its close; because all
    times are simulated, "free" means *no recorded span's interval can
    still cover the new start* — an open span blocks its lane outright,
    a closed one blocks it through its end time.
    """

    def __init__(self, name: str):
        self.name = name
        #: Per lane: simulated time the lane is busy until
        #: (``inf`` while a span on it is open).
        self.busy_until: List[float] = []

    def acquire(self, start_seconds: float) -> int:
        for index, until in enumerate(self.busy_until):
            if until <= start_seconds:
                self.busy_until[index] = math.inf
                return index
        self.busy_until.append(math.inf)
        return len(self.busy_until) - 1

    def release(self, index: int, end_seconds: float) -> None:
        self.busy_until[index] = end_seconds


class SpanTracer:
    """Records a forest of simulated-clock spans.

    Usage mirrors the engine's event loop: :meth:`begin` a span when the
    simulated activity starts, :meth:`end` it at the activity's
    simulated completion (wall-clock call order is irrelevant — only
    the timestamps matter), :meth:`add` a retroactive complete span
    when both endpoints are already known, and :meth:`finish` once at
    shutdown, which fails loudly if anything was left open.
    """

    def __init__(self):
        self._spans: List[Span] = []
        self._open: Dict[int, Span] = {}
        self._lane_groups: Dict[str, _LaneGroup] = {}
        self._lane_of_span: Dict[int, Tuple[str, int]] = {}
        self._finished = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    @property
    def spans(self) -> Tuple[Span, ...]:
        """All recorded spans, in open order (``span_id`` order)."""
        return tuple(self._spans)

    @property
    def n_open(self) -> int:
        """Spans begun but not yet ended."""
        return len(self._open)

    def open_spans(self) -> Tuple[Span, ...]:
        """The spans currently open (diagnostics for leak reports)."""
        return tuple(self._open[i] for i in sorted(self._open))

    def _resolve_lane(self, span_id: int, start_seconds: float,
                      lane: Optional[str], lane_group: Optional[str],
                      parent_id: Optional[int]) -> str:
        if lane is not None and lane_group is not None:
            raise ObservabilityError(
                "pass either lane= or lane_group=, not both"
            )
        if lane is not None:
            return lane
        if lane_group is not None:
            group = self._lane_groups.get(lane_group)
            if group is None:
                group = _LaneGroup(lane_group)
                self._lane_groups[lane_group] = group
            index = group.acquire(start_seconds)
            self._lane_of_span[span_id] = (lane_group, index)
            return f"{lane_group}/{index}"
        if parent_id is not None:
            return self._spans[parent_id].lane
        return DEFAULT_LANE

    def begin(self, name: str, start_seconds: float,
              parent_id: Optional[int] = None,
              lane: Optional[str] = None,
              lane_group: Optional[str] = None,
              attributes: Optional[Dict[str, object]] = None) -> int:
        """Open a span; returns its id.

        Args:
            name: Span taxonomy name.
            start_seconds: Simulated open instant.
            parent_id: Enclosing span (must itself be recorded).
            lane: Explicit render lane.
            lane_group: Allocate the lowest free lane of this group
                instead (``"<group>/<index>"``); lanes recycle once
                their previous occupant's interval has ended.
            attributes: Initial attributes (JSON scalars).
        """
        if self._finished:
            raise ObservabilityError("tracer already finished")
        if parent_id is not None and not (
                0 <= parent_id < len(self._spans)):
            raise ObservabilityError(
                f"unknown parent span id {parent_id}"
            )
        span_id = len(self._spans)
        resolved = self._resolve_lane(span_id, start_seconds, lane,
                                      lane_group, parent_id)
        span = Span(span_id=span_id, name=name, lane=resolved,
                    start_seconds=float(start_seconds),
                    parent_id=parent_id,
                    attributes=_jsonable_attrs(attributes))
        self._spans.append(span)
        self._open[span_id] = span
        return span_id

    def end(self, span_id: int, end_seconds: float,
            attributes: Optional[Dict[str, object]] = None) -> None:
        """Close an open span at ``end_seconds``, merging attributes."""
        span = self._open.pop(span_id, None)
        if span is None:
            raise ObservabilityError(
                f"span {span_id} is not open (double close, or never "
                f"begun)"
            )
        end_seconds = float(end_seconds)
        if end_seconds < span.start_seconds:
            self._open[span_id] = span
            raise ObservabilityError(
                f"span {span_id} ({span.name!r}) cannot end at "
                f"{end_seconds} before its start {span.start_seconds}"
            )
        span.end_seconds = end_seconds
        if attributes:
            span.attributes.update(_jsonable_attrs(attributes))
        placed = self._lane_of_span.pop(span_id, None)
        if placed is not None:
            group, index = placed
            self._lane_groups[group].release(index, end_seconds)

    def add(self, name: str, start_seconds: float, end_seconds: float,
            parent_id: Optional[int] = None,
            lane: Optional[str] = None,
            attributes: Optional[Dict[str, object]] = None) -> int:
        """Record a complete span whose endpoints are both known."""
        span_id = self.begin(name, start_seconds, parent_id=parent_id,
                             lane=lane, attributes=attributes)
        self.end(span_id, end_seconds)
        return span_id

    def event(self, span_id: int, seconds: float, name: str,
              attributes: Optional[Dict[str, object]] = None) -> None:
        """Stamp a point event inside a recorded span's interval."""
        if not 0 <= span_id < len(self._spans):
            raise ObservabilityError(f"unknown span id {span_id}")
        span = self._spans[span_id]
        seconds = float(seconds)
        if seconds < span.start_seconds or (
                span.end_seconds is not None
                and seconds > span.end_seconds):
            raise ObservabilityError(
                f"event {name!r} at {seconds} falls outside span "
                f"{span_id} ({span.name!r})"
            )
        span.events.append(SpanEvent(seconds=seconds, name=name,
                                     attributes=_jsonable_attrs(
                                         attributes)))

    def finish(self) -> None:
        """Declare the trace complete; open spans are a hard error."""
        if self._open:
            leaks = ", ".join(
                f"{s.span_id}:{s.name}" for s in self.open_spans())
            raise ObservabilityError(
                f"{len(self._open)} span(s) still open at shutdown: "
                f"{leaks}"
            )
        self._finished = True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def children_of(self, span_id: Optional[int]) -> Tuple[Span, ...]:
        """Direct children of a span (or the roots for ``None``)."""
        return tuple(s for s in self._spans if s.parent_id == span_id)

    def roots(self) -> Tuple[Span, ...]:
        """Spans with no parent."""
        return self.children_of(None)

    def find(self, name: str) -> Tuple[Span, ...]:
        """All spans with the given taxonomy name, id order."""
        return tuple(s for s in self._spans if s.name == name)

    def validate(self) -> None:
        """Check well-formedness of the whole forest.

        Raises :class:`ObservabilityError` on the first violation:
        an open span, a child escaping its parent's interval, two
        same-lane siblings overlapping, or an event outside its span.
        (The invariant test suite re-implements these checks
        independently; this method is the production guard the smoke
        scripts run.)
        """
        if self._open:
            raise ObservabilityError(
                f"{len(self._open)} span(s) still open"
            )
        by_parent: Dict[Optional[int], List[Span]] = {}
        for span in self._spans:
            by_parent.setdefault(span.parent_id, []).append(span)
            if span.parent_id is not None:
                parent = self._spans[span.parent_id]
                if (span.start_seconds < parent.start_seconds
                        or span.end_seconds > parent.end_seconds):
                    raise ObservabilityError(
                        f"span {span.span_id} ({span.name!r}) "
                        f"[{span.start_seconds}, {span.end_seconds}] "
                        f"escapes parent {parent.span_id} "
                        f"[{parent.start_seconds}, "
                        f"{parent.end_seconds}]"
                    )
            for event in span.events:
                if (event.seconds < span.start_seconds
                        or event.seconds > span.end_seconds):
                    raise ObservabilityError(
                        f"event {event.name!r} outside span "
                        f"{span.span_id}"
                    )
        for siblings in by_parent.values():
            by_lane: Dict[str, List[Span]] = {}
            for span in siblings:
                by_lane.setdefault(span.lane, []).append(span)
            for lane, group in by_lane.items():
                group = sorted(group, key=lambda s: (s.start_seconds,
                                                     s.end_seconds))
                for left, right in zip(group, group[1:]):
                    if left.overlaps(right):
                        raise ObservabilityError(
                            f"siblings {left.span_id} and "
                            f"{right.span_id} overlap on lane "
                            f"{lane!r}"
                        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form of the whole trace."""
        return {"format": "repro-trace-v1",
                "spans": [span.to_dict() for span in self._spans]}

    def to_json_bytes(self) -> bytes:
        """Canonical byte encoding: identical replays, identical bytes.

        Sorted keys, minimal separators, ASCII escapes, and exact
        ``repr`` floats — no locale, hash order or platform leaks.
        """
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"),
                          ensure_ascii=True).encode("ascii")

    def digest(self) -> str:
        """SHA-256 hex digest of :meth:`to_json_bytes`."""
        return hashlib.sha256(self.to_json_bytes()).hexdigest()

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SpanTracer":
        """Rebuild a (closed) tracer from :meth:`to_dict` output."""
        if data.get("format") != "repro-trace-v1":
            raise ObservabilityError(
                f"unknown trace format {data.get('format')!r}"
            )
        tracer = cls()
        spans = [Span.from_dict(s) for s in data.get("spans", [])]
        spans.sort(key=lambda s: s.span_id)
        for expected, span in enumerate(spans):
            if span.span_id != expected:
                raise ObservabilityError(
                    f"span ids must be dense from 0; missing "
                    f"{expected}"
                )
            if span.open:
                raise ObservabilityError(
                    f"span {span.span_id} in serialized trace is open"
                )
        tracer._spans = spans
        tracer._finished = True
        return tracer

    @classmethod
    def from_json_bytes(cls, payload: bytes) -> "SpanTracer":
        """Inverse of :meth:`to_json_bytes`."""
        try:
            data = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise ObservabilityError(f"malformed trace file: {err}")
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def tree_summary(self) -> str:
        """Compact human-readable span census (what the CLI prints)."""
        counts: Dict[str, int] = {}
        for span in self._spans:
            counts[span.name] = counts.get(span.name, 0) + 1
        lanes = {span.lane for span in self._spans}
        lines = [f"trace: {len(self._spans)} spans on {len(lanes)} "
                 f"lanes"]
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        for name, count in ranked[:TREE_SUMMARY_MAX_NAMES]:
            lines.append(f"  {name:<18} {count}")
        if len(ranked) > TREE_SUMMARY_MAX_NAMES:
            lines.append(f"  … {len(ranked) - TREE_SUMMARY_MAX_NAMES} "
                         f"more span kinds")
        return "\n".join(lines)
