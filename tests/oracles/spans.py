"""Span-forest walks the observability tests check trees with."""

from typing import Iterable

from repro.observability.span import Span, SpanTracer


def iter_descendants(tracer: SpanTracer,
                     span_id: int) -> Iterable[Span]:
    """Yield every descendant of ``span_id``, depth-first."""
    for child in tracer.children_of(span_id):
        yield child
        yield from iter_descendants(tracer, child.span_id)
