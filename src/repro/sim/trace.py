"""Structured event tracing for the simulator.

Everything the tracer records is a :class:`Span`: an interval with
explicit begin/end times and a parent id, forming the nesting the
observability layer exports: collective -> phase -> message ->
link-occupancy.  Spans are opened with :meth:`Tracer.begin` and closed
with :meth:`Tracer.end`; point-in-time occurrences (a contention stall,
a lost message, a link going down) are zero-length spans made by
:meth:`Tracer.mark`.

A tracer is attached to the environment it observes: ``env.tracer``
is ``None`` by default, and every instrumented site guards its spans
with ``tracer is not None``, so an untraced run pays one branch per
site.  Recording a span never schedules an event, so a traced run
executes exactly the events of an untraced one.

Memory is bounded when ``max_spans`` is given: the tracer keeps the
newest spans (drop-oldest ring) and counts what it discarded in
``dropped``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Collection, Deque, Dict, List, Optional, Union

__all__ = ["Span", "Tracer"]

#: Category filters accept one category or a collection of them.
CategoryFilter = Optional[Union[str, Collection[str]]]


@dataclass
class Span:
    """One traced interval.  ``end`` is ``None`` while the span is open.

    ``parent`` is the id of the enclosing span (0 for roots), which is
    what lets exporters reconstruct the collective -> phase -> message
    -> link nesting.
    """

    id: int
    name: str
    category: str
    start: float
    end: Optional[float] = None
    node: Optional[int] = None
    parent: int = 0
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in simulated microseconds (0 while open)."""
        return 0.0 if self.end is None else self.end - self.start

    @property
    def open(self) -> bool:
        return self.end is None


def _matches(category: str, wanted: CategoryFilter) -> bool:
    if wanted is None:
        return True
    if isinstance(wanted, str):
        return category == wanted
    return category in wanted


class Tracer:
    """Collects spans, optionally into a bounded drop-oldest ring."""

    def __init__(self, max_spans: Optional[int] = None):
        if max_spans is not None and max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self._spans: Deque[Span] = deque(maxlen=max_spans)
        self._next_span_id = 1
        #: Spans discarded by the bounded-memory ring.
        self.dropped = 0

    def begin(self, time: float, name: str, category: str,
              node: Optional[int] = None, parent: Optional[Span] = None,
              **detail: Any) -> Span:
        """Open a span."""
        span = Span(id=self._next_span_id, name=name, category=category,
                    start=time, node=node,
                    parent=parent.id if parent is not None else 0,
                    detail=detail)
        self._next_span_id += 1
        spans = self._spans
        if spans.maxlen is not None and len(spans) == spans.maxlen:
            self.dropped += 1
        spans.append(span)
        return span

    def mark(self, time: float, category: str, node: Optional[int] = None,
             **detail: Any) -> None:
        """Record a point-in-time occurrence: a zero-length root span
        named after its category."""
        self.begin(time, category, category, node, **detail).end = time

    def end(self, span: Span, time: float, **detail: Any) -> None:
        """Close ``span`` at ``time``."""
        span.end = time
        if detail:
            span.detail.update(detail)

    def extend(self, span: Span, time: float) -> None:
        """Push ``span``'s end out to at least ``time``.

        Used for aggregate spans (collective phases) whose extent is
        the envelope of many member events.
        """
        if span.end is None or span.end < time:
            span.end = time

    def spans(self, category: CategoryFilter = None) -> List[Span]:
        """All spans (open and closed), optionally filtered by category."""
        if category is None:
            return list(self._spans)
        return [s for s in self._spans if _matches(s.category, category)]

    def clear(self) -> None:
        """Drop all collected spans and reset the drop counter."""
        self._spans.clear()
        self.dropped = 0
