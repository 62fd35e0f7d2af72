"""Collective-level span bookkeeping shared by all ranks.

Individual ranks enter and leave a collective at different simulated
times; the *operation's* extent is the envelope.  The
:class:`CollectiveObserver` (one per communicator) maintains that
envelope as spans on the environment's attached tracer:

* one ``collective`` span per sequence number, opened when the first
  rank enters and closed when the last rank reports completion;
* one ``phase`` span per distinct algorithm phase (the tag component
  the algorithms already agree on), parented to the collective span
  and stretched to cover every member message's delivery.

It also feeds the attached metrics registry the per-operation call
and phase/round counts the algorithm-tuning workflow needs, independent
of whether a tracer is attached.  Both observers are read from the
environment at each call, so either may be attached or detached
between (or during) collectives; a detached tracer records nothing
more, not even the end of a span it opened.  A collective observed
only from partway through (some rank entered it while nothing was
attached) still gets spans, but feeds no ``coll.<op>.*`` metric: its
call and phase counts would be partial.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..sim import Environment, Span

__all__ = ["CollectiveObserver"]


class _CollectiveState:
    """Per-sequence bookkeeping while a collective is in flight."""

    __slots__ = ("op", "nbytes", "span", "phase_spans", "phases_seen",
                 "entered")

    def __init__(self, op: str, nbytes: int, span: Optional[Span]):
        #: ``"?"`` when the first sighting was a phase, not an entry.
        self.op = op
        self.nbytes = nbytes
        self.span = span
        self.phase_spans: Dict[int, Span] = {}
        self.phases_seen: Set[int] = set()
        self.entered = 0


class CollectiveObserver:
    """Tracks collective/phase spans and per-op metrics for one
    communicator."""

    def __init__(self, env: Environment, comm_id: int):
        self.env = env
        self.comm_id = comm_id
        self._states: Dict[int, _CollectiveState] = {}

    def enter(self, seq: int, op: str, nbytes: int, time: float) -> None:
        """One rank entered collective ``seq`` (post-serialization
        fence)."""
        tracer = self.env.tracer
        if tracer is None and self.env.metrics is None:
            return
        state = self._states.get(seq)
        if state is None:
            span = None
            if tracer is not None:
                span = tracer.begin(
                    time, f"{op}", "collective", parent=None,
                    op=op, nbytes=nbytes, seq=seq, comm=self.comm_id)
            state = _CollectiveState(op, nbytes, span)
            self._states[seq] = state
        state.entered += 1

    def phase(self, seq: int, phase: int, time: float) -> Optional[Span]:
        """Register (and return the span of) one algorithm phase.

        Called from both the send and receive sides of collective
        messages; the returned span (or ``None`` when no tracer is
        attached) becomes the parent of the per-message spans.
        """
        tracer = self.env.tracer
        if tracer is None and self.env.metrics is None:
            return None
        state = self._states.get(seq)
        if state is None:
            # A phase observed without enter() means observation was
            # attached mid-collective; track it standalone.
            state = _CollectiveState("?", 0, None)
            self._states[seq] = state
        state.phases_seen.add(phase)
        if tracer is None:
            return None
        span = state.phase_spans.get(phase)
        if span is None:
            span = tracer.begin(
                time, f"{state.op} phase {phase}", "phase",
                parent=state.span, op=state.op, phase=phase, seq=seq,
                comm=self.comm_id)
            # Until a member message completes, the phase is a point.
            span.end = time
            state.phase_spans[phase] = span
        return span

    def complete(self, seq: int, time: float, ranks: int) -> None:
        """All ``ranks`` ranks finished ``seq``: close spans, record
        metrics if every one of their entries was observed."""
        state = self._states.pop(seq, None)
        if state is None:
            return
        tracer = self.env.tracer
        if state.span is not None and tracer is not None:
            tracer.end(state.span, time, phases=len(state.phases_seen))
        metrics = self.env.metrics
        if metrics is not None and state.entered == ranks:
            metrics.counter(f"coll.{state.op}.calls").inc()
            metrics.histogram(f"coll.{state.op}.phases").observe(
                len(state.phases_seen))
