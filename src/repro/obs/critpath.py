"""Causal critical-path analysis over captured span traces.

The paper explains *where* each machine loses time by decomposing
measured collective latency into startup and transmission components
(Eq. 1-2, Fig. 4).  This module produces the same kind of answer for
*any* traced run, clean or faulty: it walks the span DAG a
:class:`~repro.sim.Tracer` captured (collective -> phase -> message ->
link, plus the ``retransmit``/``backoff``/``reroute`` fault-recovery
spans) and extracts

* the **causal chain** — the longest dependency path of messages, where
  each message's sender received the data it forwards from the previous
  message on the chain;
* a **per-component attribution** that partitions the collective's full
  extent into ``software`` (rank-local overhead and idle), ``wire``
  (link occupancy), ``contention`` (queueing for busy links), and
  ``fault_recovery`` (wasted transmissions, retransmission backoff,
  detours) — the partition is exact, so the components always sum to
  the collective's total simulated time;
* **per-rank slack** — how long each rank sat idle relative to the
  whole operation.

Only :mod:`repro.sim` is imported here, so the module is safe to
re-export from ``repro.obs`` (the runtime layers it analyses import
that package's leaf modules).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..sim import Span, Tracer

__all__ = [
    "COMPONENTS",
    "FAULT_SPAN_CATEGORIES",
    "PathStep",
    "CriticalPath",
    "critical_path",
    "critpath_rows",
    "write_critpath_csv",
]

#: Attribution components, in report order.
COMPONENTS = ("software", "wire", "contention", "fault_recovery")

#: Span categories whose time is fault-recovery work (wasted
#: transmission attempts, retransmission backoff, detour transfers).
FAULT_SPAN_CATEGORIES = frozenset({"retransmit", "backoff", "reroute"})

#: Causality tolerance: a predecessor must deliver no later than this
#: after its successor starts (float-noise guard, microseconds).
_EPS = 1e-9

#: Overlap resolution: the most specific explanation wins.
_PRIORITY = {"fault_recovery": 3, "contention": 2, "wire": 1}


@dataclass(frozen=True)
class PathStep:
    """One message hop on the critical chain."""

    span_id: int
    name: str
    #: Sending rank (the span's node).
    src: Optional[int]
    #: Receiving rank (from the span detail, when recorded).
    dst: Optional[int]
    start_us: float
    end_us: float
    #: Gap between the previous step's delivery and this send's entry
    #: (rank-local processing; attributed to ``software``).
    gap_us: float
    #: Exact partition of ``[start_us, end_us]`` by component.
    components: Dict[str, float] = field(default_factory=dict)

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    def dominant(self) -> Tuple[str, float]:
        """``(component, fraction)`` of the step's largest component."""
        if self.duration_us <= 0:
            return "software", 0.0
        name = max(COMPONENTS, key=lambda c: self.components.get(c, 0.0))
        return name, self.components.get(name, 0.0) / self.duration_us


@dataclass
class CriticalPath:
    """The longest causal dependency chain of one collective run."""

    op: str
    seq: Optional[int]
    start_us: float
    end_us: float
    steps: List[PathStep]
    #: Exact partition of the collective's extent; sums to
    #: :attr:`total_us` (up to float addition noise far below 1e-9 s).
    components: Dict[str, float]
    #: rank -> idle time (total minus the rank's message activity).
    slack_us: Dict[int, float]
    #: Messages the collective traced in total (chain + off-chain).
    messages: int

    @property
    def total_us(self) -> float:
        return self.end_us - self.start_us

    def component_fraction(self, name: str) -> float:
        if self.total_us <= 0:
            return 0.0
        return self.components.get(name, 0.0) / self.total_us

    def slack_extremes(self) -> Optional[Tuple[Tuple[int, float],
                                               Tuple[int, float]]]:
        """``((rank, min slack), (rank, max slack))`` or ``None``."""
        if not self.slack_us:
            return None
        ranks = sorted(self.slack_us)
        lo = min(ranks, key=lambda r: (self.slack_us[r], r))
        hi = max(ranks, key=lambda r: (self.slack_us[r], -r))
        return (lo, self.slack_us[lo]), (hi, self.slack_us[hi])

    def format(self, top: Optional[int] = None) -> str:
        """ASCII rendering: totals, the chain, and the slack range."""
        lines = [
            f"critical path: {self.op}"
            + (f" seq {self.seq}" if self.seq is not None else "")
            + f" ({self.messages} messages traced, "
              f"{len(self.steps)} on the chain)",
            "total %.1f us = " % self.total_us + " + ".join(
                f"{name.replace('_', '-')} "
                f"{self.components.get(name, 0.0):.1f} "
                f"({self.component_fraction(name):.1%})"
                for name in COMPONENTS),
        ]
        shown = self.steps if top is None else self.steps[:top]
        if shown:
            lines.append(f"{'step':>4}  {'span':<18} "
                         f"{'start us':>12} {'end us':>12} "
                         f"{'dur us':>10} {'gap us':>8}  dominant")
        for index, step in enumerate(shown, start=1):
            name, fraction = step.dominant()
            lines.append(
                f"{index:>4}  {step.name:<18} "
                f"{step.start_us:>12.1f} {step.end_us:>12.1f} "
                f"{step.duration_us:>10.1f} {step.gap_us:>8.1f}  "
                f"{name.replace('_', '-')} {fraction:.0%}")
        if top is not None and len(self.steps) > top:
            lines.append(f"  ... ({len(self.steps) - top} more steps)")
        extremes = self.slack_extremes()
        if extremes is not None:
            (lo_rank, lo), (hi_rank, hi) = extremes
            lines.append(f"per-rank slack: min {lo:.1f} us "
                         f"(rank {lo_rank}), max {hi:.1f} us "
                         f"(rank {hi_rank})")
        return "\n".join(lines)


def _partition(start: float, end: float,
               intervals: List[Tuple[float, float, str]]
               ) -> Dict[str, float]:
    """Partition ``[start, end]`` by component.

    ``intervals`` are candidate ``(s, e, component)`` explanations;
    where several overlap, the highest-priority one wins, and time no
    interval explains is ``software``.  The segments cover the window
    exactly once, which is what makes the attribution sum exact.
    """
    out = {name: 0.0 for name in COMPONENTS}
    if end <= start:
        return out
    clipped = [(max(s, start), min(e, end), component)
               for s, e, component in intervals
               if min(e, end) > max(s, start)]
    bounds = sorted({start, end,
                     *(b for s, e, _ in clipped for b in (s, e))})
    for a, b in zip(bounds, bounds[1:]):
        covering = [component for s, e, component in clipped
                    if s <= a and e >= b]
        if covering:
            component = max(covering, key=_PRIORITY.__getitem__)
        else:
            component = "software"
        out[component] += b - a
    return out


def _message_intervals(message: Span, by_parent: Dict[int, List[Span]],
                       contention: List[Tuple[float, float, int, Any]]
                       ) -> List[Tuple[float, float, str]]:
    """Candidate component intervals inside one message span."""
    close = message.end if message.end is not None else message.start
    intervals: List[Tuple[float, float, str]] = []

    def descend(span: Span) -> None:
        for child in by_parent.get(span.id, ()):
            end = child.end if child.end is not None else close
            if child.category in FAULT_SPAN_CATEGORIES:
                intervals.append((child.start, end, "fault_recovery"))
            elif child.category == "link":
                intervals.append((child.start, end, "wire"))
            descend(child)

    descend(message)
    dst = message.detail.get("dst")
    for time, waited, node, record_dst in contention:
        if node == message.node and record_dst == dst and \
                message.start - _EPS <= time <= close + _EPS:
            intervals.append((time - waited, time, "contention"))
    return intervals


def critical_path(tracer: Tracer,
                  collective: Optional[Span] = None) -> CriticalPath:
    """Extract the causal critical path of one traced collective.

    With several collective spans in the trace (``iterations > 1``),
    the longest one is analysed unless ``collective`` selects another.
    Raises :class:`ValueError` when the trace holds no closed
    collective span (tracing was off, or the ring dropped it).
    """
    spans = tracer.spans()
    if collective is None:
        candidates = [s for s in spans
                      if s.category == "collective" and s.end is not None]
        if not candidates:
            raise ValueError(
                "no closed collective span in the trace; capture with "
                "trace=True and an unbounded (or large enough) span ring")
        collective = max(candidates, key=lambda s: (s.duration, -s.id))
    elif collective.end is None:
        raise ValueError("cannot analyse an open collective span")

    by_parent: Dict[int, List[Span]] = {}
    for span in spans:
        by_parent.setdefault(span.parent, []).append(span)
    phase_ids = {s.id for s in by_parent.get(collective.id, ())
                 if s.category == "phase"}
    messages = [s for s in spans
                if s.category == "message" and s.parent in phase_ids
                and s.end is not None]
    contention = [(s.start, float(s.detail.get("waited_us", 0.0)),
                   s.node, s.detail.get("dst"))
                  for s in tracer.spans("link-contention")
                  if s.detail.get("waited_us", 0.0) > 0]

    # -- chain extraction: walk causality backwards from the last
    #    delivery.  A message's predecessor is the latest message that
    #    delivered to its sender before it was issued.
    chain: List[Span] = []
    if messages:
        current = max(messages, key=lambda m: (m.end, m.id))
        chain.append(current)
        while True:
            predecessors = [m for m in messages
                            if m.detail.get("dst") == current.node
                            and m.end <= current.start + _EPS]
            if not predecessors:
                break
            current = max(predecessors, key=lambda m: (m.end, m.id))
            chain.append(current)
        chain.reverse()

    # -- attribution: partition the collective's whole extent along
    #    the chain; gaps between hops are rank-local software time.
    components = {name: 0.0 for name in COMPONENTS}
    steps: List[PathStep] = []
    cursor = collective.start
    for message in chain:
        step_start = max(message.start, cursor)
        step_end = max(message.end, step_start)
        gap = step_start - cursor
        components["software"] += gap
        parts = _partition(step_start, step_end,
                           _message_intervals(message, by_parent,
                                              contention))
        for name, value in parts.items():
            components[name] += value
        dst = message.detail.get("dst")
        steps.append(PathStep(
            span_id=message.id, name=message.name, src=message.node,
            dst=None if dst is None else int(dst),
            start_us=step_start, end_us=step_end, gap_us=gap,
            components=parts))
        cursor = step_end
    if collective.end > cursor:
        components["software"] += collective.end - cursor

    # -- per-rank slack: idle time relative to the whole operation,
    #    where a rank is busy while a message it sends or receives is
    #    in flight.
    busy_intervals: Dict[int, List[Tuple[float, float]]] = {}
    for message in messages:
        ranks = {message.node, message.detail.get("dst")}
        for rank in ranks:
            if rank is None:
                continue
            busy_intervals.setdefault(int(rank), []).append(
                (message.start, message.end))
    slack: Dict[int, float] = {}
    total = collective.end - collective.start
    for rank, intervals in busy_intervals.items():
        busy = 0.0
        edge = None
        for start, end in sorted(intervals):
            if edge is None or start > edge:
                busy += end - start
                edge = end
            elif end > edge:
                busy += end - edge
                edge = end
        slack[rank] = max(total - busy, 0.0)

    return CriticalPath(
        op=str(collective.detail.get("op", collective.name)),
        seq=collective.detail.get("seq"),
        start_us=collective.start, end_us=collective.end,
        steps=steps, components=components, slack_us=slack,
        messages=len(messages))


def critpath_rows(path: CriticalPath) -> List[Dict[str, Any]]:
    """The chain flattened to CSV-friendly dict rows."""
    rows = []
    for index, step in enumerate(path.steps, start=1):
        row: Dict[str, Any] = {
            "step": index,
            "span_id": step.span_id,
            "name": step.name,
            "src": "" if step.src is None else step.src,
            "dst": "" if step.dst is None else step.dst,
            "start_us": step.start_us,
            "end_us": step.end_us,
            "duration_us": step.duration_us,
            "gap_us": step.gap_us,
        }
        for name in COMPONENTS:
            row[f"{name}_us"] = step.components.get(name, 0.0)
        rows.append(row)
    return rows


def write_critpath_csv(path: CriticalPath, filename: str) -> str:
    """Write the chain (plus a totals row) as CSV; returns the path."""
    rows = critpath_rows(path)
    totals: Dict[str, Any] = {
        "step": "total", "span_id": "", "name": path.op, "src": "",
        "dst": "", "start_us": path.start_us, "end_us": path.end_us,
        "duration_us": path.total_us, "gap_us": "",
    }
    for name in COMPONENTS:
        totals[f"{name}_us"] = path.components.get(name, 0.0)
    fields = ["step", "span_id", "name", "src", "dst", "start_us",
              "end_us", "duration_us", "gap_us"] + \
        [f"{name}_us" for name in COMPONENTS]
    with open(filename, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
        writer.writerow(totals)
    return filename
