"""Trace exporters: Chrome-trace/Perfetto JSON and CSV.

The Chrome trace event format (``chrome://tracing`` / ui.perfetto.dev)
wants complete events ``{"ph": "X", "ts", "dur", ...}`` with times in
microseconds — conveniently the simulator's native unit, so simulated
timestamps are exported verbatim.  Spans carry their ``id``/``parent``
ids in ``args`` so tooling can rebuild the collective -> phase ->
message -> link nesting exactly.

Tracks (``tid``) are assigned per node; spans with no node (the
aggregate collective/phase envelopes) go on track 0.

Track/pid assignment is explicitly deterministic, so two exports of
the same traced run — in one process or across processes — produce
byte-identical documents:

* everything lives in ``pid`` 0 (one simulator process);
* ``tid`` is a pure function of the span's node: ``0`` for node-less
  aggregate spans, ``node + 1`` otherwise — never an enumeration
  order;
* all ``thread_name`` metadata events are emitted up front in
  ascending ``tid`` order (one per track that carries spans), before
  any ``X`` event;
* span events follow in the tracer's own deterministic order (monotone
  start times from the simulated clock).  Point-in-time marks
  (contention stalls, faults) are zero-length spans like any other.
"""

from __future__ import annotations

import csv
import json
from typing import Any, Dict, List

from ..sim import Tracer

__all__ = [
    "chrome_trace_events",
    "chrome_trace_document",
    "write_chrome_trace",
    "spans_to_rows",
    "write_spans_csv",
    "write_profile_csv",
    "write_folded_stacks",
]

#: Track id offset for per-node tracks (track 0 holds the aggregate
#: collective/phase spans).
_NODE_TRACK_BASE = 1


def _track(node: Any) -> int:
    return 0 if node is None else _NODE_TRACK_BASE + int(node)


def chrome_trace_events(tracer: Tracer) -> List[Dict[str, Any]]:
    """Spans as Chrome trace-event dicts."""
    events: List[Dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": 0,
         "args": {"name": "simulator"}},
        {"ph": "M", "name": "thread_name", "pid": 0, "tid": 0,
         "args": {"name": "collectives"}},
    ]
    # All track names up front, in ascending tid order (not first-seen
    # span order), so the metadata block is a deterministic function of
    # the set of span tracks alone.
    span_tracks = sorted({_track(span.node) for span in tracer.spans()}
                         - {0})
    for tid in span_tracks:
        events.append({"ph": "M", "name": "thread_name", "pid": 0,
                       "tid": tid,
                       "args": {"name":
                                f"node {tid - _NODE_TRACK_BASE}"}})
    for span in tracer.spans():
        tid = _track(span.node)
        args = dict(span.detail)
        args["id"] = span.id
        if span.parent:
            args["parent"] = span.parent
        end = span.start if span.end is None else span.end
        events.append({
            "ph": "X", "name": span.name, "cat": span.category,
            "ts": span.start, "dur": end - span.start,
            "pid": 0, "tid": tid, "args": args,
        })
    return events


def chrome_trace_document(tracer: Tracer) -> Dict[str, Any]:
    """The full JSON-object form of the trace."""
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {
            "spans": len(tracer.spans()),
            "dropped": tracer.dropped,
        },
    }


def write_chrome_trace(tracer: Tracer, path: str) -> str:
    """Write the trace as Chrome/Perfetto JSON; returns ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace_document(tracer), handle)
    return path


def spans_to_rows(tracer: Tracer) -> List[Dict[str, Any]]:
    """Spans flattened to CSV-friendly dict rows."""
    rows = []
    for span in tracer.spans():
        rows.append({
            "id": span.id,
            "parent": span.parent,
            "category": span.category,
            "name": span.name,
            "node": "" if span.node is None else span.node,
            "start_us": span.start,
            "end_us": "" if span.end is None else span.end,
            "duration_us": span.duration,
            "detail": json.dumps(span.detail, sort_keys=True,
                                 default=str),
        })
    return rows


def write_spans_csv(tracer: Tracer, path: str) -> str:
    """Write all spans to ``path`` as CSV; returns ``path``."""
    rows = spans_to_rows(tracer)
    fields = ["id", "parent", "category", "name", "node", "start_us",
              "end_us", "duration_us", "detail"]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    return path


def write_profile_csv(profile, path: str) -> str:
    """Write a :class:`~repro.obs.HostProfile`'s module ranking to
    ``path`` as ``module,calls,self_s`` CSV rows."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["module", "calls", "self_s"])
        writer.writerows(profile.modules())
    return path


def write_folded_stacks(profile, path: str) -> str:
    """Write a :class:`~repro.obs.HostProfile`'s collapsed stacks to
    ``path`` — the input format of ``flamegraph.pl`` and speedscope."""
    lines = profile.folded_lines()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))
        if lines:
            handle.write("\n")
    return path
