"""Observability layer: metrics, spans, profiling, and exporters.

This package is the cross-cutting measurement substrate the paper's
methodology calls for at simulator scale: span-based tracing nests
collective -> phase -> message -> link occupancy
(:mod:`repro.sim.trace` holds the span primitives; this package the
aggregation and export), a :class:`MetricsRegistry` collects counters
and histograms from the network, node, and MPI layers (both attached
to the simulation environment as ``env.tracer``/``env.metrics``), and a
:class:`HostProfile` attributes the simulator's own host time to its
source files from outside the program.

Import note: the runtime layers (``network``, ``node``, ``mpi``)
import the leaf modules here, so this ``__init__`` must only pull in
modules with no ``repro`` dependencies beyond :mod:`repro.sim`.  The
high-level :mod:`repro.obs.capture` helper and the
:mod:`repro.obs.drift` auditor (which needs the model layer) are
deliberately *not* re-exported; import them explicitly::

    from repro.obs.capture import capture_collective
    from repro.obs.drift import audit_artifact
"""

from .critpath import (
    COMPONENTS,
    CriticalPath,
    PathStep,
    critical_path,
    critpath_rows,
    write_critpath_csv,
)
from .export import (
    chrome_trace_document,
    chrome_trace_events,
    spans_to_rows,
    write_chrome_trace,
    write_folded_stacks,
    write_profile_csv,
    write_spans_csv,
)
from .metrics import Counter, Histogram, MetricsRegistry
from .perf import WORK_COUNTERS, WorkMeter
from .profiler import HostProfile
from .report import format_utilization_report, link_stats
from .spans import CollectiveObserver

__all__ = [
    "COMPONENTS",
    "CollectiveObserver",
    "Counter",
    "CriticalPath",
    "Histogram",
    "HostProfile",
    "MetricsRegistry",
    "PathStep",
    "WORK_COUNTERS",
    "WorkMeter",
    "chrome_trace_document",
    "chrome_trace_events",
    "critical_path",
    "critpath_rows",
    "format_utilization_report",
    "link_stats",
    "spans_to_rows",
    "write_chrome_trace",
    "write_critpath_csv",
    "write_folded_stacks",
    "write_profile_csv",
    "write_spans_csv",
]
