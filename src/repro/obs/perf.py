"""Deterministic work metering for the simulator's own hot paths.

Wall-clock profiles (:class:`~repro.obs.HostProfile`) answer *where
the host's time goes*, but their numbers change every run.  The
:class:`WorkMeter` counts the *work itself* — events scheduled and
fired, heap traffic, resource grants, transfers booked,
retransmissions — as plain integers that depend only on the simulated
workload, never on the host.  Two runs of the same workload produce
identical counters on any machine, which is what lets the
``BENCH_engine.json`` trajectory byte-compare its ``work`` section the
way the sweep baseline byte-compares cell times (see
:mod:`repro.bench.perfsuite`).

A meter is attached to the environment it counts, by the rule the
tracer (``env.tracer``) and the metrics registry (``env.metrics``)
follow too: ``env.work`` is ``None`` by default and every instrumented
site guards its update with ``is not None``, so an unmetered run pays
one branch per site::

    from repro.obs.perf import WorkMeter

    meter = WorkMeter()
    env.work = meter          # attach (detach with env.work = None)
    ...run...
    print(meter.format_report())
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

__all__ = ["WORK_COUNTERS", "WorkMeter"]

#: Every counter a :class:`WorkMeter` maintains, grouped by the
#: subsystem that increments it.  The tuple is the schema of the
#: ``work`` section of ``BENCH_engine.json``: adding a counter extends
#: every future artifact, so keep names stable.
WORK_COUNTERS: Tuple[str, ...] = (
    # -- engine (repro.sim.engine) -------------------------------------
    "events_scheduled",      # Environment._schedule calls
    "events_fired",          # events popped and processed by step()
    "callbacks_dispatched",  # callback invocations across all events
    "heap_pushes",           # pushes into the pending-event heap
    "heap_pops",             # pops off the pending-event heap
    "heap_peak",             # high-water mark of metered queue depth
                             # (pushes minus pops while attached)
    "interrupts",            # Process.interrupt deliveries
    # -- resources (repro.sim.resources) -------------------------------
    "resource_requests",       # Resource.request calls
    "resource_grants",         # requests granted (immediately or later)
    "resource_releases",       # grants returned
    "resource_cancellations",  # requests released before being granted
    "resource_occupancies",    # synchronous try_occupy bookings taken
    # -- fabric (repro.network.fabric) ----------------------------------
    "transfers_booked",      # transfers entering the fabric
    "transfers_completed",   # transfers whose tail left the network
    "transfers_aborted",     # transfers killed by a mid-flight fault
    "transfers_stalled",     # transfers that queued behind a busy link
    "transfers_rerouted",    # transfers detoured around dead links
    "transfers_shortcircuited",  # transfers booked on the analytic fast path
    "link_acquisitions",     # individual link grants across all routes
    # -- transport (repro.mpi.transport) --------------------------------
    "messages_sent",         # Transport.send calls issued
    "messages_delivered",    # envelopes handed to the matching layer
    "retransmissions",       # wire attempts re-sent after a failure
    # -- episodes (repro.mpi.episode) -----------------------------------
    "episodes_evaluated",    # collective calls replayed off the engine
    "episodes_aborted",      # replays refused, handed back to the engine
)


class WorkMeter:
    """Deterministic integer counters of the engine's work.

    Counters are plain attributes incremented inline by the
    instrumented layers (no dict lookups on the hot path); the class
    itself holds no wall-clock state, so its snapshot is byte-stable
    across runs, processes, and hosts.
    """

    __slots__ = WORK_COUNTERS

    def __init__(self) -> None:
        for name in WORK_COUNTERS:
            setattr(self, name, 0)

    def reset(self) -> None:
        """Zero every counter (reuse one meter across workloads)."""
        for name in WORK_COUNTERS:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        """All counters as a name-sorted plain dict (JSON-ready)."""
        return {name: int(getattr(self, name))
                for name in sorted(WORK_COUNTERS)}

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(self.snapshot().items())

    def total(self) -> int:
        """Sum of all counters (a crude single work number)."""
        return sum(getattr(self, name) for name in WORK_COUNTERS)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorkMeter):
            return NotImplemented
        return self.snapshot() == other.snapshot()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<WorkMeter events={self.events_fired} "
                f"total={self.total()}>")

    def format_report(self) -> str:
        """Human-readable dump of the non-zero counters."""
        lines = ["work counters:"]
        populated = [(name, getattr(self, name))
                     for name in sorted(WORK_COUNTERS)
                     if getattr(self, name)]
        if not populated:
            lines.append("  (no work recorded)")
        for name, value in populated:
            lines.append(f"  {name:<24s} {value}")
        return "\n".join(lines)
