"""Deterministic fault-injection runtime.

The :class:`FaultInjector` turns a declarative
:class:`~repro.faults.plan.FaultPlan` into runtime behaviour:

* it resolves each link-shaped fault to a concrete link id (the first
  hop of the topology's route between the named nodes);
* it answers point queries from the instrumented layers — dead links,
  degradation factors and outage windows for the fabric, stall delays
  for the NICs, CPU factors for the software-cost path;
* it draws per-message fates (ok / lost / corrupt) from the run's
  seeded ``faults.message`` stream, so the same master seed reproduces
  the same fault sequence;
* it runs one watchdog process per scheduled outage that, at the
  outage's start time, aborts every in-flight transfer crossing the
  dying link via :meth:`~repro.sim.Process.interrupt`.

The injector's own attributes (``messages_lost``, ``reroutes``,
``retransmits``, ...) are the one count of each fault it resolves.  The
attached metrics registry gets only what has no attribute twin:
``faults.nic_stalls``, the ``faults.nic_stall_us`` histogram and
``faults.link_outages``.  An attached tracer gets a mark per loss,
corruption and outage.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Generator, List, Tuple

from ..network.topology import LinkId, Topology
from ..sim import (
    Environment,
    Event,
    Process,
    RandomStreams,
    SimulationError,
)
from .plan import FaultPlan

__all__ = ["MessageFate", "FaultInjector"]

#: Possible outcomes of one wire traversal.
MessageFate = str
FATE_OK: MessageFate = "ok"
FATE_LOST: MessageFate = "lost"
FATE_CORRUPT: MessageFate = "corrupt"

#: Name of the random stream message fates draw from.
MESSAGE_STREAM = "faults.message"


class FaultInjector:
    """Runtime oracle and scheduler for one machine's fault plan."""

    def __init__(self, env: Environment, plan: FaultPlan,
                 streams: RandomStreams, topology: Topology):
        self.env = env
        self.plan = plan
        self.streams = streams
        self.topology = topology
        # Resolve (src, dst) selectors to concrete first-hop link ids.
        self._outages: List[Tuple[LinkId, object]] = [
            (self._first_hop(o.src, o.dst), o)
            for o in plan.link_outages]
        self._degradations: List[Tuple[LinkId, object]] = [
            (self._first_hop(d.src, d.dst), d)
            for d in plan.link_degradations]
        for event in plan.nic_stalls + plan.node_slowdowns:
            if not 0 <= event.node < topology.num_nodes:
                raise ValueError(
                    f"fault references node {event.node}, but the "
                    f"machine has {topology.num_nodes} nodes")
        #: In-flight transfers: process -> links its route crosses.
        self._active: Dict[Process, FrozenSet[LinkId]] = {}
        self.messages_lost = 0
        self.messages_corrupted = 0
        self.transfers_aborted = 0
        self.reroutes = 0
        self.unroutable = 0
        self.retransmits = 0
        self.spurious_retransmits = 0
        self.nic_stall_total_us = 0.0
        for _, outage in self._outages:
            env.process(self._outage_watchdog(outage),
                        name=f"fault-outage-{outage.src}-{outage.dst}")

    def _first_hop(self, src: int, dst: int) -> LinkId:
        if src == dst:
            raise ValueError(f"link fault needs two distinct nodes, "
                             f"got {src} -> {dst}")
        route = self.topology.route(src, dst)
        if not route:
            raise ValueError(f"no route from {src} to {dst} to fault")
        return route[0]

    # -- point queries ------------------------------------------------------
    def dead_links(self, now: float) -> FrozenSet[LinkId]:
        """Links down at ``now`` (empty when no outage is active)."""
        if not self._outages:
            return frozenset()
        return frozenset(link for link, outage in self._outages
                         if outage.active(now))

    def degrade_factor(self, link: LinkId, now: float) -> float:
        """Bandwidth slowdown factor for ``link`` at ``now`` (>= 1)."""
        factor = 1.0
        for faulted, degradation in self._degradations:
            if faulted == link and degradation.active(now):
                factor = max(factor, degradation.factor)
        return factor

    def route_degrade_factor(self, route, now: float) -> float:
        """Worst degradation over a route (the worm drains at the
        slowest link's rate)."""
        if not self._degradations:
            return 1.0
        return max((self.degrade_factor(link, now) for link in route),
                   default=1.0)

    def route_outage(self, route, start: float, end: float) -> bool:
        """Whether an outage touches ``route`` over ``[start, end]``: a
        route link is dead at ``start``, or dies by ``end`` (at ``end``
        itself the watchdog still finds the transfer holding it)."""
        for link, outage in self._outages:
            if outage.start_us <= end and \
                    (outage.end_us is None or start < outage.end_us) and \
                    link in route:
                return True
        return False

    def nic_stall(self, node: int, now: float) -> float:
        """Stall delay a NIC engine grant on ``node`` would suffer at
        ``now``, without recording it."""
        delay = 0.0
        for stall in self.plan.nic_stalls:
            if stall.node == node:
                delay = max(delay, stall.delay_at(now))
        return delay

    def nic_delay(self, node: int, now: float) -> float:
        """Stall delay a NIC engine grant on ``node`` suffers at ``now``,
        recorded as one stall when nonzero."""
        delay = self.nic_stall(node, now)
        if delay > 0:
            self.nic_stall_total_us += delay
            metrics = self.env.metrics
            if metrics is not None:
                metrics.counter("faults.nic_stalls").inc()
                metrics.histogram("faults.nic_stall_us").observe(delay)
        return delay

    def cpu_factor(self, node: int, now: float) -> float:
        """Software-cost multiplier for ``node`` at ``now`` (>= 1)."""
        factor = 1.0
        for slowdown in self.plan.node_slowdowns:
            if slowdown.node == node and slowdown.active(now):
                factor *= slowdown.factor
        return factor

    def message_fate(self, src: int, dst: int) -> MessageFate:
        """Draw the fate of one wire traversal from the seeded stream.

        Fault-free plans never reach the stream, so adding a plan with
        only scheduled faults perturbs no other random draws.
        """
        loss = self.plan.loss_probability
        corrupt = self.plan.corruption_probability
        if loss == 0.0 and corrupt == 0.0:
            return FATE_OK
        draw = self.streams.uniform(MESSAGE_STREAM, 0.0, 1.0)
        if draw < loss:
            self.record_loss(src, dst)
            return FATE_LOST
        if draw < loss + corrupt:
            self.messages_corrupted += 1
            self._mark("fault-corrupt", src, dst)
            return FATE_CORRUPT
        return FATE_OK

    # -- bookkeeping hooks (called by fabric / transport) -------------------
    def record_loss(self, src: int, dst: int) -> None:
        self.messages_lost += 1
        self._mark("fault-loss", src, dst)

    def _mark(self, category: str, src: int, dst: int) -> None:
        """Trace one fault as a zero-length span, if a tracer is
        attached."""
        tracer = self.env.tracer
        if tracer is not None:
            tracer.mark(self.env.now, category, src, dst=dst)

    def record_reroute(self) -> None:
        self.reroutes += 1

    def record_unroutable(self) -> None:
        self.unroutable += 1

    def record_retransmit(self) -> None:
        self.retransmits += 1

    def record_spurious_retransmit(self) -> None:
        self.spurious_retransmits += 1

    def begin_transfer(self, process: Process, route) -> None:
        """Register an in-flight transfer so outages can abort it."""
        self._active[process] = frozenset(route)

    def end_transfer(self, process: Process) -> None:
        self._active.pop(process, None)

    def record_abort(self) -> None:
        self.transfers_aborted += 1

    # -- scheduled processes ------------------------------------------------
    def _outage_watchdog(self, outage) -> Generator[Event, None, None]:
        """Abort transfers crossing the outage's link when it dies."""
        if outage.start_us > self.env.now:
            yield self.env.timeout(outage.start_us - self.env.now)
        link = self._first_hop(outage.src, outage.dst)
        if self.env.metrics is not None:
            self.env.metrics.counter("faults.link_outages").inc()
        self._mark("fault-link-outage", outage.src, outage.dst)
        # Snapshot: interrupts mutate the registry via end_transfer.
        for process, links in list(self._active.items()):
            if link in links and process.is_alive:
                try:
                    process.interrupt(cause=("link-outage", link))
                except SimulationError:
                    # The process finished or is mid-step; the fabric's
                    # own dead-link checks cover it.
                    continue
