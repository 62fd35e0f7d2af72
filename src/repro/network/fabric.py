"""Dynamic network fabric: routes transfers over contended links.

The fabric applies a *channel-occupancy* approximation of wormhole
routing: a message acquires every link on its route, holds them all for

    hops * hop_latency + nbytes * us_per_byte

and releases them.  The per-byte term is paid once (the worm is
pipelined across hops), while messages whose routes share a link
serialize — which is what produces the network-contention component of
collective times.

Deadlock freedom: links are always acquired in one global canonical
order (their index in ``topology.links()``), so no cyclic wait can
arise regardless of topology or traffic pattern.

Observability: every link accumulates busy/wait time (see
:class:`~repro.network.link.Link`), transfers emit ``link``-category
occupancy spans nested under the message span when a tracer is
attached to the environment, and the fabric feeds transfer/stall
counters and wait/size histograms to the attached metrics registry.  A
booked route and a route acquired hop by hop record the same spans and
metrics, so observing a run never changes which of the two it takes.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from ..sim import Environment, Event, Interrupt, Span
from .link import Link, LinkParameters
from .topology import LinkId, Topology

__all__ = ["NetworkFabric", "TransferAborted"]


class TransferAborted(Exception):
    """A transfer died in the network: its route crossed a link that
    failed mid-flight, or no live route existed when it was issued.
    The resilient transport treats this exactly like a lost message and
    retransmits (possibly over a detour)."""

    def __init__(self, src: int, dst: int, reason: str):
        super().__init__(f"transfer {src}->{dst} aborted: {reason}")
        self.src = src
        self.dst = dst
        self.reason = reason


class NetworkFabric:
    """Routes byte transfers over a :class:`Topology` with contention."""

    def __init__(self, env: Environment, topology: Topology,
                 params: LinkParameters, contention: bool = True,
                 injector: Optional[object] = None):
        self.env = env
        self.topology = topology
        self.params = params
        self.contention = contention
        #: Optional :class:`~repro.faults.FaultInjector`.  ``None`` (the
        #: default, and always the case for fault-free plans) keeps the
        #: transfer hot path identical to the no-faults build.
        self.injector = injector
        self._links: Dict[LinkId, Link] = {}
        self._order: Dict[LinkId, int] = {}
        for index, link_id in enumerate(topology.links()):
            self._links[link_id] = Link(env, link_id, params)
            self._order[link_id] = index
        # The topology's primary routes are static; computing one per
        # transfer (positions/turns math) shows up hard in alltoall.
        # Detours around dead links are computed fresh every time.
        self._route_cache: Dict[Tuple[int, int], List[LinkId]] = {}
        self._links_cache: Dict[Tuple[int, int], List[Link]] = {}

    def _route(self, src: int, dst: int) -> List[LinkId]:
        """The (cached) fault-free route for ``src`` -> ``dst``."""
        key = (src, dst)
        route = self._route_cache.get(key)
        if route is None:
            route = self.topology.route(src, dst)
            self._route_cache[key] = route
        return route

    def route_links(self, src: int, dst: int) -> List[Link]:
        """The links of the fault-free ``src`` -> ``dst`` route in
        canonical acquisition order (cached)."""
        key = (src, dst)
        links = self._links_cache.get(key)
        if links is None:
            links = [self._links[link_id] for link_id in
                     sorted(self._route(src, dst),
                            key=self._order.__getitem__)]
            self._links_cache[key] = links
        return links

    def link(self, link_id: LinkId) -> Link:
        """The :class:`Link` object for ``link_id``."""
        return self._links[link_id]

    def transfer_time(self, src: int, dst: int, nbytes: int) -> float:
        """Uncontended duration of a transfer (the occupancy hold time)."""
        return self.hold_us(self.topology.distance(src, dst), nbytes)

    def _select_route(self, src: int, dst: int
                      ) -> Tuple[List[LinkId], bool]:
        """The route a transfer issued now takes, detouring around any
        dead links, plus whether it is a detour.  Raises
        :class:`TransferAborted` when the live links no longer connect
        the pair."""
        injector = self.injector
        if injector is None:
            return self._route(src, dst), False
        dead = injector.dead_links(self.env.now)
        route = self._route(src, dst)
        if not dead or not any(link in dead for link in route):
            return route, False
        detour = self.topology.reroute(src, dst, dead)
        if detour is None:
            injector.record_unroutable()
            raise TransferAborted(src, dst, "no live route")
        injector.record_reroute()
        return detour, True

    # -- synchronous fast-path booking ------------------------------------
    def try_book_route(self, src: int, dst: int, nbytes: int
                       ) -> Optional[Tuple[float, List[Link]]]:
        """Book every link of an *uncontended* transfer starting now.

        Synchronous counterpart of :meth:`transfer` for the analytic
        short-circuit: only callable with no fault injector attached
        (the caller checks; see :meth:`try_book_faulted_route` for the
        other case), and only succeeds when every link on the
        route is idle at the current instant — any busy or booked link
        books nothing and returns ``None``, forcing the full simulation
        path (which is where contention waits and stall counters live).
        Returns ``(hold, links)``, the links booked (none on a fabric
        without contention); the caller must finish with
        :meth:`commit_route`.  No counters, link statistics or spans are
        touched until commit.
        """
        route = self.route_links(src, dst)
        if not route:
            return 0.0, route
        hold = self.hold_us(len(route), nbytes)
        if not self.contention:
            return hold, []
        return (hold, route) if self._book_links(route, hold) else None

    def try_book_faulted_route(self, src: int, dst: int, nbytes: int
                               ) -> Optional[Tuple[float, List[Link]]]:
        """:meth:`try_book_route` with a fault injector attached.

        The hold stretches by the route's worst degradation now, in the
        float expression :meth:`transfer` uses, so degraded routes book
        bit for bit.  A route that a link outage touches over
        ``[now, now + hold]`` books nothing: there the full path
        detours, or its transfer is aborted mid-flight.
        """
        route = self.route_links(src, dst)
        if not route:
            return 0.0, route
        injector = self.injector
        now = self.env._now
        static = self._route(src, dst)
        factor = injector.route_degrade_factor(static, now)
        hold = len(route) * self.params.hop_latency_us + \
            nbytes * self.params.us_per_byte * factor
        if injector.route_outage(static, now, now + hold):
            return None
        if not self.contention:
            return hold, []
        return (hold, route) if self._book_links(route, hold) else None

    def hold_us(self, hops: int, nbytes: int) -> float:
        """Fault-free occupancy of a ``hops``-link route by ``nbytes``."""
        return hops * self.params.hop_latency_us + \
            nbytes * self.params.us_per_byte

    @staticmethod
    def _book_links(ordered: List[Link], hold: float) -> bool:
        """Book every link in ``ordered`` (canonical order) for ``hold``
        starting now, all or nothing: when any link is busy, booked or
        held, nothing is booked and the answer is ``False``."""
        for link in ordered:
            if not link.resource.idle:
                return False
        for link in ordered:
            link.resource.try_occupy(hold)
        return True

    def commit_route(self, links: List[Link], nbytes: int, hold: float,
                     src: int, dst: int, parent_span: Optional[Span],
                     at: Optional[float] = None) -> None:
        """Commit the ``links`` booked at time ``at`` (default: now):
        link statistics, work counters, metrics and link spans."""
        for link in links:
            link.record(nbytes, busy_us=hold)
        self._held(links, nbytes, hold, src, dst, parent_span,
                   self.env._now if at is None else at)
        work = self.env.work
        if work is not None:
            work.transfers_booked += 1
            work.transfers_completed += 1
            work.transfers_shortcircuited += 1

    def _held(self, links: List[Link], nbytes: int, hold: float,
              src: int, dst: int, parent_span: Optional[Span],
              now: float) -> None:
        """Account a route booked idle at ``now``: one occupancy per
        link, the transfer metrics (it waited for nothing), and one
        ``link`` span per link over ``[now, now + hold]`` — what the
        per-hop protocol records for a transfer that never queued."""
        if not links:
            return
        env = self.env
        work = env.work
        if work is not None:
            work.link_acquisitions += len(links)
            work.resource_occupancies += len(links)
        if env.metrics is not None:
            self._record_transfer(nbytes, 0.0, src, dst, now)
        tracer = env.tracer
        if tracer is not None:
            for link in links:
                tracer.begin(now, f"link {link.link_id}", "link",
                             node=src, parent=parent_span, dst=dst,
                             nbytes=nbytes).end = now + hold

    def _record_transfer(self, nbytes: int, wait: float, src: int,
                         dst: int, now: float) -> None:
        """Transfer metrics and the contention mark of a route acquired
        at ``now``, shared by every path that acquires a route."""
        env = self.env
        metrics = env.metrics
        if metrics is not None:
            metrics.counter("fabric.transfers").inc()
            metrics.histogram("fabric.transfer_bytes").observe(nbytes)
            if wait > 0:
                metrics.counter("fabric.contention_stalls").inc()
                metrics.histogram("fabric.wait_us").observe(wait)
        tracer = env.tracer
        if wait > 0 and tracer is not None:
            tracer.mark(now, "link-contention", src,
                        dst=dst, waited_us=wait, nbytes=nbytes)

    def hop_acquired(self, links: List[Link], nbytes: int, wait: float,
                     src: int, dst: int, parent_span: Optional[Span],
                     now: float) -> List[Span]:
        """Account a route acquired hop by hop, its last link granted at
        ``now`` after the transfer queued ``wait``: the acquisition and
        stall counters, the transfer metrics and contention mark, and
        one open ``link`` span per link (returned; empty when tracing
        is off).  Finish with :meth:`hop_released`."""
        env = self.env
        work = env.work
        if work is not None:
            work.link_acquisitions += len(links)
            if wait > 0:
                work.transfers_stalled += 1
        self._record_transfer(nbytes, wait, src, dst, now)
        tracer = env.tracer
        if tracer is None:
            return []
        return [tracer.begin(now, f"link {link.link_id}", "link",
                             node=src, parent=parent_span, dst=dst,
                             nbytes=nbytes)
                for link in links]

    def hop_released(self, links: List[Link], nbytes: int, hold: float,
                     spans: List[Span], now: float) -> None:
        """Account a route released at ``now`` after its hold: link
        statistics, the completion, and the link ``spans`` still open
        (those :meth:`hop_acquired` opened; none for a booked route)."""
        for link in links:
            link.record(nbytes, busy_us=hold)
        for span in spans:
            self.env.tracer.end(span, now)
        work = self.env.work
        if work is not None:
            work.transfers_completed += 1

    def transfer(self, src: int, dst: int, nbytes: int,
                 parent_span: Optional[Span] = None
                 ) -> Generator[Event, None, None]:
        """Process generator performing one ``src`` -> ``dst`` transfer.

        Yields until the message's tail has left the network.  A
        self-transfer (``src == dst``) completes immediately: it never
        enters the fabric.  ``parent_span`` (the enclosing message
        span) becomes the parent of the per-link occupancy spans.

        With a fault injector attached, the route detours around dead
        links, per-byte time stretches by the worst active degradation
        on the route, and a link dying mid-flight aborts the transfer
        with :class:`TransferAborted` (the injector interrupts this
        process; held links are released first).
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        injector = self.injector
        route, detoured = self._select_route(src, dst)
        work = self.env.work
        if work is not None:
            work.transfers_booked += 1
            if detoured:
                work.transfers_rerouted += 1
        if not route:
            if work is not None:
                work.transfers_completed += 1
            return
        # A detour is fault-recovery work: wrap its link occupancy in a
        # dedicated span so the extra hops are attributable.
        tracer = self.env.tracer
        detour_span: Optional[Span] = None
        if detoured and tracer is not None:
            detour_span = tracer.begin(
                self.env.now, f"reroute {src}->{dst}", "reroute",
                node=src, parent=parent_span, dst=dst, nbytes=nbytes,
                hops=len(route))
            parent_span = detour_span
        factor = 1.0 if injector is None else \
            injector.route_degrade_factor(route, self.env.now)
        hold = len(route) * self.params.hop_latency_us + \
            nbytes * self.params.us_per_byte * factor
        if injector is None:
            yield from self._occupy(route, nbytes, hold, src, dst,
                                    parent_span)
            return
        process = self.env.active_process
        injector.begin_transfer(process, route)
        try:
            yield from self._occupy(route, nbytes, hold, src, dst,
                                    parent_span)
        except Interrupt as interrupt:
            injector.record_abort()
            if work is not None:
                work.transfers_aborted += 1
            raise TransferAborted(src, dst,
                                  f"interrupted: {interrupt.cause}")
        finally:
            injector.end_transfer(process)
            if detour_span is not None:
                tracer.end(detour_span, self.env.now)

    def _occupy(self, route: List[LinkId], nbytes: int, hold: float,
                src: int, dst: int, parent_span: Optional[Span]
                ) -> Generator[Event, None, None]:
        """Acquire the route, hold it, release it.  On an Interrupt
        every acquired (or still queued) request is released before the
        exception propagates, so a dying transfer never wedges a link."""
        work = self.env.work
        if not self.contention:
            yield self.env.sleep(hold)
            if work is not None:
                work.transfers_completed += 1
            return
        ordered = sorted(route, key=self._order.__getitem__)
        links = [self._links[link_id] for link_id in ordered]
        if self.injector is None:
            # Batched booking: with every link on the route idle right
            # now (the common case) the whole multi-hop occupancy is
            # one synchronous booking plus ONE completion event,
            # instead of per-hop request/grant/release churn.  Any
            # busy link falls through to the per-hop protocol below,
            # which is where waiting and stall accounting live.  No
            # injector means no Interrupt can arrive mid-hold, so the
            # bookings never need to be torn down early.
            if self._book_links(links, hold):
                self._held(links, nbytes, hold, src, dst, parent_span,
                           self.env._now)
                yield self.env.sleep(hold)
                self.hop_released(links, nbytes, hold, [], self.env._now)
                return
        requests: List[Event] = []
        occupancy: List[Span] = []
        queued_at = self.env.now
        try:
            for link in links:
                arrived = self.env.now
                request = link.resource.request()
                requests.append(request)
                yield request
                link_wait = self.env.now - arrived
                if link_wait > 0:
                    link.record_wait(link_wait)
            now = self.env.now
            occupancy = self.hop_acquired(links, nbytes, now - queued_at,
                                          src, dst, parent_span, now)
            yield self.env.sleep(hold)
        except Interrupt:
            for link, request in zip(links, requests):
                link.resource.release(request)
            for span in occupancy:
                self.env.tracer.end(span, self.env.now)
            raise
        self.hop_released(links, nbytes, hold, occupancy, self.env.now)
        for link, request in zip(links, requests):
            link.resource.release(request)

    def utilisation(self) -> Dict[LinkId, int]:
        """Bytes carried per link (only meaningful with contention on)."""
        return {link_id: link.bytes_carried
                for link_id, link in self._links.items()
                if link.transfers}
