"""Point-to-point message transport over the simulated hardware.

The transport turns an abstract ``send(src, dst, nbytes, tag)`` into the
machine's hardware pipeline:

1. **Issue** — the sending CPU pays the kernel's per-send cost (plus
   buffer-management cost for bidirectional/buffered traffic).
2. **Payload move** — the payload is copied through the host memory bus
   (``HOST`` mode) or streamed by a DMA engine (``BLT``/``COPROC``),
   depending on machine policy for the enclosing collective.
3. **Wire** — asynchronously, the NIC transmit engine and the network
   fabric carry the message (concurrently — the adapter streams into
   the fabric), then the destination NIC's receive engine ejects it,
   and after the kernel's dispatch latency the message becomes
   matchable at the destination.
4. **Match** — a posted receive matching ``(src, tag)`` completes;
   otherwise the message joins the unexpected queue and its receiver
   will later pay the unexpected-handling cost plus a copy out of the
   system buffer.

The sender is only blocked for steps 1-2, which is what lets a scatter
root pipeline successive sends at its marginal per-message cost — the
effect behind the O(p) startup terms of Table 3.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Generator, List, Optional, Tuple

from ..faults.injector import FATE_OK, FaultInjector
from ..machines import Machine
from ..network import TransferAborted
from ..node import TransferMode
from ..sim import Event, Resource, Span
from ..sim.resources import WAKE_PENDING
from ..sim.engine import NORMAL
from .errors import DeliveryError, RankError, TruncationError

__all__ = ["Envelope", "PostedReceive", "Transport"]


@dataclass
class Envelope:
    """Metadata of one in-flight or delivered message."""

    src: int
    dst: int
    tag: object
    nbytes: int
    sent_at: float
    delivered_at: Optional[float] = None
    span: Optional[Span] = None
    phase_span: Optional[Span] = None


@dataclass
class PostedReceive:
    """Handle for a posted (possibly not yet matched) receive."""

    event: Event
    src: int
    tag: object
    was_unexpected: bool = False


class Transport:
    """Message matching and hardware pipelines for one machine."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.env = machine.env
        self.spec = machine.spec
        self._posted: List[List[PostedReceive]] = \
            [[] for _ in range(machine.num_nodes)]
        self._unexpected: List[List[Envelope]] = \
            [[] for _ in range(machine.num_nodes)]
        self.messages_delivered = 0
        self.unexpected_arrivals = 0
        #: Per NIC engine, the bookings made behind one whose end is
        #: not placed yet (see :meth:`_follow`), in booking order.
        self._behind: Dict[Resource, Deque[Tuple[float, Optional[
            Tuple[Event, float]]]]] = {}

    # -- validation -------------------------------------------------------
    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.machine.num_nodes:
            raise RankError(rank, self.machine.num_nodes)

    # -- send side ----------------------------------------------------------
    def send(self, src: int, dst: int, nbytes: int, tag: object,
             op: str = "ptp", buffered: bool = False,
             sw_cost_us: Optional[float] = None,
             parent_span: Optional[Span] = None
             ) -> Generator[Event, None, None]:
        """Process generator: issue one message from ``src`` to ``dst``.

        Blocks the caller for the local (CPU + payload move) costs only;
        the wire part proceeds asynchronously.  ``sw_cost_us`` overrides
        the kernel software cost for offloaded paths (the payload move
        is then skipped too — the offload engine's cost is included in
        the override).  ``parent_span`` (normally the collective phase
        span) becomes the parent of this message's trace span.
        """
        self._check_rank(src)
        self._check_rank(dst)
        yield from self._send(src, dst, nbytes, tag, op, buffered,
                              sw_cost_us, parent_span)

    def _send(self, src: int, dst: int, nbytes: int, tag: object,
              op: str = "ptp", buffered: bool = False,
              sw_cost_us: Optional[float] = None,
              parent_span: Optional[Span] = None
              ) -> Generator[Event, None, None]:
        """:meth:`send` for ranks the caller has already validated."""
        if nbytes < 0:
            raise ValueError(f"negative message size {nbytes}")
        span = self.record_send(src, dst, nbytes, op, parent_span,
                                self.env._now)
        software = self.spec.software
        node = self.machine.nodes[src]
        mode = node.payload_mode(self.spec.uses_dma_for(op), nbytes)
        if sw_cost_us is not None:
            yield self.env.sleep(sw_cost_us * self.machine.jitter(src))
        else:
            cost = software.send_msg_us
            if buffered:
                cost += software.buffered_msg_us
            yield self.env.sleep(cost * self.machine.jitter(src))
            if nbytes > 0:
                if mode is TransferMode.HOST:
                    # An unbuffered send streams straight from the user
                    # buffer (eager/rendezvous direct path); a buffered
                    # (bidirectional-traffic) send stages through system
                    # buffers — in and back out — on the memory bus.
                    if buffered:
                        yield from node.memory.copy(2 * nbytes)
                else:
                    assert node.dma is not None
                    yield from node.dma.stream(nbytes)
        fast = mode is not TransferMode.HOST
        envelope = Envelope(src=src, dst=dst, tag=tag, nbytes=nbytes,
                            sent_at=self.env._now, span=span,
                            phase_span=parent_span)
        if not self._wire_fast(envelope, op, fast):
            self.env.process(self._wire(envelope, op, fast),
                             name=f"wire-{src}-{dst}")

    def record_send(self, src: int, dst: int, nbytes: int, op: str,
                    parent_span: Optional[Span],
                    now: float) -> Optional[Span]:
        """Account one message issued at ``now``: the work counter, the
        send metrics, and its trace span (returned; ``None`` when
        tracing is off)."""
        work = self.env.work
        if work is not None:
            work.messages_sent += 1
        metrics = self.env.metrics
        if metrics is not None:
            metrics.counter("mpi.messages_sent").inc()
            metrics.histogram("mpi.message_bytes").observe(nbytes)
        tracer = self.env.tracer
        if tracer is None:
            return None
        return tracer.begin(now, f"msg {src}->{dst}", "message", node=src,
                            parent=parent_span, dst=dst, nbytes=nbytes,
                            op=op)

    # -- analytic short-circuit -------------------------------------------
    def _wire_fast(self, envelope: Envelope, op: str, fast: bool) -> bool:
        """Try to carry one message analytically, without wire processes.

        Eligibility is checked explicitly, per message.  The machine's
        ``fast_wire`` switch must be on; under a fault plan
        :meth:`_wire_faulted` decides instead (and always carries the
        message itself).  Tracing and metrics play no part: the engine
        and route commits record the same spans and metrics the full
        pipeline would, so an observed run executes the same events as
        an unobserved one.  Even then the message only takes this path
        when the transmit engine, every route link *at this instant*,
        and the receive engine can all be timestamp-booked — any
        contention rolls the bookings back and returns ``False``, and
        the caller runs the full wire pipeline.

        When it succeeds, the wire end is the max of the three booked
        leg ends — exactly when ``all_of`` over the three concurrent
        leg processes would have fired — and two plain events replace
        the four processes and their resource protocol: a *landing*
        event at the wire end (where the delivery jitter is drawn, at
        the same simulated time as the full path draws it) and a
        *deliver* event after the kernel dispatch latency.
        """
        machine = self.machine
        if not machine.fast_wire:
            return False
        if machine.injector is not None:
            self._wire_faulted(envelope, op, fast, machine.injector)
            return True
        src, dst, nbytes = envelope.src, envelope.dst, envelope.nbytes
        env = self.env
        src_node = machine.nodes[src]
        dst_node = machine.nodes[dst]
        # The transmit and receive engines are booked first: the leg
        # processes of the full path occupy them from this instant
        # independently of the fabric, and — on the SP2, whose
        # half-duplex adapter shares one engine — transmit before
        # receive, the full path's leg spawn order.  The engines and
        # the route links are disjoint resources, so booking both
        # engines before trying the route preserves every per-resource
        # FIFO order.
        tx = src_node.nic.try_book_transmit(nbytes, fast=fast)
        if tx is None:
            return False
        fast_rx = dst_node.payload_mode(self.spec.uses_dma_for(op),
                                        nbytes) is not TransferMode.HOST
        rx = dst_node.nic.try_book_receive(nbytes, fast=fast_rx)
        if rx is None:
            tx[1].undo_occupy(tx[2])
            return False
        src_node.nic.record_transmit()
        src_node.nic.observe_transmit(nbytes, fast, tx[3])
        dst_node.nic.record_receive()
        dst_node.nic.observe_receive(nbytes, fast_rx, rx[3])
        routed = machine.fabric.try_book_route(src, dst, nbytes)
        if routed is None:
            # Route contended: the engine bookings stand (the full
            # path's engine legs run concurrently with the fabric leg
            # anyway) and only the fabric part is simulated, by a lean
            # process that queues in the link FIFOs like any other.
            env.process(self._wire_contended(envelope, tx[0], rx[0]))
            return True
        hold, links = routed
        machine.fabric.record_route(links, nbytes, hold)
        machine.fabric.observe_route(links, nbytes, hold, src, dst,
                                     envelope.span)
        now = env._now
        wire_end = tx[0]
        if now + hold > wire_end:
            wire_end = now + hold
        if rx[0] > wire_end:
            wire_end = rx[0]
        landing = Event(env)
        landing._ok = True
        landing._value = envelope
        landing.callbacks.append(self._wire_fast_landed)
        env._schedule(landing, wire_end, NORMAL)
        return True

    def _wire_faulted(self, envelope: Envelope, op: str, fast: bool,
                      injector: FaultInjector) -> None:
        """Carry one message under a fault plan: analytically when no
        fault touches it (:meth:`_carry_faulted`), else by the full
        pipeline.

        The fate is drawn first, at the send instant: the wire process
        would draw it when it starts, and that start is an urgent event
        at this same instant, so the ``faults.message`` stream is drawn
        in the same order either way.  A refused ``ok`` fate, like a
        ``lost`` or ``corrupt`` one, becomes the first attempt's fate
        of :meth:`_wire`.
        """
        fate = injector.message_fate(envelope.src, envelope.dst)
        if fate != FATE_OK or \
                not self._carry_faulted(envelope, op, fast, injector):
            self.env.process(self._wire(envelope, op, fast, fate),
                             name=f"wire-{envelope.src}-{envelope.dst}")

    def _carry_faulted(self, envelope: Envelope, op: str, fast: bool,
                       injector: FaultInjector) -> bool:
        """The analytic wire for one ``ok`` message under a fault plan.

        On top of :meth:`_wire_fast`'s bookings, neither engine booking
        may start in a NIC stall, and no link outage may touch the
        route while the message is in the network (see
        :meth:`NetworkFabric.try_book_faulted_route`).  A busy route
        keeps the engine bookings and queues on the links
        (:meth:`_wire_contended_faulted`) only when the plan has no
        outages: then nothing can abort the queued transfer.  Any
        refusal rolls the bookings back and returns ``False``.

        The full path holds its engines and links by request here, so
        each booked leg's release and end take the places among
        same-time events the request protocol would give them
        (:meth:`_reserve_ends`, :meth:`_follow`), and the landing
        (:meth:`_wire_faulted_landed`) fires in the place of the leg
        that ends the wire.
        """
        env = self.env
        # The full path acquires a route hop by hop, in successive
        # same-time events: another event due now could start a
        # transfer that takes a later link of this route first (a
        # wire starts after its send's software cost, which ends in an
        # event).  Without software jitter every rank's events tie, and
        # a request made at the instant a booking ends would be granted
        # before the release the full path runs then.
        if env.peek() <= env._now or self.spec.software.jitter_sigma <= 0:
            return False
        machine = self.machine
        src, dst, nbytes = envelope.src, envelope.dst, envelope.nbytes
        src_nic = machine.nodes[src].nic
        dst_node = machine.nodes[dst]
        tx = src_nic.try_book_transmit(nbytes, fast=fast)
        if tx is None:
            return False
        fast_rx = dst_node.payload_mode(self.spec.uses_dma_for(op),
                                        nbytes) is not TransferMode.HOST
        rx = dst_node.nic.try_book_receive(nbytes, fast=fast_rx)
        if rx is None:
            tx[1].undo_occupy(tx[2])
            return False
        # An engine booked behind another booking is granted, on the
        # full path, only when that one ends (see :meth:`_follow`); one
        # such engine per message is placed.
        now = env._now
        routed = None if tx[3] > now < rx[3] else \
            machine.fabric.try_book_faulted_route(src, dst, nbytes)
        if routed is None and (tx[3] > now < rx[3] or
                               injector.plan.link_outages):
            rx[1].undo_occupy(rx[2])
            tx[1].undo_occupy(tx[2])
            return False
        src_nic.record_transmit()
        src_nic.observe_transmit(nbytes, fast, tx[3])
        dst_node.nic.record_receive()
        dst_node.nic.observe_receive(nbytes, fast_rx, rx[3])
        later = tx if tx[3] > now else rx if rx[3] > now else None
        legs = [(booking[0], (booking[1],)) for booking in (tx, rx)
                if booking is not later]
        ended = Event(env)
        ended._ok = True
        if routed is not None:
            hold, links = routed
            machine.fabric.record_route(links, nbytes, hold)
            machine.fabric.observe_route(links, nbytes, hold, src, dst,
                                         envelope.span)
            # The order the full path schedules its leg ends in: a
            # route without links is held from the carry leg's start, a
            # one-hop route is granted in the same round as the
            # engines (after transmit, before receive), a longer one a
            # round per hop later.
            legs.insert(0 if not links else len(legs) if len(links) > 1
                        else int(later is not tx),
                        (now + hold, [link.resource for link in links]))
            ended._value = envelope
            ended.callbacks.append(self._wire_faulted_landed)
        wire_end, ticket = self._reserve_ends(legs)
        if later is None:
            env._schedule_ticket(ended, wire_end, ticket)
        elif later[0] >= wire_end:
            # The later-granted engine ends the wire.
            wire_end = later[0]
            self._follow(later[1], later[3], (ended, wire_end))
        else:
            self._follow(later[1], later[3], None)
            env._schedule_ticket(ended, wire_end, ticket)
        if routed is None:
            env.process(self._wire_contended_faulted(envelope, wire_end,
                                                     ended))
        return True

    def _reserve_ends(self, legs) -> Tuple[float, int]:
        """Reserve the places among same-time events where the full
        path ends each booked leg: per leg, in the order the full path
        schedules their ends, one event id for each resource the leg
        releases (its wakeup grants a request queued meanwhile) and one
        for the leg's end.  Returns the wire end and the end's event id
        of the leg that ends the wire (the later-scheduled on a tie)."""
        env = self.env
        wire_end, last = float("-inf"), 0
        for end, resources in legs:
            for resource in resources:
                resource.wake_ticket = env.ticket()
            ticket = env.ticket()
            if end >= wire_end:
                wire_end, last = end, ticket
        return wire_end, last

    def _follow(self, engine: Resource, start: float,
                ended: Optional[Tuple[Event, float]]) -> None:
        """Place a booking made behind another on ``engine``.

        The full path queues its request and is granted the engine one
        same-time event after the booking ahead releases it, at
        ``start``; only then does it schedule its own end.  A relay
        event in the place of that release (:meth:`_follow_released`)
        and one for the grant (:meth:`_follow_granted`) find that place.
        Until then the booking's wakeup waits (:data:`WAKE_PENDING`),
        and so does a booking made behind this one.  When this leg ends
        the wire, ``ended`` is the event that ends it and the wire end,
        and the grant schedules it in the leg's place.
        """
        ahead = engine.wake_ticket
        engine.wake_ticket = WAKE_PENDING
        if ahead == WAKE_PENDING:
            self._behind.setdefault(engine, deque()).append(
                (start, ended))
            return
        relay = Event(self.env)
        relay._ok = True
        relay._value = engine, ended
        relay.callbacks.append(self._follow_released)
        self.env._schedule_ticket(relay, start, ahead)

    def _follow_released(self, event: Event) -> None:
        env = self.env
        # The grant is the next event anyway when no other is due now.
        if env.peek() > env._now:
            self._follow_granted(event)
            return
        grant = Event(env)
        grant._ok = True
        grant._value = event._value
        grant.callbacks.append(self._follow_granted)
        env._schedule(grant, env._now, NORMAL)

    def _follow_granted(self, event: Event) -> None:
        engine, ended = event._value
        env = self.env
        release, end = env.ticket(), env.ticket()
        behind = self._behind.get(engine)
        if behind:
            start, next_ended = behind.popleft()
            engine.wake_ticket = release
            self._follow(engine, start, next_ended)
        else:
            engine.place_wakeup(release)
        if ended is not None:
            env._schedule_ticket(ended[0], ended[1], end)

    def _wire_contended(self, envelope: Envelope, tx_end: float,
                        rx_end: float) -> Generator[Event, None, None]:
        """Wire pipeline for a short-circuit-eligible message whose
        route was busy: the engine ends are already booked/known, the
        fabric transfer is simulated (waiting in link queues), and the
        wire ends when the slowest of the three is done — exactly when
        the full path's ``all_of`` over the legs would have fired."""
        env = self.env
        # The full path's engine legs schedule their ends as it starts;
        # the wait for them, if the fabric finishes first, keeps that
        # place among same-time events.
        ticket = env.ticket()
        yield from self.machine.fabric.transfer(
            envelope.src, envelope.dst, envelope.nbytes,
            parent_span=envelope.span)
        wire_end = tx_end if tx_end > rx_end else rx_end
        if wire_end > env._now:
            yield env.sleep_until(wire_end, ticket)
        yield env.sleep(self.spec.software.deliver_us *
                        self.machine.jitter(envelope.dst))
        self._delivered(envelope)

    def _wire_contended_faulted(self, envelope: Envelope, wire_end: float,
                                ended: Event) -> Generator[Event, None, None]:
        """:meth:`_wire_contended` under a fault plan without outages.

        The engines end by ``wire_end``, where ``ended`` fires in the
        place of the later one (see :meth:`_reserve_ends`).  After it
        and the fabric, the full path's attempt checks the ack, then
        draws the delivery jitter, as :meth:`_wire_faulted_landed`
        does.
        """
        env = self.env
        yield from self.machine.fabric.transfer(
            envelope.src, envelope.dst, envelope.nbytes,
            parent_span=envelope.span)
        if wire_end > env._now:
            yield ended
        self._check_ack(self.machine.injector, envelope.src, envelope.dst,
                        env._now - envelope.sent_at, 0)
        yield env.sleep(self.spec.software.deliver_us *
                        self.machine.jitter(envelope.dst))
        self._delivered(envelope)

    def _check_ack(self, injector: FaultInjector, src: int, dst: int,
                   wire_us: float, attempt: int) -> None:
        """A delivered attempt: if its wire time plus the ack's return
        exceeded the attempt's RTO, the real protocol would have
        retransmitted needlessly — count it (nothing is re-run)."""
        retry = injector.plan.retry
        ack_us = self.machine.fabric.transfer_time(dst, src, retry.ack_bytes)
        if wire_us + ack_us > retry.timeout_for_attempt(attempt):
            injector.record_spurious_retransmit()

    def _wire_fast_landed(self, event: Event) -> None:
        """The message's tail has left the network: draw the delivery
        jitter (at the same simulated time the full path draws it) and
        schedule the actual delivery."""
        envelope = event._value
        env = self.env
        deliver = Event(env)
        deliver._ok = True
        deliver._value = envelope
        deliver.callbacks.append(self._deliver_fast)
        delay = self.spec.software.deliver_us * \
            self.machine.jitter(envelope.dst)
        env._schedule(deliver, env._now + delay, NORMAL)

    def _wire_faulted_landed(self, event: Event) -> None:
        """:meth:`_wire_fast_landed` under a fault plan, for the event
        in the place where the leg that ends the wire ends: the full
        path's attempt checks the ack, then draws the delivery jitter."""
        envelope = event._value
        self._check_ack(self.machine.injector, envelope.src, envelope.dst,
                        self.env._now - envelope.sent_at, 0)
        self._wire_fast_landed(event)

    def _deliver_fast(self, event: Event) -> None:
        self._delivered(event._value)

    def _delivered(self, envelope: Envelope) -> None:
        """The wire is done, on whichever path carried the message:
        hand it to matching."""
        envelope.delivered_at = self.env._now
        self._deliver(envelope)

    def _wire(self, envelope: Envelope, op: str, fast: bool,
              fate: Optional[str] = None) -> Generator[Event, None, None]:
        """The simulated wire pipeline, as an ack/timeout/retransmit
        attempt loop.

        Transmit engine, wormhole transfer, and receive engine all
        stream the same bytes cut-through: they overlap in time, and an
        attempt ends once the slowest leg finishes.  Each engine is
        still a FIFO resource, so back-to-back messages through one NIC
        or link serialize.

        Without a fault injector there is exactly one attempt, its fate
        is ``"ok"``, and no stream draw is made.  With one, each attempt
        draws a fate from the plan's seeded stream; a ``fate`` already
        drawn for this message is its first attempt's.  A lost,
        corrupted, or aborted attempt delivers nothing: the sender
        learns of the failure only when the attempt's retransmission
        timeout (exponential backoff, bounded) expires, then
        retransmits — possibly over a detour if a link died meanwhile.
        After ``max_retries`` retransmissions the message fails with
        :class:`DeliveryError`.
        """
        env = self.env
        machine = self.machine
        src, dst, nbytes, span = envelope.src, envelope.dst, \
            envelope.nbytes, envelope.span
        injector = machine.injector
        src_node = machine.nodes[src]
        dst_node = machine.nodes[dst]
        # The destination drains at DMA speed when its policy offloads
        # this collective's payloads (e.g. the Paragon coprocessor).
        fast_rx = dst_node.payload_mode(self.spec.uses_dma_for(op),
                                        nbytes) is not TransferMode.HOST
        attempts = 1 if injector is None else \
            injector.plan.retry.max_retries + 1
        for attempt in range(attempts):
            started = env.now
            if injector is None:
                fate = FATE_OK
            elif attempt or fate is None:
                fate = injector.message_fate(src, dst)
            aborted: List[TransferAborted] = []
            carry = machine.fabric.transfer(src, dst, nbytes,
                                            parent_span=span)
            if injector is not None:
                carry = self._catch_abort(carry, aborted)
            yield env.all_of([
                env.process(src_node.nic.transmit(nbytes, fast=fast)),
                env.process(carry, name="transfer"),
                env.process(dst_node.nic.receive(nbytes, fast=fast_rx)),
            ])
            if injector is None:
                break
            retry = injector.plan.retry
            wire_us = env.now - started
            rto = retry.timeout_for_attempt(attempt)
            if not aborted and fate == FATE_OK:
                self._check_ack(injector, src, dst, wire_us, attempt)
                break
            # Failed attempt: the fate is only known now, so the
            # recovery span is opened retroactively over the wasted
            # wire time (the tracer accepts past start times).
            tracer = env.tracer
            if tracer is not None:
                reason = "aborted" if aborted else fate
                doomed = tracer.begin(started, f"retransmit {src}->{dst}",
                                      "retransmit", node=src, parent=span,
                                      dst=dst, attempt=attempt,
                                      reason=reason)
                tracer.end(doomed, env.now)
            # No ack will come, so the sender sits out the rest of the
            # RTO before trying again.
            if rto > wire_us:
                sitout = None
                if tracer is not None:
                    sitout = tracer.begin(env.now, f"backoff {src}->{dst}",
                                          "backoff", node=src, parent=span,
                                          dst=dst, attempt=attempt,
                                          rto_us=rto)
                yield env.sleep(rto - wire_us)
                if sitout is not None:
                    tracer.end(sitout, env.now)
            if attempt + 1 < attempts:
                injector.record_retransmit()
                if env.work is not None:
                    env.work.retransmissions += 1
        else:
            raise DeliveryError(src, dst, envelope.tag, attempts)
        yield env.sleep(
            self.spec.software.deliver_us * machine.jitter(dst))
        self._delivered(envelope)

    @staticmethod
    def _catch_abort(transfer: Generator[Event, None, None],
                     aborted: List[TransferAborted]
                     ) -> Generator[Event, None, None]:
        """Run a fabric transfer leg, recording an abort in ``aborted``
        instead of failing the leg: a failed leg would fire the
        attempt's ``all_of`` before the engine legs finish."""
        try:
            yield from transfer
        except TransferAborted as failure:
            aborted.append(failure)

    def _deliver(self, envelope: Envelope) -> None:
        posted = self._posted[envelope.dst]
        for index, receive in enumerate(posted):
            if receive.src == envelope.src and receive.tag == envelope.tag:
                del posted[index]
                receive.was_unexpected = False
                receive.event.succeed(envelope)
                self.messages_delivered += 1
                self.record_delivery(envelope, False)
                return
        self._unexpected[envelope.dst].append(envelope)
        self.unexpected_arrivals += 1
        self.record_delivery(envelope, True)

    def record_delivery(self, envelope: Envelope, unexpected: bool) -> None:
        """Observe one message handed to matching at
        ``envelope.delivered_at``: close its span, stretch its phase,
        count it, and mark it when no receive was posted for it.  The
        transport's own counts are kept by matching.

        Every delivered message passes through here exactly once,
        whichever path carried it; an evaluated episode's messages only
        while an observer is attached (see
        :meth:`EpisodeEvaluator._commit
        <repro.mpi.episode.EpisodeEvaluator._commit>`).
        """
        now = envelope.delivered_at
        env = self.env
        tracer = env.tracer
        if tracer is not None:
            if envelope.span is not None:
                tracer.end(envelope.span, now)
            if envelope.phase_span is not None:
                # The phase lasts until its last member message lands.
                tracer.extend(envelope.phase_span, now)
        work = env.work
        if work is not None:
            work.messages_delivered += 1
        metrics = env.metrics
        if metrics is not None:
            metrics.counter("mpi.messages_delivered").inc()
            metrics.histogram("mpi.delivery_latency_us").observe(
                now - envelope.sent_at)
        if unexpected:
            if metrics is not None:
                metrics.counter("mpi.unexpected_arrivals").inc()
            if tracer is not None:
                tracer.mark(now, "unexpected-message", envelope.dst,
                            src=envelope.src, tag=envelope.tag)

    # -- receive side ---------------------------------------------------------
    def post_receive(self, rank: int, src: int,
                     tag: object) -> PostedReceive:
        """Post a receive for ``(src, tag)``; returns a waitable handle."""
        self._check_rank(rank)
        self._check_rank(src)
        return self._post(rank, src, tag)

    def _post(self, rank: int, src: int, tag: object) -> PostedReceive:
        """:meth:`post_receive` for ranks the caller has already
        validated."""
        unexpected = self._unexpected[rank]
        for index, envelope in enumerate(unexpected):
            if envelope.src == src and envelope.tag == tag:
                del unexpected[index]
                receive = PostedReceive(self.env.event(), src, tag,
                                        was_unexpected=True)
                receive.event.succeed(envelope)
                self.messages_delivered += 1
                return receive
        receive = PostedReceive(self.env.event(), src, tag)
        self._posted[rank].append(receive)
        return receive

    def complete_receive(self, rank: int, receive: PostedReceive,
                         op: str = "ptp", buffered: bool = False,
                         sw_cost_us: Optional[float] = None,
                         expected_nbytes: Optional[int] = None
                         ) -> Generator[Event, None, Envelope]:
        """Process generator: wait for and retire a posted receive.

        ``expected_nbytes`` is the receive buffer size: a matched
        message larger than it raises :class:`TruncationError`, MPI's
        ``MPI_ERR_TRUNCATE`` (``None`` skips the check — the buffer is
        assumed to fit, as inside collectives).
        """
        envelope = yield receive.event
        if expected_nbytes is not None and \
                envelope.nbytes > expected_nbytes:
            raise TruncationError(expected_nbytes, envelope.nbytes,
                                  envelope.src, rank)
        software = self.spec.software
        node = self.machine.nodes[rank]
        if sw_cost_us is not None:
            yield self.env.sleep(sw_cost_us * self.machine.jitter(rank))
            return envelope
        cost = software.recv_msg_us
        if buffered:
            cost += software.buffered_msg_us
        if receive.was_unexpected:
            cost += software.unexpected_us
        yield self.env.sleep(cost * self.machine.jitter(rank))
        if envelope.nbytes > 0:
            # Eager protocol: a message that found its receive posted
            # was deposited straight into the user buffer; an
            # unexpected one landed in a system buffer and the host
            # copies it out.  Buffered (bidirectional) traffic always
            # stages through system buffers, in and out.  DMA-offloaded
            # collectives place data directly in every case.
            mode = node.payload_mode(self.spec.uses_dma_for(op),
                                     envelope.nbytes)
            if mode is TransferMode.HOST:
                copies = 0
                if buffered:
                    copies = 2
                elif receive.was_unexpected:
                    copies = 1
                if copies:
                    yield from node.memory.copy(copies * envelope.nbytes)
        return envelope

    # -- introspection ---------------------------------------------------------
    def pending_unexpected(self, rank: int) -> int:
        """Messages waiting unmatched at ``rank`` (test/diagnostic aid)."""
        return len(self._unexpected[rank])

    def pending_posted(self, rank: int) -> int:
        """Receives posted but unmatched at ``rank``."""
        return len(self._posted[rank])
