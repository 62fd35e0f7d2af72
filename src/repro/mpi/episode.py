"""Whole-collective short-circuit: fenced collective calls
("episodes") evaluated off the event loop.

The paper times a collective as ``k`` back-to-back calls, and the
communicator's completion fence (:mod:`repro.mpi.communicator`) makes
every call but the first start with all ranks released at one instant.
When, in addition, the engine has nothing else pending and every rank
follows the call with the next fence (a :meth:`RankContext.repeat
<repro.mpi.context.RankContext.repeat>` iteration other than the last)
or with nothing at all (the last call of :meth:`RankContext.time_block
<repro.mpi.context.RankContext.time_block>`), the call cannot interact
with anything else: the :class:`EpisodeEvaluator` then runs it in a
private event heap instead of the engine's.

A ``repeat`` iteration is evaluated on its own, and its ranks resume
on the engine at their finish times.  The paper's timing block hands
the evaluator all of its calls at once: from the first eligible fenced
call on, the evaluator *folds* the block, replaying and committing the
warm-up's last call, the barrier and every timed call one after
another.  Each next call is released at the previous one's last finish
time, its ranks enter in the previous one's completion order, and
their entry costs are drawn at the point of each node's ``sw.<i>``
stream the engine would draw them at.  The ranks resume once, at their
finish of the last folded call.  A call that cannot be evaluated (the
T3D barrier wire, a composite, an abort) ends the fold before it draws
anything: the ranks resume at their finish of the previous call, the
engine runs that call, and the next fenced call may start a new fold.

Exactness comes from mirroring, not from a closed form.  The private
heap schedules, one for one and in the same order, the events the
engine would schedule for the call on the transport's per-message
short-circuit: each rank's entry timeout, its send sleeps, DMA streams
and buffered-send copies, the wire's landing and delivery,
receive-event firings (or the urgent passthrough when a rank waits on
an already fired one), receive sleeps and copies, combine and delay
timeouts.  A message whose route finds a link busy takes the
transport's contended wire (``Transport._wire_contended``) there too:
its process-start entry, then the fabric's per-hop link protocol --
requests in canonical link order, immediate grants, FIFO queues behind
a holder or a booking with the booking-expiry wakeup, the hold and the
releases that grant the next waiter -- then the wait for the NIC
engines, which keeps the place in the tie order the transport reserves
for it when the process starts, and the delivery.  Ties break on
``(time, priority, insertion order)`` as in the engine, every time is
computed by the same floating-point expression, and jitter is peeked
from the same per-node ``sw.<i>`` streams in the same per-node order,
so every result is bit-identical to the engine's.

The replay is exact or it aborts.  A resource already held through the
request protocol when the episode first uses it, or a message or
receive left unmatched at the end, aborts it with no side effect: the
ranks take their entry timeouts exactly as they would have, and the
shape is not tried again on this communicator.  A successful replay is
committed at once: the jitter draws are consumed, every resource's
booking horizon is set, and every message, queued transfer and copy is
accounted, in the engine's order, through the same helpers the
short-circuit and the fabric's per-hop path use (counters, link
statistics, metrics, spans).  In a fold, a call is closed at its last
finish time, as the last rank's completion report would have closed
it, once the next call's replay has succeeded.  Each rank is then
scheduled to resume at its own finish time of the last evaluated call,
in completion order.

Algorithms are recorded once per ``(algorithm, root, nbytes)`` per
communicator by running their generators against a recording context
that exposes only ``rank``, ``size``, ``coll_send``, ``coll_post``,
``coll_wait``, ``coll_recv``, ``combine``, ``delay`` and the machine's
name and software constants as ``comm.spec``, read at record time.
Sends and receives may be ``buffered=`` or carry an offloaded
``sw_cost_us=``.  Touching anything else (the hardware barrier, the
machine, another algorithm looked up through the spec, ...) leaves the
algorithm to the engine.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from types import SimpleNamespace
from typing import (TYPE_CHECKING, Callable, Deque, Dict, List, Optional,
                    Set, Tuple)

from ..node import TransferMode
from ..sim import Event
from ..sim.engine import NORMAL, URGENT
from .context import call_setup_us
from .transport import Envelope

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..machines import MachineSpec
    from .communicator import Communicator

__all__ = ["EpisodeEvaluator", "record"]

#: Operation codes of a recorded rank schedule.
_SEND, _POST, _WAIT, _SLEEP = range(4)

#: Private heap entry kinds.
(_RESUME, _LAND, _DELIVER, _FIRE, _START, _GRANT, _WAKE,
 _RELEASE) = range(8)

#: Rank states: what the rank does when its next event fires.
(_ENTERING, _RUNNING, _SENT, _STREAMED, _RECEIVING,
 _RECEIVED) = range(6)

#: Receive-event states: untriggered, scheduled, fired.
_PENDING, _SCHEDULED, _FIRED = range(3)

#: Commit log entries: a message entered the wire, a queued transfer
#: acquired its last link, a queued transfer released its route.
_WIRED, _ACQUIRED, _RELEASED = range(3)


class _Unrecordable(Exception):
    """The algorithm used something a recorded schedule cannot hold."""


class _Abort(Exception):
    """The replay met a resource held through the request protocol."""


# -- recording ------------------------------------------------------------

class _Handle:
    """A receive posted while recording: its index among the rank's
    posts."""

    __slots__ = ("owner", "index", "waited")

    def __init__(self, owner: "_Recorder", index: int):
        self.owner = owner
        self.index = index
        self.waited = False


class _Recorder:
    """Stands in for a rank's context while its algorithm's generator
    runs once, listing the rank's operations."""

    __slots__ = ("rank", "size", "comm", "ops", "_seq", "_posts")

    def __init__(self, rank: int, size: int, seq: int,
                 comm: SimpleNamespace):
        self.rank = rank
        self.size = size
        self.comm = comm
        self.ops: List[tuple] = []
        self._seq = seq
        self._posts = 0

    def __getattr__(self, name: str):
        raise _Unrecordable(name)

    def _check(self, seq: int, peer: int) -> None:
        if seq != self._seq or not 0 <= peer < self.size:
            raise _Unrecordable(f"peer {peer} of seq {seq}")

    def coll_send(self, seq: int, phase: int, dst: int, nbytes: int,
                  op: str, buffered: bool = False,
                  sw_cost_us: Optional[float] = None, **kwargs):
        if kwargs or nbytes < 0:
            raise _Unrecordable("send options")
        self._check(seq, dst)
        self.ops.append((_SEND, dst, nbytes, op, phase, buffered,
                         sw_cost_us))
        return ()

    def coll_post(self, seq: int, phase: int, src: int) -> _Handle:
        self._check(seq, src)
        self.ops.append((_POST, src, phase))
        self._posts += 1
        return _Handle(self, self._posts - 1)

    def coll_wait(self, receive: _Handle, op: str, buffered: bool = False,
                  sw_cost_us: Optional[float] = None, **kwargs):
        if kwargs or not isinstance(receive, _Handle) or \
                receive.owner is not self or receive.waited:
            raise _Unrecordable("receive options")
        receive.waited = True
        self.ops.append((_WAIT, receive.index, op, buffered, sw_cost_us))
        return ()

    def coll_recv(self, seq: int, phase: int, src: int, op: str,
                  **kwargs):
        return self.coll_wait(self.coll_post(seq, phase, src), op,
                              **kwargs)

    def combine(self, nbytes: int):
        software = self.comm.spec.software
        return self.delay(software.reduce_round_us +
                          nbytes * software.reduce_us_per_byte)

    def delay(self, base_us: float):
        self.ops.append((_SLEEP, base_us))
        return ()


def record(algorithm: Callable, size: int, seq: int, nbytes: int,
           root: int, spec: "MachineSpec") -> Optional[List[List[tuple]]]:
    """Each rank's operation list for one call of ``algorithm`` on a
    ``spec`` machine, or ``None`` when the algorithm is not recordable.

    Any exception while recording means the algorithm needs something
    the recording context lacks (an envelope, the machine, ...): the
    engine then runs it and raises whatever it raises for real.
    """
    # The constants an algorithm may read; not the spec itself, whose
    # decision table would let a composite resolve other algorithms.
    comm = SimpleNamespace(spec=SimpleNamespace(name=spec.name,
                                                software=spec.software))
    schedule = []
    for rank in range(size):
        recorder = _Recorder(rank, size, seq, comm)
        try:
            for _ in algorithm(recorder, seq, nbytes, root):
                return None  # it waits on an engine event of its own
        except Exception:
            return None
        schedule.append(recorder.ops)
    return schedule


# -- the compiled schedule ---------------------------------------------------

class _Schedule:
    """A recorded algorithm compiled for one communicator: per rank,
    its operations with every machine constant resolved, and how many
    jitter draws a complete replay makes on its node, without and with
    the draw of the entry cost."""

    __slots__ = ("ops", "draws", "entered_draws")

    def __init__(self, ops: List[List[tuple]], draws: List[int]):
        self.ops = ops
        self.draws = draws
        self.entered_draws = [count + 1 for count in draws]


class _Send:
    """A recorded send with every per-message constant resolved."""

    __slots__ = ("dst", "nbytes", "op", "phase", "cost", "dma", "dma_us",
                 "bus", "copy", "copy_us", "fast", "tx", "tx_us",
                 "fast_rx", "rx", "rx_us", "route", "links", "hold",
                 "src_nic", "dst_nic")


class _Message:
    """One message of a replayed episode: when its send was issued,
    when it asked for and got the DMA engine, when it entered the wire
    and got the two NIC engines, and when it was delivered.  A message
    whose route was busy also keeps its walk through the per-hop link
    protocol: when it queued, which hop it is requesting since when,
    the links it waited for, and when it got its last link and
    released the route."""

    __slots__ = ("src", "send", "issued", "dma_asked", "dma_start",
                 "sent_at", "tx_start", "rx_start", "delivered_at",
                 "unexpected", "queued_at", "hop", "arrived", "waits",
                 "granted_at", "released_at", "span", "link_spans",
                 "ticket")

    def __init__(self, src: int, send: _Send, issued: float):
        self.src = src
        self.send = send
        self.issued = issued
        self.unexpected = False
        self.queued_at: Optional[float] = None


class _Receive:
    """One posted receive of a replayed episode."""

    __slots__ = ("rank", "src", "phase", "state", "waiting", "message",
                 "unexpected", "wait")

    def __init__(self, rank: int, src: int, phase: int):
        self.rank = rank
        self.src = src
        self.phase = phase
        self.state = _PENDING
        self.waiting = False
        self.message: Optional[_Message] = None
        self.unexpected = False


class _Lane:
    """The private request-protocol state of one route link: the
    message holding its grant and the FIFO of messages waiting."""

    __slots__ = ("resource", "holder", "waiting")

    def __init__(self, resource):
        self.resource = resource
        self.holder: Optional[_Message] = None
        self.waiting: Deque[_Message] = deque()


class _Outcome:
    """Everything a successful replay hands to the commit."""

    __slots__ = ("entered", "finished", "log", "copies", "phases",
                 "horizons")


class EpisodeEvaluator:
    """Decides, replays and commits the episodes of one communicator.

    Every rank of a fenced collective call registers here after its
    fence (:meth:`register`); the last registration decides whether the
    call is evaluated.  The per-shape caches live here, per
    communicator, so a monkeypatched algorithm never leaks across
    worlds.
    """

    def __init__(self, comm: "Communicator"):
        self.comm = comm
        self._pending: List[tuple] = []
        #: (algorithm, root, nbytes) -> compiled schedule.
        self._schedules: Dict[tuple, _Schedule] = {}
        #: Shapes never to try again: unrecordable, or aborted once.
        self._refused: Set[tuple] = set()

    # -- eligibility ------------------------------------------------------
    def register(self, rank: int, seq: int, cost: float, shape: tuple,
                 rest: Optional[tuple]) -> Optional[Event]:
        """Register ``rank``'s entry into collective ``seq``, an
        ``(op, algorithm, root, nbytes)`` call whose entry costs
        ``cost``; ``rest`` is ``None`` when the rank may do anything
        after the call, else the shapes of the calls it makes next,
        back to back, with nothing after them.

        Returns ``None`` when the call cannot be an episode (the rank
        then takes its entry timeout itself), or the event the rank
        waits on instead: fired with ``()`` at the end of its entry
        cost when the engine is to run the call, or at its finish time
        of the last call evaluated, with its finish time of each call
        evaluated from this one on.  Eligibility reads state only,
        never the tracer, metrics or work meter.
        """
        comm = self.comm
        machine = comm.machine
        if comm.fence_waiters(seq - 1) != comm.size or \
                machine.injector is not None or not machine.fast_wire:
            return None
        gate = machine.env.event()
        # Every rank waited on the fence that released this one, so all
        # register in this same dispatch, back to back: deferring the
        # entry timeouts to the last registration schedules them in the
        # order and at the times the ranks would have.
        self._pending.append((rank, cost, gate, shape, rest))
        if len(self._pending) == comm.size:
            self._decide(seq)
        return gate

    def _decide(self, seq: int) -> None:
        pending, self._pending = self._pending, []
        env = self.comm.machine.env
        _, _, _, shape, rest = pending[0]
        folded = None
        if env.peek() == float("inf") and rest is not None and \
                all(entry[3] == shape and entry[4] == rest
                    for entry in pending):
            folded = self._fold(seq, pending, (shape,) + rest)
        if folded is None:
            now = env.now
            for _, cost, gate, _, _ in pending:
                gate.succeed_at(now + cost, ())
            return
        order, finishes = folded
        gates = {entry[0]: entry[2] for entry in pending}
        for rank, finish in order:
            gates[rank].succeed_at(finish, tuple(finishes[rank]))

    def _fold(self, seq: int, pending: List[tuple], calls: tuple
              ) -> Optional[Tuple[List[Tuple[int, float]],
                                  List[List[float]]]]:
        """Evaluate ``calls[0]`` (collective ``seq``), then each next
        call from the state the previous one committed, until one
        cannot be evaluated or the calls run out.

        Each next call is released at the previous one's last finish,
        its ranks register in the previous one's completion order, and
        their entry costs are drawn at that point of each node's
        ``sw.<i>`` stream.  Returns the last evaluated call's
        completion order and every rank's finish time of each evaluated
        call, or ``None`` when the engine is to run ``calls[0]``.
        """
        comm = self.comm
        order = [entry[0] for entry in pending]
        costs: Optional[List[float]] = [entry[1] for entry in pending]
        start = comm.machine.env.now
        finishes: List[List[float]] = [[] for _ in range(comm.size)]
        finished = None
        for index, shape in enumerate(calls):
            replayed = self._replay_call(shape, seq + index, order, costs,
                                         start)
            if replayed is None:
                break
            if index:
                # The ranks resume only after the last evaluated call, so
                # the ones before it are closed here, each before the
                # next call's entries.
                comm.completed(seq + index - 1, start)
            outcome, draws = replayed
            self._commit(outcome, draws, costs is None, seq + index, shape)
            finished = outcome.finished
            for rank, finish in finished:
                finishes[rank].append(finish)
            order = [rank for rank, _ in finished]
            costs = None
            start = finished[-1][1]
        if finished is None:
            return None
        return finished, finishes

    def _replay_call(self, shape: tuple, seq: int, order: List[int],
                     costs: Optional[List[float]], start: float
                     ) -> Optional[Tuple[_Outcome, List[int]]]:
        """Replay collective ``seq`` of ``shape``, whose ranks enter in
        ``order`` at ``start`` plus their entry ``costs`` (``None``:
        drawn in the replay); return the outcome and the jitter draws it
        made per rank, or ``None`` to leave the call to the engine."""
        op, algorithm, root, nbytes = shape
        key = (algorithm, root, nbytes)
        if key in self._refused:
            return None
        schedule = self._schedules.get(key)
        if schedule is None:
            recorded = record(algorithm, self.comm.size, seq, nbytes, root,
                              self.comm.spec)
            if recorded is None:
                self._refused.add(key)
                return None
            schedule = self._schedules[key] = self._compile(recorded)
        draws = schedule.draws if costs is not None else \
            schedule.entered_draws
        try:
            outcome = self._replay(schedule, draws, order, costs, start,
                                   op, nbytes)
        except _Abort:
            outcome = None
        if outcome is None:
            self._refused.add(key)
            work = self.comm.machine.env.work
            if work is not None:
                work.episodes_aborted += 1
            return None
        return outcome, draws

    # -- compiling a recorded schedule --------------------------------------
    def _compile(self, recorded: List[List[tuple]]) -> _Schedule:
        """Resolve every machine constant of a recorded schedule once:
        nodes, engines, costs, durations, route links and hold times,
        each computed by the expression the engine path computes it
        with.

        A replay draws jitter once per send on the sender (its software
        cost), once per message on the receiver (its delivery latency),
        once per wait (the receive cost) and once per combine or
        delay."""
        comm = self.comm
        machine = comm.machine
        spec = machine.spec
        fabric = machine.fabric
        software = spec.software
        nodes = [machine.nodes[node] for node in comm.world_ranks]
        compiled = []
        draws = [len(ops) - sum(entry[0] == _POST for entry in ops)
                 for ops in recorded]
        for rank, ops in enumerate(recorded):
            src_node = nodes[rank]
            out = []
            for entry in ops:
                kind = entry[0]
                if kind == _SEND:
                    _, dst, nbytes, op, phase, buffered, sw_cost = entry
                    draws[dst] += 1
                    dst_node = nodes[dst]
                    prefer_dma = spec.uses_dma_for(op)
                    send = _Send()
                    send.dst, send.nbytes, send.op, send.phase = \
                        dst, nbytes, op, phase
                    send.fast = src_node.payload_mode(
                        prefer_dma, nbytes) is not TransferMode.HOST
                    # An offloaded send is its cost alone: no payload
                    # move, no copy.  Otherwise the payload streams
                    # through the DMA engine, or a buffered one is staged
                    # through system buffers on the memory bus.
                    moves = sw_cost is None and nbytes > 0
                    if sw_cost is not None:
                        send.cost = sw_cost
                    else:
                        send.cost = software.send_msg_us
                        if buffered:
                            send.cost += software.buffered_msg_us
                    send.dma = src_node.dma \
                        if moves and send.fast else None
                    send.dma_us = 0.0 if send.dma is None \
                        else send.dma.duration_us(nbytes)
                    memory = src_node.memory
                    send.bus = memory.bus
                    send.copy = 2 * nbytes \
                        if moves and buffered and not send.fast else 0
                    send.copy_us = send.copy * memory.copy_us_per_byte
                    send.src_nic = src_node.nic
                    send.tx = src_node.nic.tx_engine
                    send.tx_us = src_node.nic.occupancy_us(nbytes,
                                                           send.fast)
                    send.fast_rx = dst_node.payload_mode(
                        prefer_dma, nbytes) is not TransferMode.HOST
                    send.dst_nic = dst_node.nic
                    send.rx = dst_node.nic.rx_engine
                    send.rx_us = dst_node.nic.occupancy_us(nbytes,
                                                           send.fast_rx)
                    route = fabric.route_links(src_node.index,
                                               dst_node.index)
                    send.hold = fabric.hold_us(len(route), nbytes) \
                        if route else 0.0
                    send.route = route if fabric.contention else []
                    send.links = [link.resource for link in send.route]
                    out.append((_SEND, send))
                elif kind == _WAIT:
                    # The receive cost and how many times the payload is
                    # copied, for a message found posted and for an
                    # unexpected one: an offloaded receive is its cost
                    # alone, buffered traffic stages through system
                    # buffers in and out, and an unexpected message is
                    # copied out once.
                    _, index, op, buffered, sw_cost = entry
                    if sw_cost is not None:
                        costs = (sw_cost, sw_cost)
                        copies = (0, 0)
                    else:
                        cost = software.recv_msg_us
                        if buffered:
                            cost += software.buffered_msg_us
                        costs = (cost, cost + software.unexpected_us)
                        copies = (2, 2) if buffered else (0, 1)
                    out.append((_WAIT, index, spec.uses_dma_for(op), costs,
                                copies))
                else:
                    out.append(entry)
            compiled.append(out)
        return _Schedule(compiled, draws)

    # -- the private heap ---------------------------------------------------
    def _replay(self, compiled: _Schedule, draws: List[int],
                order: List[int], costs: Optional[List[float]],
                start: float, op: str, nbytes: int) -> Optional[_Outcome]:
        """Run the episode in a private heap mirroring the engine's:
        the ranks enter in ``order``, each at ``start`` plus its entry
        cost, given in ``costs`` or, when ``None``, drawn here as the
        rank's first of its ``draws`` jitter factors, plus the
        first-touch penalty of the call's working set.

        Raises :class:`_Abort` (or returns ``None`` for an episode that
        does not finish cleanly) without touching any shared state.
        """
        comm = self.comm
        machine = comm.machine
        software = machine.spec.software
        deliver_us = software.deliver_us
        world_ranks = comm.world_ranks
        nodes = [machine.nodes[node] for node in world_ranks]
        schedule = compiled.ops
        size = len(schedule)
        # Each rank's jitter factors, in the order its node draws them.
        draw = [iter(machine.peek_jitter(world_ranks[rank], count)).__next__
                for rank, count in enumerate(draws)]
        if costs is None:
            setup = call_setup_us(software, op)
            working_set = (op, nbytes)
            costs = [setup * draw[rank]() +
                     nodes[rank].memory.first_touch_cost(working_set,
                                                         nbytes)
                     for rank in order]

        heap: List[tuple] = []
        tick = itertools.count().__next__
        horizons: Dict[object, float] = {}
        lanes: Dict[object, _Lane] = {}
        pc = [0] * size
        state = [_ENTERING] * size
        current: List[object] = [None] * size
        posts: List[List[_Receive]] = [[] for _ in range(size)]
        posted: List[List[_Receive]] = [[] for _ in range(size)]
        unexpected: List[List[_Message]] = [[] for _ in range(size)]
        entered: List[Tuple[int, float]] = []
        finished: List[Tuple[int, float]] = []
        log: List[Tuple[int, _Message]] = []
        copies: List[Tuple[int, int, float]] = []
        phases: List[Tuple[float, int]] = []

        def first_use(resource) -> float:
            """A resource's booking horizon when the replay first uses
            it: the machine's, unless it is held through the protocol."""
            if resource._users or resource._waiting:
                raise _Abort("resource held through the protocol")
            busy = horizons[resource] = resource._busy_until
            return busy

        def book(resource, duration: float, now: float) -> float:
            busy = horizons.get(resource)
            if busy is None:
                busy = first_use(resource)
            begin = busy if busy > now else now
            horizons[resource] = begin + duration
            return begin

        def wire(message: _Message, now: float) -> None:
            send = message.send
            message.sent_at = now
            message.tx_start = tx_start = book(send.tx, send.tx_us, now)
            message.rx_start = rx_start = book(send.rx, send.rx_us, now)
            log.append((_WIRED, message))
            links = send.links
            for resource in links:
                busy = horizons.get(resource)
                if busy is None:
                    busy = first_use(resource)
                lane = lanes.get(resource) if lanes else None
                if busy > now or lane is not None and \
                        (lane.holder is not None or lane.waiting):
                    # Route contended: the engine bookings stand and the
                    # contended wire process starts, urgent, at this
                    # instant.
                    message.queued_at = now
                    heappush(heap, (now, URGENT, tick(), _START, message))
                    return
            hold = send.hold
            for resource in links:
                horizons[resource] = now + hold
            end = tx_start + send.tx_us
            if now + hold > end:
                end = now + hold
            rx_end = rx_start + send.rx_us
            if rx_end > end:
                end = rx_end
            heappush(heap, (end, NORMAL, tick(), _LAND, message))

        def request(message: _Message, now: float) -> None:
            """``Resource.request`` for the message's current hop."""
            resource = message.send.links[message.hop]
            message.arrived = now
            lane = lanes.get(resource)
            if lane is None:
                lane = lanes[resource] = _Lane(resource)
            if lane.holder is not None:
                lane.waiting.append(message)
                return
            busy = horizons.get(resource)
            if busy is None:
                busy = first_use(resource)
            if busy > now:
                # Queued behind a booking, whose expiry wakeup plays the
                # holder's release; one wakeup per queue.
                if not lane.waiting:
                    heappush(heap, (busy, NORMAL, tick(), _WAKE, lane))
                lane.waiting.append(message)
                return
            lane.holder = message
            heappush(heap, (now, NORMAL, tick(), _GRANT, message))

        def grant(lane: _Lane, now: float) -> None:
            message = lane.waiting.popleft()
            lane.holder = message
            heappush(heap, (now, NORMAL, tick(), _GRANT, message))

        def run(rank: int, now: float) -> None:
            """Advance ``rank`` at ``now`` until it waits again."""
            step = state[rank]
            if step == _SENT:
                message = current[rank]
                send = message.send
                if send.dma is not None:
                    message.dma_asked = now
                    begin = book(send.dma.engine, send.dma_us, now)
                    message.dma_start = begin
                    state[rank] = _STREAMED
                    heappush(heap, (begin + send.dma_us, NORMAL, tick(),
                                    _RESUME, rank))
                    return
                if send.copy:
                    begin = book(send.bus, send.copy_us, now)
                    copies.append((rank, send.copy, begin - now))
                    state[rank] = _STREAMED
                    heappush(heap, (begin + send.copy_us, NORMAL, tick(),
                                    _RESUME, rank))
                    return
                wire(message, now)
            elif step == _STREAMED:
                wire(current[rank], now)
            elif step == _RECEIVING:
                receive = current[rank]
                cost = receive.wait[3][receive.unexpected]
                state[rank] = _RECEIVED
                heappush(heap, (now + cost * draw[rank](), NORMAL, tick(),
                                _RESUME, rank))
                return
            elif step == _RECEIVED:
                receive = current[rank]
                wait = receive.wait
                count = wait[4][receive.unexpected]
                nbytes = receive.message.send.nbytes
                if count and nbytes > 0 and \
                        nodes[rank].payload_mode(wait[2], nbytes) \
                        is TransferMode.HOST:
                    memory = nodes[rank].memory
                    nbytes *= count
                    duration = nbytes * memory.copy_us_per_byte
                    begin = book(memory.bus, duration, now)
                    copies.append((rank, nbytes, begin - now))
                    state[rank] = _RUNNING
                    heappush(heap, (begin + duration, NORMAL, tick(),
                                    _RESUME, rank))
                    return
            elif step == _ENTERING:
                entered.append((rank, now))
            ops = schedule[rank]
            index = pc[rank]
            while index < len(ops):
                entry = ops[index]
                index += 1
                kind = entry[0]
                if kind == _SEND:
                    send = entry[1]
                    phases.append((now, send.phase))
                    current[rank] = _Message(rank, send, now)
                    state[rank] = _SENT
                    pc[rank] = index
                    heappush(heap, (now + send.cost * draw[rank](), NORMAL,
                                    tick(), _RESUME, rank))
                    return
                if kind == _POST:
                    _, src, phase = entry
                    phases.append((now, phase))
                    receive = _Receive(rank, src, phase)
                    posts[rank].append(receive)
                    queue = unexpected[rank]
                    for position, message in enumerate(queue):
                        if message.src == src and \
                                message.send.phase == phase:
                            del queue[position]
                            receive.message = message
                            receive.unexpected = True
                            receive.state = _SCHEDULED
                            heappush(heap, (now, NORMAL, tick(), _FIRE,
                                            receive))
                            break
                    else:
                        posted[rank].append(receive)
                    continue
                if kind == _WAIT:
                    receive = posts[rank][entry[1]]
                    receive.wait = entry
                    current[rank] = receive
                    state[rank] = _RECEIVING
                    pc[rank] = index
                    if receive.state == _FIRED:
                        heappush(heap, (now, URGENT, tick(), _RESUME,
                                        rank))
                    else:
                        receive.waiting = True
                    return
                state[rank] = _RUNNING
                pc[rank] = index
                heappush(heap, (now + entry[1] * draw[rank](), NORMAL,
                                tick(), _RESUME, rank))
                return
            pc[rank] = index
            finished.append((rank, now))

        for rank, cost in zip(order, costs):
            heappush(heap, (start + cost, NORMAL, tick(), _RESUME, rank))
        while heap:
            now, _, _, kind, item = heappop(heap)
            if kind == _RESUME:
                run(item, now)
            elif kind == _LAND:
                heappush(heap, (now + deliver_us * draw[item.send.dst](),
                                NORMAL, tick(), _DELIVER, item))
            elif kind == _DELIVER:
                item.delivered_at = now
                dst = item.send.dst
                queue = posted[dst]
                for position, receive in enumerate(queue):
                    if receive.src == item.src and \
                            receive.phase == item.send.phase:
                        del queue[position]
                        receive.message = item
                        receive.state = _SCHEDULED
                        heappush(heap, (now, NORMAL, tick(), _FIRE,
                                        receive))
                        break
                else:
                    item.unexpected = True
                    unexpected[dst].append(item)
            elif kind == _FIRE:
                item.state = _FIRED
                if item.waiting:
                    run(item.rank, now)
            elif kind == _START:
                # The contended wire process starts.  The fabric first
                # retries the batched booking; it cannot succeed at this
                # instant, since nothing between the failed booking and
                # this urgent entry releases a link or lowers a horizon.
                # So the per-hop protocol takes over.
                item.hop = 0
                item.waits = []
                item.ticket = tick()
                request(item, now)
            elif kind == _GRANT:
                wait = now - item.arrived
                if wait > 0:
                    item.waits.append((item.hop, wait))
                item.hop += 1
                if item.hop < len(item.send.links):
                    request(item, now)
                else:
                    item.granted_at = now
                    log.append((_ACQUIRED, item))
                    heappush(heap, (now + item.send.hold, NORMAL, tick(),
                                    _RELEASE, item))
            elif kind == _WAKE:
                if item.waiting and item.holder is None and \
                        horizons[item.resource] <= now:
                    grant(item, now)
            else:
                item.released_at = now
                log.append((_RELEASED, item))
                send = item.send
                for resource in send.links:
                    lane = lanes[resource]
                    lane.holder = None
                    if lane.waiting:
                        grant(lane, now)
                # The wire ends when the slower NIC engine is done too.
                tx_end = item.tx_start + send.tx_us
                rx_end = item.rx_start + send.rx_us
                end = tx_end if tx_end > rx_end else rx_end
                if end > now:
                    heappush(heap, (end, NORMAL, item.ticket, _LAND, item))
                else:
                    heappush(heap, (now + deliver_us * draw[send.dst](),
                                    NORMAL, tick(), _DELIVER, item))
        if len(finished) != size or any(posted) or any(unexpected):
            return None
        outcome = _Outcome()
        outcome.entered = entered
        outcome.finished = finished
        outcome.log = log
        outcome.copies = copies
        outcome.phases = phases
        outcome.horizons = horizons
        return outcome

    # -- commit ---------------------------------------------------------------
    def _commit(self, outcome: _Outcome, draws: List[int], entered: bool,
                seq: int, shape: tuple) -> None:
        """Make the replayed episode the machine's state: consume the
        jitter draws, warm the call's working set when the replay drew
        the ``entered`` costs itself, set every booking horizon, and
        account every message and copy as the engine would have.

        The log is walked in the engine's order, so each link's
        statistics add up in the order its occupancies and waits
        happened.  A message accounts its send, engine bookings and
        delivery when it enters the wire; a queued transfer also counts
        what ``fabric.transfer`` and the link resources count inline,
        and its acquisition and release go through the fabric's per-hop
        helpers at the times they happened."""
        comm = self.comm
        machine = comm.machine
        transport = comm.transport
        fabric = machine.fabric
        world_ranks = comm.world_ranks
        op, _, _, nbytes = shape
        for rank, count in enumerate(draws):
            machine.skip_jitter(world_ranks[rank], count)
        if entered:
            working_set = (op, nbytes)
            for node in world_ranks:
                machine.nodes[node].memory.first_touch_penalty(working_set,
                                                               nbytes)
        for resource, busy in outcome.horizons.items():
            resource._busy_until = busy
        obs = comm.obs
        env = machine.env
        work = env.work
        phase_spans: Dict[int, object] = {}
        if env.tracer is not None or env.metrics is not None:
            for _, entered_at in outcome.entered:
                obs.enter(seq, op, nbytes, entered_at)
            for called_at, phase in outcome.phases:
                phase_spans[phase] = obs.phase(seq, phase, called_at)
        tag = ("c", comm.comm_id, seq)
        delivered = 0
        for act, message in outcome.log:
            send = message.send
            size = send.nbytes
            src = world_ranks[message.src]
            dst = world_ranks[send.dst]
            if act != _WIRED:
                if act == _ACQUIRED:
                    route = send.route
                    for hop, wait in message.waits:
                        route[hop].record_wait(wait)
                    at = message.granted_at
                    message.link_spans = fabric.hop_acquired(
                        route, size, at - message.queued_at, src, dst,
                        message.span, at)
                else:
                    fabric.hop_released(send.route, size, send.hold,
                                        message.link_spans,
                                        message.released_at)
                continue
            delivered += 1
            parent = phase_spans.get(send.phase)
            span = message.span = transport.record_send(
                src, dst, size, send.op, parent, message.issued)
            if send.dma is not None:
                send.dma.record_booked(size,
                                       message.dma_start - message.dma_asked)
            sent_at = message.sent_at
            send.src_nic.commit_transmit(size, send.fast,
                                         message.tx_start, sent_at)
            send.dst_nic.commit_receive(size, send.fast_rx,
                                        message.rx_start, sent_at)
            if message.queued_at is None:
                fabric.commit_route(send.route, size, send.hold, src,
                                    dst, span, sent_at)
            elif work is not None:
                hops = len(send.links)
                work.transfers_booked += 1
                work.resource_requests += hops
                work.resource_grants += hops
                work.resource_releases += hops
            transport.record_delivery(
                Envelope(src=src, dst=dst, tag=tag + (send.phase,),
                         nbytes=size, sent_at=sent_at,
                         delivered_at=message.delivered_at, span=span,
                         phase_span=parent),
                message.unexpected)
        transport.messages_delivered += delivered
        nodes = machine.nodes
        for rank, size, wait in outcome.copies:
            nodes[world_ranks[rank]].memory.record_booked(size, wait)
        if work is not None:
            work.episodes_evaluated += 1
