"""Whole-collective short-circuit: fenced collective calls
("episodes") evaluated off the event loop.

The paper times a collective as ``k`` back-to-back calls, and the
communicator's completion fence (:mod:`repro.mpi.communicator`) makes
every call but the first start with all ranks released at one instant.
The first call starts so too when every rank enters it as the world
starts, in the one dispatch where :meth:`MpiWorld.run
<repro.mpi.world.MpiWorld.run>` starts the rank processes; the entry
timeouts of ranks that enter it there while another rank does
something else first keep the event ids they would have had.  When, in
addition, the engine has nothing else pending and every rank follows
the call with the next fence (a :meth:`RankContext.repeat
<repro.mpi.context.RankContext.repeat>` iteration other than the last)
or with nothing at all (the last call of :meth:`RankContext.time_block
<repro.mpi.context.RankContext.time_block>`), the call cannot interact
with anything else: the :class:`EpisodeEvaluator` then runs it in a
private event heap instead of the engine's.

The paper's timing block hands the evaluator all of its calls at
once, and ``repeat`` all of its iterations but the last: from the first
eligible call on, the evaluator *folds* them, replaying and committing
one call after another (for the block: the warm-up calls, the barrier
and every timed call).  The first call's ranks enter in the order they
registered; each next call is released at the previous one's last
finish time, and its ranks enter in the previous one's completion
order.  Every rank draws its entry cost in the replay, at the point of
its node's ``sw.<i>`` stream the engine would draw it at.  The ranks
resume once, at their finish of the last folded call.  A call that
cannot be evaluated (the T3D barrier wire, a composite, an abort) ends
the fold before it draws anything: the ranks resume at their finish of
the previous call, the engine runs that call, and the next fenced call
may start a new fold.  When the engine runs a call whose ranks
registered, each rank draws its entry cost as the evaluator hands the
call back: since it registered only the other ranks ran, each drawing
from its own node's stream alone, so the draw is the one it would have
made as it entered.

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
shape is not tried again on this communicator, nor on the later worlds
of its measured cell.  A successful replay is committed at once: the
jitter draws are consumed, the working set is warmed, every resource's
booking horizon is set, and every message, queued transfer and copy is
accounted, in the engine's order, through the same helpers the
short-circuit and the fabric's per-hop path use (counters, link
statistics, metrics, spans).  In a fold, a call is closed at its last
finish time, as the last rank's completion report would have closed
it, once the next call's replay has succeeded.  Each rank is then
scheduled to resume at its own finish time of the last evaluated call,
in completion order.

A call whose shape will come again -- a later call of the fold, or the
same call of a later world of the measured cell (:class:`Shelf`) -- is
replayed with a *tape* recorded as it runs: every time the replay
computes becomes an entry, the same floating-point expression over
earlier entries, the peeked draws, the start time and the booking
horizons the schedule's resources had before the call (``begin = busy
if busy > now else now`` stays a max).  Every value-dependent choice
becomes a guard ``a < b`` between two computed times, with the outcome
the replay found: per resource (a NIC engine, a route link), the order
of the events that book or request it; per node, the order of the
events that draw its ``sw.<i>`` jitter; per receive channel, whether a
message arrived before its receive was posted; per posted receive,
whether it fired before its wait; per contended message, whether the
route was busy, each hop request's and wakeup's outcome, whether a
grant waited and whether the NIC engines outlast the release.  Two
events in a row on a dependency need no guard when one is the other's
ancestor, when both were scheduled at one computed time by one handler,
or when both are steps of the node's own rank: a resource only its rank
books (its DMA engine and memory bus) has none.  Independent events may
swap, which a check of the global pop order would not allow.  A later
call of that shape is *played* from the tape instead: the entries are
evaluated with the call's draws, start and horizons in the recorded pop
order, each guard as soon as its later operand exists, and the lists
the commit reads come out in time order, so
:meth:`EpisodeEvaluator._commit` stays the one commit path.  A failed
guard, a resource held through the request protocol, or an exact tie
between two entries of the outcome's lists that one handler did not
produce at one time sends the call to the heap, which records a new
tape; a recording that itself meets a tie keeps none.  Once its own
tape misses, or its recording meets a tie, the communicator stops
taping the shape, and it never tapes a schedule sending more than
:data:`_TAPED_MESSAGES_PER_RANK` messages per rank, whose tapes rarely
hold.  A tape names resources and sends by their position in the
compiled schedule, so the worlds of one measured cell hand their tapes
on to each other: the later worlds play the calls the first one
recorded, and a handed-on tape that misses counts as no miss of the
world that plays it, which records its own.

Algorithms are recorded once per ``(algorithm, root, nbytes)`` per
communicator, or per measured cell when its worlds share a shelf, by
running their generators against a recording context that exposes only
``rank``, ``size``, ``coll_send``, ``coll_post``, ``coll_wait``,
``coll_recv``, ``combine``, ``delay`` and the machine's name and
software constants as ``comm.spec``, read at record time; each
communicator compiles the recording against its own machine.  Sends
and receives may be ``buffered=`` or carry an offloaded
``sw_cost_us=``.  Touching anything else (the hardware barrier, the
machine, another algorithm looked up through the spec, ...) leaves the
algorithm to the engine.  One recording stands for every call of the
shape, so an algorithm may use its call's ``seq`` only as the tag of
its operations.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from operator import itemgetter
from types import SimpleNamespace
from typing import (TYPE_CHECKING, Callable, Deque, Dict, List, Optional,
                    Set, Tuple)

from ..node import TransferMode
from ..sim import Event
from ..sim.engine import NORMAL, URGENT
from .context import call_setup_us, entry_cost
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
    its operations with every machine constant resolved, how many
    jitter draws a complete replay makes on its node, the entry cost's
    included, every resource a replay may book or request, every send
    in rank order, and whether its calls are worth taping."""

    __slots__ = ("ops", "draws", "resources", "sends", "taped")

    def __init__(self, ops: List[List[tuple]], draws: List[int],
                 resources: List[object], sends: List["_Send"]):
        self.ops = ops
        self.draws = draws
        self.resources = resources
        self.sends = sends
        self.taped = len(sends) <= _TAPED_MESSAGES_PER_RANK * len(ops)


class _Send:
    """A recorded send with every per-message constant resolved, and
    its position among its schedule's sends."""

    __slots__ = ("index", "dst", "nbytes", "op", "phase", "cost", "dma",
                 "dma_us", "bus", "copy", "copy_us", "fast", "tx", "tx_us",
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
                 "ticket", "slots", "wait_slots")

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


# -- the tape ---------------------------------------------------------------

#: Tape instructions, each ``code, a, b, c`` over the value list ``v``,
#: four entries in a row of one flat list.  A guard requires
#: ``v[a] < v[b]``.  The others append values: a booking appends its
#: begin ``max(v[a], v[b])`` and its end, the begin plus ``c``; a wire
#: end appends ``v[a] + b`` (the route's hold) and the latest of that
#: and the engine horizons ``v[c[0]]`` and ``v[c[1]]``; the rest append
#: ``v[a] + b * v[c]``, ``v[a] + b``, ``max(v[a], v[b])``,
#: ``v[a] - v[b]`` or ``v[a] + v[b]``.
_LT, _ADDMUL, _BOOK, _WIRE, _ADD, _MAX, _SUB, _SUM = range(8)

#: The most messages per rank a schedule may send for its calls to be
#: taped.  Trees send about one; the exchanges (alltoall, allgather and
#: allreduce phases, recursive-doubling scans) send from log p to p - 1
#: messages per rank, keep many of them in flight at once, and the
#: jitter reorders their bookings on the receiving engines and links
#: from call to call: their tapes miss, and each miss wastes a recording
#: that costs two to three heap replays.
_TAPED_MESSAGES_PER_RANK = 2

_first, _second = itemgetter(0), itemgetter(1)


class _Recording:
    """The tape a heap replay writes as it runs.

    Every value the replay computes gets a slot, in computation order,
    after the inputs: the start time, one value per rank (the
    first-touch cost its entry cost adds), every rank's peeked draws,
    and the booking horizon of every resource of the schedule.  Every
    popped event keeps the slot of its time; every slot, the event that
    computed it (-1 before the first pop), which is an ancestor of any
    event scheduled at it.

    ``touch`` records an event's access to a dependency: the booking
    horizon and request queue of a resource more than one rank's events
    use (a NIC engine, a route link), a receive channel
    ``(dst, src, phase)`` or a posted receive; ``draw``, a draw from a
    node's jitter stream.  Two events in a row on one dependency get a
    guard that keeps their order, unless the order is fixed anyway: one
    is an ancestor of the other, both share one time slot (a handler's
    events scheduled at its own time), or both are steps of the node's
    own rank, whose program runs them in sequence.  For that last
    reason a resource only its own rank books (its DMA engine and
    memory bus) needs no guard at all.  Independent events may pop in
    any other order.  A guard the recording itself only meets with a
    tie marks the tape ``tied``.
    """

    __slots__ = ("vals", "owner", "code", "base", "drawn", "drawer",
                 "by_rank", "times", "ev", "now", "last", "tied", "first",
                 "inputs", "horizons", "entered", "finished", "phases",
                 "copies", "log", "begin", "alias")

    def __init__(self, vals: List[float], base: List[int],
                 resources: List[object]):
        #: resource -> the slot of its booking horizon before the call;
        #: the first resource's is ``first``.
        self.first = len(vals)
        self.inputs = {resource: len(vals) + index
                       for index, resource in enumerate(resources)}
        vals += [resource._busy_until for resource in resources]
        self.vals = vals
        self.owner = [-1] * len(vals)
        self.code: List[object] = []
        self.base = base
        self.drawn = [0] * len(base)
        #: Per node, the event of its last draw, and whether its own
        #: rank made it.
        self.drawer = [-1] * len(base)
        self.by_rank = [True] * len(base)
        self.times: List[int] = []
        self.ev = -1
        #: Slot of the current event's time.
        self.now = 0
        #: dependency -> the event of its last access.
        self.last: Dict[object, int] = {}
        self.tied = False
        #: resource used so far -> slot of its booking horizon.
        self.horizons: Dict[object, int] = {}
        self.entered: List[Tuple[int, int]] = []
        self.finished: List[Tuple[int, int]] = []
        self.phases: List[Tuple[int, int]] = []
        self.copies: List[Tuple[int, int, int, int]] = []
        self.log: List[Tuple[int, int, _Message]] = []
        #: Slot of the begin time of the last booking.
        self.begin = 0
        #: Wakeup slot -> the horizon slot it copies.
        self.alias: Dict[int, int] = {}

    def entry(self, value: float, code: int, a, b=None, c=None) -> int:
        """Record that ``value`` was computed as instruction ``code``;
        return its slot."""
        self.code += (code, a, b, c)
        self.vals.append(value)
        self.owner.append(self.ev)
        return len(self.vals) - 1

    def wakeup(self, horizon: int) -> int:
        """The slot of a booking-expiry wakeup at ``horizon``: a copy
        computed by the current event, so that the event owning it is
        the wakeup's ancestor, and known equal to the horizon."""
        slot = self.entry(self.vals[horizon], _ADD, horizon, 0.0)
        self.alias[slot] = horizon
        return slot

    def guard(self, lo: int, hi: int) -> None:
        """The replay found ``v[lo] < v[hi]``, or the two equal by
        construction, where the branch taken is the one for equality; a
        later call must find the same."""
        alias = self.alias
        if lo == hi or alias and alias.get(lo, lo) == alias.get(hi, hi):
            return
        if not self.vals[lo] < self.vals[hi]:
            self.tied = True
        self.code += (_LT, lo, hi, None)

    def touch(self, key) -> None:
        """The current event reads or changes dependency ``key``."""
        ev = self.ev
        last = self.last
        prev = last.get(key, -1)
        last[key] = ev
        if prev >= 0 and prev != ev:
            self.follow(prev)

    def follow(self, prev: int) -> None:
        """Keep event ``prev`` before the current one, unless their
        order is fixed anyway."""
        times = self.times
        first, then = times[prev], times[self.ev]
        if first == then:
            return
        owner = self.owner
        up = owner[then]
        while up > prev:
            up = owner[times[up]]
        if up != prev:
            self.guard(first, then)

    def draw(self, rank: int, own: bool = True) -> int:
        """The slot of the next draw from ``rank``'s node, made by the
        rank itself (``own``) or by a message's delivery to it."""
        prev = self.drawer[rank]
        ev = self.ev
        if prev >= 0 and prev != ev and not (own and self.by_rank[rank]):
            self.follow(prev)
        self.drawer[rank] = ev
        self.by_rank[rank] = own
        index = self.drawn[rank]
        self.drawn[rank] = index + 1
        return self.base[rank] + index

    def book(self, resource, begin: float, duration: float) -> None:
        """A booking of ``resource`` for ``duration`` now began at
        ``begin``: slot ``self.begin``, its end the next."""
        horizons = self.horizons
        self.code += (_BOOK, horizons[resource], self.now, duration)
        vals = self.vals
        vals.append(begin)
        vals.append(begin + duration)
        ev = self.ev
        self.owner += (ev, ev)
        self.begin = len(vals) - 2
        horizons[resource] = len(vals) - 1

    def check(self, resource, lane: Optional[_Lane], busy: bool) -> None:
        """A message about to enter the wire now found route link
        ``resource`` ``busy`` (its horizon later than now) or not."""
        self.touch(resource)
        if lane is None or lane.holder is None and not lane.waiting:
            horizon = self.horizons[resource]
            if busy:
                self.guard(self.now, horizon)
            else:
                self.guard(horizon, self.now)

    def wire(self, held: float, end: float, hold: float, tx_end: int,
             rx_end: int) -> int:
        """A message entered a free route now: the route is ``held`` to
        now plus ``hold``, and the wire ends at ``end``, the latest of
        that and the slots of the two engine bookings' ends.  Returns
        the slot of ``held``; ``end``'s is the next."""
        self.code += (_WIRE, self.now, hold, (tx_end, rx_end))
        vals = self.vals
        vals.append(held)
        vals.append(end)
        ev = self.ev
        self.owner += (ev, ev)
        return len(vals) - 2

    def tape(self) -> Optional["_Tape"]:
        """The finished tape, or ``None`` when a guard or two entries of
        the outcome's lists only held with a tie."""
        vals = self.vals
        stamps = set(map(_second, self.entered))
        stamps.update(map(_second, self.finished))
        stamps.update(map(_first, self.phases))
        stamps.update(map(_first, self.copies))
        stamps.update(map(_first, self.log))
        if self.tied or \
                len(set(map(vals.__getitem__, stamps))) != len(stamps):
            return None
        tape = _Tape()
        tape.code = self.code
        tape.stamps = tuple(stamps)
        tape.entered = _columns(self.entered, 2)
        tape.finished = _columns(self.finished, 2)
        tape.phases = _columns(self.phases, 2)
        tape.copies = self.copies
        inputs = self.inputs
        tape.horizons = _columns(
            [(inputs[resource] - self.first, slot)
             for resource, slot in self.horizons.items()], 2)
        index: Dict[int, int] = {}
        messages = []
        log = []
        for stamp, act, message in self.log:
            if act == _WIRED:
                index[id(message)] = len(messages)
                slots = message.slots
                waits = None
                if message.queued_at is not None:
                    waits = tuple(zip((hop for hop, _ in message.waits),
                                      message.wait_slots))
                messages.append((
                    message.src, message.send.index, message.unexpected,
                    slots.pop("issued"), slots.pop("sent_at"),
                    slots.pop("tx_start"), slots.pop("rx_start"),
                    slots.pop("delivered_at"),
                    tuple(slots.items()), waits))
            log.append((stamp, act, index[id(message)]))
        tape.messages = messages
        tape.log = _columns(log, 3)
        return tape


def _columns(rows, width: int) -> Tuple[tuple, ...]:
    """``rows`` of ``width`` fields as ``width`` tuples of fields."""
    return tuple(zip(*rows)) or ((),) * width


class _Tape:
    """A heap replay as straight-line code (:meth:`_Recording.tape`):
    its instructions, and the outcome's lists and messages with a slot
    in place of every time, each list as a tuple of columns.  Resources
    and sends are named by their position in the schedule's
    ``resources`` and ``sends``, so a tape plays on the schedule of the
    same shape compiled for another world of the same machine."""

    __slots__ = ("code", "stamps", "entered", "finished", "phases",
                 "copies", "log", "messages", "horizons")


class Shelf:
    """The recorded schedules, tapes and refused shapes that the worlds
    of one measured cell hand on to each other
    (:meth:`EpisodeEvaluator.share`).

    Every key starts with the algorithm object, so a monkeypatched
    algorithm never plays another's tape.  A recorded schedule holds
    plain values, and a tape names the resources and sends of its
    compiled schedule by position, so the shelf holds nothing of the
    world that recorded them: each world compiles its own schedules.
    """

    __slots__ = ("recorded", "refused", "tapes")

    def __init__(self):
        #: (algorithm, root, nbytes) -> each rank's recorded operations.
        self.recorded: Dict[tuple, List[List[tuple]]] = {}
        #: Shapes never to try again: unrecordable, or aborted once.
        self.refused: Set[tuple] = set()
        #: (algorithm, root, nbytes) -> the tape of its last heap replay.
        self.tapes: Dict[tuple, _Tape] = {}


class EpisodeEvaluator:
    """Decides, replays and commits the episodes of one communicator.

    Every rank of a fenced collective call registers here after its
    fence, and of the first call as it enters it (:meth:`register`);
    the last registration decides whether the call is evaluated.  The
    compiled schedules and the shapes no longer taped live here, per
    communicator.  The recorded schedules, tapes and refused shapes
    live on a :class:`Shelf`, this communicator's own unless it shares
    one with the other worlds of its cell (:meth:`share`).
    """

    def __init__(self, comm: "Communicator"):
        self.comm = comm
        self._pending: List[tuple] = []
        #: Whether the world's ranks are taking their first steps.
        self._opening = False
        #: (algorithm, root, nbytes) -> compiled schedule.
        self._schedules: Dict[tuple, _Schedule] = {}
        #: Shapes this communicator no longer tapes: their own tape
        #: missed, or their recording met a tie.
        self._untaped: Set[tuple] = set()
        #: The shapes whose tape this communicator recorded.
        self._own: Set[tuple] = set()
        self.share(Shelf())

    def share(self, shelf: Shelf, later: bool = False) -> None:
        """Take the recorded schedules, tapes and refused shapes from
        ``shelf`` and keep this communicator's there.  With ``later``,
        other worlds of the same machine, size and program run after
        this one, so every call worth a tape is taped.  A tape from
        another world that misses does not count as a miss here: this
        communicator then records its own, as it would have without the
        shelf."""
        self._recorded = shelf.recorded
        self._refused = shelf.refused
        self._tapes = shelf.tapes
        self._later = later

    # -- eligibility ------------------------------------------------------
    def open(self, start: Event) -> None:
        """The world's rank processes take their first steps in
        ``start``'s dispatch: a first call every rank enters there may
        be evaluated too.  The entry timeouts of ranks that entered it
        while the others did something else are scheduled at the end of
        the dispatch."""
        self._opening = True
        start.callbacks.append(self._flush)

    def _flush(self, _start: Event) -> None:
        self._opening = False
        pending, self._pending = self._pending, []
        self._enter(pending)

    def register(self, rank: int, seq: int, shape: tuple,
                 rest: Optional[tuple]) -> Optional[Event]:
        """Register ``rank``'s entry into collective ``seq``, an
        ``(op, algorithm, root, nbytes)`` call; ``rest`` is ``None``
        when the rank may do anything after the call, else the shapes
        of the calls it makes next, back to back, with nothing but a
        fenced call after them.

        Returns ``None`` when the call cannot be an episode (the rank
        then draws its entry cost and takes its entry timeout itself),
        or the event the rank waits on instead: fired with ``()`` at
        the end of its entry cost when the engine is to run the call,
        or at its finish time of the last call evaluated, with its
        finish time of each call evaluated from this one on.
        Eligibility reads state only, never the tracer, metrics or work
        meter.
        """
        comm = self.comm
        machine = comm.machine
        if machine.injector is not None or not machine.fast_wire:
            return None
        if seq:
            # Every rank waited on the fence that released this one, so
            # all register in this same dispatch.
            if comm.fence_waiters(seq - 1) != comm.size:
                return None
        elif not (self._opening and comm.spec.serialize_collectives):
            return None
        env = machine.env
        gate = env.event()
        # The entry timeout the rank would have taken keeps its event id
        # should the engine run the call.
        self._pending.append((rank, gate, shape, rest, env.ticket()))
        if len(self._pending) == comm.size:
            self._decide(seq)
        return gate

    def _enter(self, pending: List[tuple]) -> None:
        """Leave the call to the engine: each rank draws its entry cost,
        and its gate fires at the end of it, as its entry timeout would
        have.  Since the rank registered, only other ranks ran, each
        drawing from its own node's ``sw.<i>`` stream, so the draw is
        the one the rank would have made as it entered."""
        machine = self.comm.machine
        world_ranks = self.comm.world_ranks
        now = machine.env.now
        for rank, gate, (op, _, _, nbytes), _, ticket in pending:
            gate.succeed_at(now + entry_cost(machine, world_ranks[rank], op,
                                             nbytes), (), ticket)

    def _decide(self, seq: int) -> None:
        pending, self._pending = self._pending, []
        env = self.comm.machine.env
        shape, rest = pending[0][2:4]
        folded = None
        if env.peek() == float("inf") and rest is not None and \
                all(entry[2] == shape and entry[3] == rest
                    for entry in pending):
            folded = self._fold(seq, pending, (shape,) + rest)
        if folded is None:
            self._enter(pending)
            return
        order, finishes = folded
        gates = {entry[0]: entry[1] for entry in pending}
        for rank, finish in order:
            gates[rank].succeed_at(finish, tuple(finishes[rank]))

    def _fold(self, seq: int, pending: List[tuple], calls: tuple
              ) -> Optional[Tuple[List[Tuple[int, float]],
                                  List[List[float]]]]:
        """Evaluate ``calls[0]`` (collective ``seq``), then each next
        call from the state the previous one committed, until one
        cannot be evaluated or the calls run out.

        The first call's ranks enter in registration order, each next
        call's in the previous one's completion order, released at its
        last finish; every entry cost is drawn in the replay, at that
        point of each node's ``sw.<i>`` stream.  Returns the last
        evaluated call's completion order and every rank's finish time
        of each evaluated call, or ``None`` when the engine is to run
        ``calls[0]``.
        """
        comm = self.comm
        order = [entry[0] for entry in pending]
        start = comm.machine.env.now
        finishes: List[List[float]] = [[] for _ in range(comm.size)]
        finished = None
        for index, shape in enumerate(calls):
            # Whether a later call will be in this call's shape: later in
            # this fold, or in a later world running the same calls.
            again = self._later or shape in calls[index + 1:]
            replayed = self._replay_call(shape, seq + index, order, start,
                                         again)
            if replayed is None:
                break
            if index:
                # The ranks resume only after the last evaluated call, so
                # the ones before it are closed here, each before the
                # next call's entries.
                comm.completed(seq + index - 1, start)
            outcome, draws = replayed
            self._commit(outcome, draws, seq + index, shape)
            finished = outcome.finished
            for rank, finish in finished:
                finishes[rank].append(finish)
            order = [rank for rank, _ in finished]
            start = finished[-1][1]
        if finished is None:
            return None
        return finished, finishes

    def _replay_call(self, shape: tuple, seq: int, order: List[int],
                     start: float, again: bool = False
                     ) -> Optional[Tuple[_Outcome, List[int]]]:
        """Replay collective ``seq`` of ``shape``, whose ranks enter in
        ``order`` at ``start`` plus the entry costs the replay draws;
        return the outcome and the jitter draws it made per rank, or
        ``None`` to leave the call to the engine.

        The call is played from the shape's tape when there is one and
        it holds.  Otherwise the heap replays it, and records a new tape
        when a later call will be in this shape (``again``).
        """
        op, algorithm, root, nbytes = shape
        key = (algorithm, root, nbytes)
        if key in self._refused:
            return None
        schedule = self._schedules.get(key)
        if schedule is None:
            recorded = self._recorded.get(key)
            if recorded is None:
                recorded = record(algorithm, self.comm.size, seq, nbytes,
                                  root, self.comm.spec)
                if recorded is None:
                    self._refused.add(key)
                    return None
                self._recorded[key] = recorded
            schedule = self._schedules[key] = self._compile(recorded)
        draws = schedule.draws
        tape = self._tapes.pop(key, None)
        if tape is not None:
            outcome = self._play(tape, schedule, start, op, nbytes)
            if outcome is not None:
                if again:
                    self._tapes[key] = tape
                return outcome, draws
            if key in self._own:
                self._untaped.add(key)
            del tape  # not kept while the heap replay records another
        taping = again and schedule.taped and key not in self._untaped
        try:
            replayed = self._replay(schedule, order, start, op, nbytes,
                                    taping)
        except _Abort:
            replayed = None
        if replayed is None:
            self._refused.add(key)
            work = self.comm.machine.env.work
            if work is not None:
                work.episodes_aborted += 1
            return None
        outcome, tape = replayed
        if tape is not None:
            self._tapes[key] = tape
            self._own.add(key)
        elif taping:
            self._untaped.add(key)
        return outcome, draws

    # -- compiling a recorded schedule --------------------------------------
    def _compile(self, recorded: List[List[tuple]]) -> _Schedule:
        """Resolve every machine constant of a recorded schedule once:
        nodes, engines, costs, durations, route links and hold times,
        each computed by the expression the engine path computes it
        with.

        A replay draws jitter once per rank for its entry cost, once per
        send on the sender (its software cost), once per message on the
        receiver (its delivery latency), once per wait (the receive
        cost) and once per combine or delay."""
        comm = self.comm
        machine = comm.machine
        spec = machine.spec
        fabric = machine.fabric
        software = spec.software
        nodes = [machine.nodes[node] for node in comm.world_ranks]
        compiled = []
        sends: List[_Send] = []
        draws = [1 + len(ops) - sum(entry[0] == _POST for entry in ops)
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
                    send.index = len(sends)
                    sends.append(send)
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
        resources: Dict[object, None] = {}
        for rank, ops in enumerate(compiled):
            for entry in ops:
                if entry[0] == _SEND:
                    send = entry[1]
                    resources.update(dict.fromkeys(
                        (send.tx, send.rx, *send.links)))
                    if send.dma is not None:
                        resources[send.dma.engine] = None
                    if send.copy:
                        resources[send.bus] = None
                elif entry[0] == _WAIT and any(entry[4]):
                    resources[nodes[rank].memory.bus] = None
        return _Schedule(compiled, draws, list(resources), sends)

    # -- the private heap ---------------------------------------------------
    def _inputs(self, schedule: _Schedule, op: str, nbytes: int
                ) -> Tuple[List[List[float]], List[float]]:
        """The values a call of ``schedule`` is replayed from: each
        rank's next jitter factors, as many as the schedule draws, and
        the first-touch cost of the call's working set that each rank's
        entry cost adds."""
        machine = self.comm.machine
        world_ranks = self.comm.world_ranks
        nodes = machine.nodes
        working_set = (op, nbytes)
        return ([machine.peek_jitter(world_ranks[rank], count)
                 for rank, count in enumerate(schedule.draws)],
                [nodes[node].memory.first_touch_cost(working_set, nbytes)
                 for node in world_ranks])

    def _replay(self, compiled: _Schedule, order: List[int], start: float,
                op: str, nbytes: int, taping: bool = False
                ) -> Optional[Tuple[_Outcome, Optional[_Tape]]]:
        """Run the episode in a private heap mirroring the engine's:
        the ranks enter in ``order``, each at ``start`` plus its entry
        cost, drawn here as the rank's first jitter factor, plus the
        first-touch penalty of the call's working set.  With ``taping``,
        also record the replay's tape (``None`` when it holds a tie).

        Raises :class:`_Abort` (or returns ``None`` for an episode that
        does not finish cleanly) without touching any shared state.
        """
        comm = self.comm
        machine = comm.machine
        software = machine.spec.software
        deliver_us = software.deliver_us
        nodes = [machine.nodes[node] for node in comm.world_ranks]
        schedule = compiled.ops
        size = len(schedule)
        peeked, per_rank = self._inputs(compiled, op, nbytes)
        # Each rank's jitter factors, in the order its node draws them.
        draw = [iter(values).__next__ for values in peeked]
        rec: Optional[_Recording] = None
        if taping:
            vals = [start, *per_rank]
            base = []
            for values in peeked:
                base.append(len(vals))
                vals += values
            rec = _Recording(vals, base, compiled.resources)
        setup = call_setup_us(software, op)
        costs = [setup * draw[rank]() + per_rank[rank] for rank in order]

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

        # The tape's slots travel beside the times: every heap entry
        # carries the slot of its time, and ``now_s`` is the slot of the
        # current event's (``None`` when not taping).
        def first_use(resource) -> float:
            """A resource's booking horizon when the replay first uses
            it: the machine's, unless it is held through the protocol."""
            if resource._users or resource._waiting:
                raise _Abort("resource held through the protocol")
            busy = horizons[resource] = resource._busy_until
            if rec is not None:
                rec.horizons[resource] = rec.inputs[resource]
            return busy

        def book(resource, duration: float, now: float) -> float:
            busy = horizons.get(resource)
            if busy is None:
                busy = first_use(resource)
            begin = busy if busy > now else now
            horizons[resource] = begin + duration
            if rec is not None:
                rec.book(resource, begin, duration)
            return begin

        def wire(message: _Message, now: float) -> None:
            send = message.send
            message.sent_at = now
            message.tx_start = tx_start = book(send.tx, send.tx_us, now)
            if rec is not None:
                slots = message.slots
                slots["sent_at"] = now_s
                slots["tx_start"] = rec.begin
            message.rx_start = rx_start = book(send.rx, send.rx_us, now)
            log.append((_WIRED, message))
            if rec is not None:
                # Other ranks' messages book the receive engine too, and
                # a half-duplex NIC's one engine is both.
                rec.touch(send.tx)
                rec.touch(send.rx)
                slots["rx_start"] = rec.begin
                rec.log.append((now_s, _WIRED, message))
            links = send.links
            for resource in links:
                busy = horizons.get(resource)
                if busy is None:
                    busy = first_use(resource)
                lane = lanes.get(resource) if lanes else None
                if rec is not None:
                    rec.check(resource, lane, busy > now)
                if busy > now or lane is not None and \
                        (lane.holder is not None or lane.waiting):
                    # Route contended: the engine bookings stand and the
                    # contended wire process starts, urgent, at this
                    # instant.
                    message.queued_at = now
                    if rec is not None:
                        slots["queued_at"] = now_s
                    heappush(heap, (now, URGENT, tick(), _START, message,
                                    now_s))
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
            slot = None
            if rec is not None:
                # Each engine's end is its booking's end.
                held = rec.wire(now + hold, end, hold, slots["tx_start"] + 1,
                                slots["rx_start"] + 1)
                for resource in links:
                    rec.horizons[resource] = held
                slot = held + 1
            heappush(heap, (end, NORMAL, tick(), _LAND, message, slot))

        def request(message: _Message, now: float) -> None:
            """``Resource.request`` for the message's current hop."""
            resource = message.send.links[message.hop]
            message.arrived = now
            lane = lanes.get(resource)
            if lane is None:
                lane = lanes[resource] = _Lane(resource)
            if rec is not None:
                message.wait_slots.append(now_s)
                rec.touch(resource)
            if lane.holder is not None:
                lane.waiting.append(message)
                return
            busy = horizons.get(resource)
            if busy is None:
                busy = first_use(resource)
            if rec is not None:
                horizon = rec.horizons[resource]
                if busy > now:
                    rec.guard(now_s, horizon)
                else:
                    rec.guard(horizon, now_s)
            if busy > now:
                # Queued behind a booking, whose expiry wakeup plays the
                # holder's release; one wakeup per queue.
                if not lane.waiting:
                    # The wakeup's own slot: its time was computed by an
                    # event that is not its ancestor.
                    slot = None if rec is None else rec.wakeup(horizon)
                    heappush(heap, (busy, NORMAL, tick(), _WAKE, lane, slot))
                lane.waiting.append(message)
                return
            lane.holder = message
            heappush(heap, (now, NORMAL, tick(), _GRANT, message, now_s))

        def grant(lane: _Lane, now: float) -> None:
            message = lane.waiting.popleft()
            lane.holder = message
            heappush(heap, (now, NORMAL, tick(), _GRANT, message, now_s))

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
                    at = begin + send.dma_us
                    slot = None
                    if rec is not None:
                        slots = message.slots
                        slots["dma_asked"] = now_s
                        slots["dma_start"] = rec.begin
                        slot = rec.begin + 1
                    heappush(heap, (at, NORMAL, tick(), _RESUME, rank,
                                    slot))
                    return
                if send.copy:
                    begin = book(send.bus, send.copy_us, now)
                    copies.append((rank, send.copy, begin - now))
                    state[rank] = _STREAMED
                    at = begin + send.copy_us
                    slot = None
                    if rec is not None:
                        rec.copies.append((now_s, rank, send.copy, rec.entry(
                            begin - now, _SUB, rec.begin, now_s)))
                        slot = rec.begin + 1
                    heappush(heap, (at, NORMAL, tick(), _RESUME, rank,
                                    slot))
                    return
                wire(message, now)
            elif step == _STREAMED:
                wire(current[rank], now)
            elif step == _RECEIVING:
                receive = current[rank]
                cost = receive.wait[3][receive.unexpected]
                state[rank] = _RECEIVED
                at = now + cost * draw[rank]()
                slot = None if rec is None else \
                    rec.entry(at, _ADDMUL, now_s, cost, rec.draw(rank))
                heappush(heap, (at, NORMAL, tick(), _RESUME, rank, slot))
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
                    at = begin + duration
                    slot = None
                    if rec is not None:
                        rec.copies.append((now_s, rank, nbytes, rec.entry(
                            begin - now, _SUB, rec.begin, now_s)))
                        slot = rec.begin + 1
                    heappush(heap, (at, NORMAL, tick(), _RESUME, rank,
                                    slot))
                    return
            elif step == _ENTERING:
                entered.append((rank, now))
                if rec is not None:
                    rec.entered.append((rank, now_s))
            ops = schedule[rank]
            index = pc[rank]
            while index < len(ops):
                entry = ops[index]
                index += 1
                kind = entry[0]
                if kind == _SEND:
                    send = entry[1]
                    phases.append((now, send.phase))
                    message = current[rank] = _Message(rank, send, now)
                    state[rank] = _SENT
                    pc[rank] = index
                    at = now + send.cost * draw[rank]()
                    slot = None
                    if rec is not None:
                        rec.phases.append((now_s, send.phase))
                        message.slots = {"issued": now_s}
                        slot = rec.entry(at, _ADDMUL, now_s, send.cost,
                                         rec.draw(rank))
                    heappush(heap, (at, NORMAL, tick(), _RESUME, rank,
                                    slot))
                    return
                if kind == _POST:
                    _, src, phase = entry
                    phases.append((now, phase))
                    if rec is not None:
                        rec.phases.append((now_s, phase))
                        rec.touch((rank, src, phase))
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
                                            receive, now_s))
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
                    if rec is not None:
                        rec.touch(receive)
                    if receive.state == _FIRED:
                        heappush(heap, (now, URGENT, tick(), _RESUME,
                                        rank, now_s))
                    else:
                        receive.waiting = True
                    return
                state[rank] = _RUNNING
                pc[rank] = index
                at = now + entry[1] * draw[rank]()
                slot = None if rec is None else \
                    rec.entry(at, _ADDMUL, now_s, entry[1], rec.draw(rank))
                heappush(heap, (at, NORMAL, tick(), _RESUME, rank, slot))
                return
            pc[rank] = index
            finished.append((rank, now))
            if rec is not None:
                rec.finished.append((rank, now_s))

        for rank, cost in zip(order, costs):
            slot = None
            if rec is not None:
                cost_s = rec.entry(cost, _ADDMUL, 1 + rank, setup,
                                   rec.draw(rank))
                slot = rec.entry(start + cost, _SUM, 0, cost_s)
            heappush(heap, (start + cost, NORMAL, tick(), _RESUME, rank,
                            slot))
        while heap:
            now, _, _, kind, item, now_s = heappop(heap)
            if rec is not None:
                if rec.tied:
                    # The tape could not be played: replay the rest
                    # without it.
                    rec = None
                else:
                    rec.ev = len(rec.times)
                    rec.times.append(now_s)
                    rec.now = now_s
            if kind == _RESUME:
                run(item, now)
            elif kind == _LAND:
                dst = item.send.dst
                at = now + deliver_us * draw[dst]()
                slot = None if rec is None else \
                    rec.entry(at, _ADDMUL, now_s, deliver_us,
                              rec.draw(dst, False))
                heappush(heap, (at, NORMAL, tick(), _DELIVER, item, slot))
            elif kind == _DELIVER:
                item.delivered_at = now
                dst = item.send.dst
                if rec is not None:
                    item.slots["delivered_at"] = now_s
                    rec.touch((dst, item.src, item.send.phase))
                queue = posted[dst]
                for position, receive in enumerate(queue):
                    if receive.src == item.src and \
                            receive.phase == item.send.phase:
                        del queue[position]
                        receive.message = item
                        receive.state = _SCHEDULED
                        heappush(heap, (now, NORMAL, tick(), _FIRE,
                                        receive, now_s))
                        break
                else:
                    item.unexpected = True
                    unexpected[dst].append(item)
            elif kind == _FIRE:
                item.state = _FIRED
                if rec is not None:
                    rec.touch(item)
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
                if rec is not None:
                    item.wait_slots = []
                item.ticket = tick()
                request(item, now)
            elif kind == _GRANT:
                wait = now - item.arrived
                if rec is not None:
                    # The request's slot gives way to the wait's, if any.
                    arrived = item.wait_slots.pop()
                    rec.guard(arrived, now_s)
                if wait > 0:
                    item.waits.append((item.hop, wait))
                    if rec is not None:
                        item.wait_slots.append(
                            rec.entry(wait, _SUB, now_s, arrived))
                item.hop += 1
                if item.hop < len(item.send.links):
                    request(item, now)
                else:
                    item.granted_at = now
                    log.append((_ACQUIRED, item))
                    at = now + item.send.hold
                    slot = None
                    if rec is not None:
                        item.slots["granted_at"] = now_s
                        rec.log.append((now_s, _ACQUIRED, item))
                        slot = rec.entry(at, _ADD, now_s, item.send.hold)
                    heappush(heap, (at, NORMAL, tick(), _RELEASE, item,
                                    slot))
            elif kind == _WAKE:
                if rec is not None:
                    rec.touch(item.resource)
                if item.waiting and item.holder is None:
                    busy = horizons[item.resource]
                    if rec is not None:
                        horizon = rec.horizons[item.resource]
                        if busy <= now:
                            rec.guard(horizon, now_s)
                        else:
                            rec.guard(now_s, horizon)
                    if busy <= now:
                        grant(item, now)
            else:
                item.released_at = now
                log.append((_RELEASED, item))
                if rec is not None:
                    item.slots["released_at"] = now_s
                    rec.log.append((now_s, _RELEASED, item))
                send = item.send
                for resource in send.links:
                    if rec is not None:
                        rec.touch(resource)
                    lane = lanes[resource]
                    lane.holder = None
                    if lane.waiting:
                        grant(lane, now)
                # The wire ends when the slower NIC engine is done too.
                tx_end = item.tx_start + send.tx_us
                rx_end = item.rx_start + send.rx_us
                end = tx_end if tx_end > rx_end else rx_end
                if rec is not None:
                    slots = item.slots
                    end_s = rec.entry(end, _MAX, slots["tx_start"] + 1,
                                      slots["rx_start"] + 1)
                    if end > now:
                        rec.guard(now_s, end_s)
                    else:
                        rec.guard(end_s, now_s)
                if end > now:
                    heappush(heap, (end, NORMAL, item.ticket, _LAND, item,
                                    None if rec is None else end_s))
                else:
                    dst = send.dst
                    at = now + deliver_us * draw[dst]()
                    slot = None if rec is None else rec.entry(
                        at, _ADDMUL, now_s, deliver_us, rec.draw(dst, False))
                    heappush(heap, (at, NORMAL, tick(), _DELIVER, item,
                                    slot))
        if len(finished) != size or any(posted) or any(unexpected):
            return None
        outcome = _Outcome()
        outcome.entered = entered
        outcome.finished = finished
        outcome.log = log
        outcome.copies = copies
        outcome.phases = phases
        outcome.horizons = horizons
        return outcome, None if rec is None else rec.tape()

    # -- the tape -----------------------------------------------------------
    def _play(self, tape: _Tape, schedule: _Schedule, start: float, op: str,
              nbytes: int) -> Optional[_Outcome]:
        """Evaluate ``tape`` on ``schedule`` for a call the heap would
        replay from these arguments: the outcome :meth:`_replay` would
        return, or ``None`` as soon as a guard fails, a resource is held
        through the protocol at its first use, or two entries of the
        outcome's lists tie."""
        peeked, per_rank = self._inputs(schedule, op, nbytes)
        v = [start, *per_rank]
        for values in peeked:
            v += values
        append = v.append
        resources = schedule.resources
        for resource in resources:
            if resource._users or resource._waiting:
                return None
            append(resource._busy_until)
        words = iter(tape.code)
        for code, a, b, c in zip(words, words, words, words):
            if code == _LT:
                if not v[a] < v[b]:
                    return None
            elif code == _ADDMUL:
                append(v[a] + b * v[c])
            elif code == _BOOK:
                x = v[a]
                y = v[b]
                if y > x:
                    x = y
                append(x)
                append(x + c)
            elif code == _WIRE:
                held = v[a] + b
                x = v[c[0]]
                end = held if held > x else x
                x = v[c[1]]
                append(held)
                append(x if x > end else end)
            elif code == _ADD:
                append(v[a] + b)
            elif code == _MAX:
                x = v[a]
                y = v[b]
                append(x if x > y else y)
            elif code == _SUB:
                append(v[a] - v[b])
            else:
                append(v[a] + v[b])
        get = v.__getitem__
        stamps = tape.stamps
        if len(set(map(get, stamps))) != len(stamps):
            return None
        # Each list in time order; entries of one slot keep the order
        # the recording produced them in.
        sends = schedule.sends
        messages = []
        for (src, send, unexpected, issued, sent_at, tx_start, rx_start,
             delivered_at, extra, waits) in tape.messages:
            message = _Message(src, sends[send], v[issued])
            message.unexpected = unexpected
            message.sent_at = v[sent_at]
            message.tx_start = v[tx_start]
            message.rx_start = v[rx_start]
            message.delivered_at = v[delivered_at]
            for name, slot in extra:
                setattr(message, name, v[slot])
            if waits is not None:
                message.waits = [(hop, v[slot]) for hop, slot in waits]
            messages.append(message)
        outcome = _Outcome()
        ranks, slots = tape.entered
        outcome.entered = entered = list(zip(ranks, map(get, slots)))
        entered.sort(key=_second)
        ranks, slots = tape.finished
        outcome.finished = finished = list(zip(ranks, map(get, slots)))
        finished.sort(key=_second)
        slots, phase_ids = tape.phases
        outcome.phases = phases = list(zip(map(get, slots), phase_ids))
        phases.sort(key=_first)
        copies = [(v[stamp], (rank, size, v[slot]))
                  for stamp, rank, size, slot in tape.copies]
        copies.sort(key=_first)
        outcome.copies = [entry for _, entry in copies]
        stamps, acts, indices = tape.log
        times = list(map(get, stamps))
        log = list(zip(acts, map(messages.__getitem__, indices)))
        outcome.log = [log[entry] for entry in
                       sorted(range(len(log)), key=times.__getitem__)]
        positions, slots = tape.horizons
        outcome.horizons = dict(zip(map(resources.__getitem__, positions),
                                    map(get, slots)))
        return outcome

    # -- commit ---------------------------------------------------------------
    def _commit(self, outcome: _Outcome, draws: List[int], seq: int,
                shape: tuple) -> None:
        """Make the replayed episode the machine's state: consume the
        jitter draws, warm the call's working set, set every booking
        horizon, and account every message and copy as the engine would
        have.

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
