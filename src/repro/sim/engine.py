"""Discrete-event simulation kernel.

This module implements a small, deterministic discrete-event engine in
the style of SimPy: an :class:`Environment` owns a priority queue of
timestamped events, and :class:`Process` objects are Python generators
that ``yield`` events to suspend until those events fire.

The engine is the substrate every other layer of this package runs on:
network links, NICs, DMA engines, and the MPI runtime are all expressed
as processes and resources scheduled here.

Determinism
-----------
Two runs with the same inputs produce identical event orderings: ties in
time are broken first by an explicit integer priority and then by a
monotonically increasing event id.  All randomness in higher layers goes
through the seeded streams in :mod:`repro.sim.rng`.

Performance
-----------
Every class on the hot path uses ``__slots__``; the pending-event queue
is one binary heap whose push and pop are C-level
:func:`functools.partial` bindings of :mod:`heapq`; and
:meth:`Environment.sleep` hands out pooled one-shot timeouts so the
dominant fire-and-forget delay pattern does not allocate.  The
equivalence suite (``tests/sim/test_shortcircuit_equivalence``) pins
the pop order as run-to-run and cross-process deterministic, and
proves the transport's analytic short-circuit delivers every message
at exactly the time the full simulation does.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

__all__ = [
    "SIM_VERSION",
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "StopProcess",
    "NORMAL",
    "URGENT",
]

#: Version of the timing model implemented by the simulation substrate.
#: Bump whenever an engine/resource change can alter simulated times —
#: sweep caches (:mod:`repro.runner`) key their fingerprints on it, so a
#: bump invalidates every previously cached cell.
SIM_VERSION = "2"

#: Default scheduling priority for events.
NORMAL = 1
#: Priority for events that must fire before same-time NORMAL events.
URGENT = 0

#: Maximum number of recycled :meth:`Environment.sleep` timeouts kept.
_SLEEP_POOL_LIMIT = 256


class SimulationError(Exception):
    """Raised for violations of engine invariants (e.g. double trigger)."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class StopProcess(Exception):
    """Raised by a process to terminate itself early with a value."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


#: Single source of truth for the premature-access error so both
#: ``Event.ok`` and ``Event.value`` fail with one consistent message.
_UNTRIGGERED = "event has not been triggered yet"


def _untriggered_error(event: "Event", accessor: str) -> SimulationError:
    return SimulationError(
        f"{type(event).__name__}.{accessor} is unreadable: {_UNTRIGGERED}")


class Event:
    """A one-shot occurrence other processes can wait on.

    An event moves through three states: *pending* (created), *triggered*
    (a time has been assigned and it sits in the event queue), and
    *processed* (its callbacks have run).  Waiting processes resume with
    the event's ``value`` — or have the stored exception re-raised inside
    them if the event failed.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run and the value is readable."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise _untriggered_error(self, "ok")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event fired with (or its exception)."""
        if self._ok is None:
            raise _untriggered_error(self, "value")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Schedule this event to fire successfully at the current time."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, self.env._now, priority)
        return self

    def succeed_at(self, at: float, value: Any = None,
                   ticket: Optional[int] = None) -> "Event":
        """Schedule this event to fire successfully at time ``at``,
        which must not be in the past.  With a ``ticket`` from
        :meth:`Environment.ticket` it takes the reserved event id
        instead of the next one."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if ticket is None:
            self.env._schedule(self, at, NORMAL)
        else:
            self.env._schedule_ticket(self, at, ticket)
        self._ok = True
        self._value = value
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Schedule this event to fire with an exception.

        Any process waiting on the event will have ``exception`` raised
        at its ``yield``.  If nothing ever waits, the environment raises
        the exception at the end of the step to avoid silent failures.
        """
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self, self.env._now, priority)
        return self

    def defused(self) -> "Event":
        """Mark a failed event as handled so it is not re-raised globally."""
        self._defused = True
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None,
                 priority: int = NORMAL):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        super().__init__(env)
        self._ok = True
        self._value = value
        self.delay = delay
        env._schedule(self, env._now + delay, priority)


class _SleepTimeout(Timeout):
    """A pooled :class:`Timeout` recycled by the run loop.

    Handed out by :meth:`Environment.sleep` for the engine-internal
    fire-and-forget pattern (``yield env.sleep(delay)`` with the event
    never stored, composed, or re-waited).  Because no reference can
    survive its firing, the dispatch loop returns it to the pool —
    turning the dominant allocation of every simulation into a pop.
    """

    __slots__ = ()


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env._schedule(self, env._now, URGENT)


class Process(Event):
    """Wrap a generator as a schedulable process.

    The process is itself an :class:`Event` that fires when the
    generator returns (with the return value / :class:`StopProcess`
    value), so processes can wait on each other by yielding a process.

    It starts now, from an :class:`Initialize` event of its own, or
    when the untriggered event ``start`` fires: processes sharing a
    start event take their first steps in one dispatch, in creation
    order, as they would from their own events scheduled back to back.
    """

    __slots__ = ("_generator", "name", "_target")

    def __init__(self, env: "Environment", generator: Generator,
                 name: Optional[str] = None,
                 start: Optional[Event] = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        if start is None:
            Initialize(env, self)
        else:
            start.callbacks.append(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at the current time.

        The event the process was waiting on stays pending; the process
        may re-wait on it after handling the interrupt.
        """
        if self._ok is not None:
            raise SimulationError(f"{self.name} has already terminated")
        if self._target is None:
            raise SimulationError(f"{self.name} is not waiting on anything")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks.append(self._resume)
        work = self.env.work
        if work is not None:
            work.interrupts += 1
        self.env._schedule(interrupt_event, self.env._now, URGENT)

    # -- generator stepping -------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the fired event's outcome."""
        if self._ok is not None:
            return
        # Detach from the event we were waiting on (if any).
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        throwing = not event._ok
        if throwing:
            event._defused = True
        self._step(event._value, throwing)

    def _step(self, payload: Any, throwing: bool) -> None:
        """Run one generator step, re-stepping while yields are invalid."""
        env = self.env
        generator = self._generator
        while True:
            env._active_process = self
            try:
                if throwing:
                    target = generator.throw(payload)
                else:
                    target = generator.send(payload)
            except StopIteration as exc:
                self._finish(True, exc.value)
                return
            except StopProcess as exc:
                generator.close()
                self._finish(True, exc.value)
                return
            except BaseException as exc:
                self._finish(False, exc)
                return
            finally:
                env._active_process = None
            if isinstance(target, Event):
                if target.env is env:
                    self._wait_on(target)
                    return
                throwing = True
                payload = SimulationError(
                    "yielded event belongs to another Environment")
            else:
                throwing = True
                payload = TypeError(
                    f"process {self.name} yielded {target!r}, "
                    "which is not an Event")

    def _wait_on(self, target: Event) -> None:
        if target.callbacks is None:
            # Already processed: resume immediately at the current time.
            passthrough = Event(self.env)
            passthrough._ok = target._ok
            passthrough._value = target._value
            if not target._ok:
                target._defused = True
                passthrough._defused = True
            passthrough.callbacks.append(self._resume)
            self.env._schedule(passthrough, self.env._now, URGENT)
            self._target = passthrough
        else:
            target.callbacks.append(self._resume)
            self._target = target

    def _finish(self, ok: bool, value: Any) -> None:
        self._ok = ok
        self._value = value
        self.env._schedule(self, self.env._now, NORMAL)


class Condition(Event):
    """Fires when ``predicate(triggered_count, total)`` becomes true.

    The value of a fired condition is an ordered dict-like list of
    ``(event, value)`` pairs for events that had triggered by then.
    """

    __slots__ = ("_events", "_predicate", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event],
                 predicate: Callable[[int, int], bool]):
        super().__init__(env)
        self._events = list(events)
        self._predicate = predicate
        self._count = 0
        for event in self._events:
            if event.env is not self.env:
                raise SimulationError("events from mixed environments")
        if self._predicate(0, len(self._events)) or not self._events:
            self.succeed(self._collect())
            return
        for event in self._events:
            if event.callbacks is None:
                self._observe(event)
                if self.triggered:
                    return
            else:
                event.callbacks.append(self._observe)

    def _observe(self, event: Event) -> None:
        if self._ok is not None:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._predicate(self._count, len(self._events)):
            self.succeed(self._collect())

    def _collect(self) -> List[Tuple[Event, Any]]:
        return [(event, event._value)
                for event in self._events
                if event._ok is not None and event._ok]


class AllOf(Condition):
    """Condition that fires when *all* events have fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, events, lambda done, total: done >= total)


class AnyOf(Condition):
    """Condition that fires as soon as *any* event fires."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, events, lambda done, total: done >= 1)


class Environment:
    """Owner of simulated time and the pending-event queue.

    Time is a float; this package uses **microseconds** throughout, the
    unit the paper reports latencies in.

    Pending events live in one binary heap of ``(time, priority, eid,
    event)`` tuples, so native tuple comparison is the whole ordering
    contract.  ``_push``/``_pop`` are :func:`functools.partial`
    bindings of :func:`heapq.heappush`/:func:`heapq.heappop` over that
    heap: the engine calls them once per event, and a C-level partial
    skips the Python frame a method would cost.
    """

    __slots__ = ("_now", "_eid", "_heap", "_push", "_pop",
                 "_active_process", "_sleep_pool", "work", "tracer",
                 "metrics")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._eid = 0
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._push = partial(heappush, self._heap)
        self._pop = partial(heappop, self._heap)
        self._active_process: Optional[Process] = None
        self._sleep_pool: List[_SleepTimeout] = []
        #: The attached observers, each ``None`` when off: the
        #: deterministic work counters (:class:`repro.obs.perf.WorkMeter`),
        #: the span tracer (:class:`repro.sim.trace.Tracer`) and the
        #: metrics registry (:class:`repro.obs.metrics.MetricsRegistry`).
        #: Attaching is an assignment, detaching is ``= None``, and every
        #: instrumented site guards its observer with ``is not None``.
        self.work: Optional[Any] = None
        self.tracer: Optional[Any] = None
        self.metrics: Optional[Any] = None

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped, if any."""
        return self._active_process

    # -- event creation helpers ---------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` microseconds."""
        return Timeout(self, delay, value)

    def sleep(self, delay: float) -> Timeout:
        """A pooled fire-and-forget timeout (engine-internal fast path).

        Semantically identical to ``timeout(delay)`` — same scheduling,
        same event-id consumption, same ordering — but the event object
        is recycled by the dispatch loop after it fires.  The caller
        MUST yield it immediately and never store it, add callbacks
        after the yield, pass it to ``all_of``/``any_of``, or re-yield
        it after an :class:`Interrupt`; its identity and value are only
        valid until it fires.  User-facing code should keep using
        :meth:`timeout`.
        """
        pool = self._sleep_pool
        if not pool:
            return _SleepTimeout(self, delay)
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        event = pool.pop()
        event.callbacks = []
        event._value = None
        event._ok = True
        event._defused = False
        event.delay = delay
        self._schedule(event, self._now + delay, NORMAL)
        return event

    def ticket(self) -> int:
        """Reserve the next event id without scheduling anything.

        An event later scheduled with the ticket (see
        :meth:`sleep_until`) breaks same-time ties as if it had been
        scheduled now: a fast path that learns only later whether it
        needs an event can still order it where the full pipeline
        scheduled its counterpart.
        """
        self._eid = eid = self._eid + 1
        return eid

    def sleep_until(self, at: float,
                    ticket: Optional[int] = None) -> Timeout:
        """A pooled fire-and-forget timeout at *absolute* time ``at``.

        Same contract and pooling as :meth:`sleep`, but the event fires
        at exactly ``at`` (which must not be in the past) rather than at
        ``now + delay`` — the distinction matters to booking fast paths
        that must land on a pre-computed end time bit-for-bit.  With a
        ``ticket`` from :meth:`ticket` it takes the reserved event id
        instead of the next one.
        """
        now = self._now
        if at < now:
            raise ValueError(f"sleep_until past time {at!r} < {now!r}")
        pool = self._sleep_pool
        if pool:
            event = pool.pop()
        else:
            event = _SleepTimeout.__new__(_SleepTimeout)
            event.env = self
        event.callbacks = []
        event._value = None
        event._ok = True
        event._defused = False
        event.delay = at - now
        if ticket is None:
            self._schedule(event, at, NORMAL)
        else:
            self._schedule_ticket(event, at, ticket)
        return event

    def _schedule_ticket(self, event: Event, at: float, ticket: int) -> None:
        """Schedule ``event`` at ``at`` with the event id reserved by
        ``ticket`` (see :meth:`ticket`) instead of the next one."""
        # _schedule hands out the id after the counter's value.
        counter, self._eid = self._eid, ticket - 1
        self._schedule(event, at, NORMAL)
        self._eid = counter

    def process(self, generator: Generator, name: Optional[str] = None,
                start: Optional[Event] = None) -> Process:
        """Register ``generator`` as a new process starting now, or
        when the untriggered event ``start`` fires."""
        return Process(self, generator, name=name, start=start)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires once every event in ``events`` has fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires once any event in ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling and stepping ----------------------------------------------
    def _schedule(self, event: Event, at: float, priority: int) -> None:
        if at < self._now:
            raise SimulationError(
                f"cannot schedule event in the past ({at} < {self._now})")
        self._eid = eid = self._eid + 1
        self._push((at, priority, eid, event))
        work = self.work
        if work is not None:
            work.events_scheduled += 1
            work.heap_pushes += 1
            # Metered depth: pushes minus pops IS the queue size while
            # the meter is attached (attach-at-start, the suite's
            # convention), without a len() call on the hot path.
            depth = work.heap_pushes - work.heap_pops
            if depth > work.heap_peak:
                work.heap_peak = depth

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        heap = self._heap
        return heap[0][0] if heap else float("inf")

    def _dispatch(self, event: Event) -> None:
        """Fire one popped event: run callbacks, recycle, re-raise."""
        callbacks = event.callbacks
        event.callbacks = None
        work = self.work
        if work is not None:
            work.events_fired += 1
            work.heap_pops += 1
            work.callbacks_dispatched += len(callbacks)
        for callback in callbacks:
            callback(event)
        if event.__class__ is _SleepTimeout:
            pool = self._sleep_pool
            if len(pool) < _SLEEP_POOL_LIMIT:
                event._value = None
                pool.append(event)
        elif not event._ok and not event._defused:
            raise event._value

    def step(self) -> None:
        """Process the single next event."""
        try:
            at, _, _, event = self._pop()
        except IndexError:
            raise SimulationError("no more events") from None
        self._now = at
        self._dispatch(event)

    def run(self, until: Optional[Any] = None) -> Any:
        """Run until the queue drains, a time is reached, or an event fires.

        ``until`` may be ``None`` (drain the queue), a number (stop when
        simulated time reaches it), or an :class:`Event` (stop when it
        fires, returning its value).  A failed stop event raises its
        exception, whether it fails during this run or already had.
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:
                if not stop_event._ok:
                    raise stop_event._value
                return stop_event._value
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(
                    f"until ({stop_time}) is in the past (now={self._now})")

        heap = self._heap
        pop = self._pop
        inf = float("inf")
        bounded = stop_time != inf
        while True:
            if bounded and (heap[0][0] if heap else inf) > stop_time:
                self._now = stop_time
                return None
            try:
                at, _, _, event = pop()
            except IndexError:
                break
            self._now = at
            self._dispatch(event)
            if stop_event is not None and stop_event.callbacks is None:
                if not stop_event._ok:
                    raise stop_event._value
                return stop_event._value
        if stop_event is not None:
            raise SimulationError(
                "run() until an event that can no longer fire")
        return None
