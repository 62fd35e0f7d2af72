"""Shared resources for simulated processes.

One primitive covers everything the network and node models need:
:class:`Resource`, a counted resource with FIFO request queueing.
Network links, NIC injection ports, and DMA engines are capacity-1
resources; a holder models occupancy by holding the grant for the
transfer duration.

Occupancy fast path
-------------------
The request/grant/release protocol costs three events per occupancy.
For the overwhelmingly common case — a capacity-1 resource that is
*idle*, held for a known duration, and released untouched — callers can
instead **timestamp-book** the resource with :meth:`Resource.try_occupy`:
no events, no :class:`Request` object, just ``_busy_until`` advanced by
the hold time.  Bookings are only handed out while no requests are
queued or granted, and always extend contiguously from ``now`` (or from
the previous booking's end), so a booked resource is busy over exactly
the interval a request-holding process would have kept it.  A classic
``request()`` arriving during a booked interval queues exactly as if a
process held the resource, and a wakeup event grants the FIFO head when
the booking expires — at the same simulated time a real release would
have.  The differential-equivalence suite asserts this produces
identical times to the pure request/release protocol.  A booker that
must also keep the protocol's order among same-time events reserves
the wakeup's event id (:attr:`Resource.wake_ticket`): the place where
the holder's release would have run.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional, Tuple

from .engine import NORMAL, Environment, Event, SimulationError

__all__ = ["Resource", "Request", "WAKE_PENDING"]

_NEVER = float("-inf")

#: :attr:`Resource.wake_ticket` while the booker does not yet know the
#: place of the current booking's end: it calls
#: :meth:`Resource.place_wakeup` once it does.
WAKE_PENDING = -1


class Request(Event):
    """A pending claim on a :class:`Resource`.

    Fires (succeeds) when the resource grants it.  Must be returned via
    :meth:`Resource.release` when the holder is done.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)


class Resource:
    """A counted resource with strict FIFO granting.

    FIFO ordering is what makes link contention deterministic: requests
    are granted in arrival order, with ties already resolved by the
    engine's deterministic event ordering.
    """

    __slots__ = ("env", "capacity", "_waiting", "_users", "_busy_until",
                 "wake_ticket")

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._waiting: Deque[Request] = deque()
        self._users: set = set()
        #: End of the current timestamp booking (see :meth:`try_occupy`);
        #: the resource behaves as busy while ``_busy_until > now``.
        self._busy_until = _NEVER
        #: The event id (see :meth:`Environment.ticket`) the wakeup of
        #: the current booking takes, if its booker reserved one: the
        #: place among same-time events where a request-holding process
        #: would have released the resource.  ``None``: the next id;
        #: :data:`WAKE_PENDING`: not known yet.
        self.wake_ticket: Optional[int] = None

    @property
    def count(self) -> int:
        """Number of grants currently outstanding."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a grant."""
        return len(self._waiting)

    @property
    def booked_until(self) -> float:
        """End of the current timestamp booking (``-inf`` when none)."""
        return self._busy_until

    @property
    def idle(self) -> bool:
        """Whether :meth:`try_occupy` would book this resource starting
        now: capacity 1, no grant outstanding, no request queued, and
        no booking running past now."""
        return self.capacity == 1 and not self._users and \
            not self._waiting and self._busy_until <= self.env._now

    # -- timestamp-booking fast path --------------------------------------
    def try_occupy(self, duration: float) -> Optional[Tuple[float, float]]:
        """Book this resource for ``duration`` without events.

        Only possible on an idle capacity-1 resource (no users, no
        waiters).  The booking starts at ``now`` — or, back-to-back
        with an earlier booking, at that booking's end, which is
        exactly when a queued request would have been granted.  Returns
        ``(start, previous_busy_until)`` so the caller can compute the
        end time and roll the booking back with :meth:`undo_occupy`
        (restoring ``previous_busy_until``) if a multi-resource booking
        fails partway.  Returns ``None`` when the protocol path must be
        used instead.
        """
        if self.capacity != 1 or self._users or self._waiting:
            return None
        now = self.env._now
        prev = self._busy_until
        start = prev if prev > now else now
        self._busy_until = start + duration
        return start, prev

    def undo_occupy(self, previous_busy_until: float) -> None:
        """Roll back the most recent :meth:`try_occupy` booking.

        Only valid immediately after the booking, within the same
        synchronous block (no simulated time may have passed and no
        further bookings or requests may have been made).
        """
        self._busy_until = previous_busy_until

    def _schedule_wakeup(self) -> None:
        """Grant the FIFO head when the active booking expires."""
        ticket = self.wake_ticket
        if ticket is not None and ticket == WAKE_PENDING:
            return
        event = Event(self.env)
        event._ok = True
        event._value = None
        event.callbacks.append(self._wake)
        if ticket is None:
            self.env._schedule(event, self._busy_until, NORMAL)
        else:
            self.wake_ticket = None
            self.env._schedule_ticket(event, self._busy_until, ticket)

    def place_wakeup(self, ticket: int) -> None:
        """The current booking's end takes event id ``ticket``, which
        was :data:`WAKE_PENDING`: schedule the wakeup of the requests
        queued meanwhile there."""
        self.wake_ticket = ticket
        if self._waiting:
            self._schedule_wakeup()

    def _wake(self, _event: Event) -> None:
        if self._waiting and len(self._users) < self.capacity and \
                self._busy_until <= self.env._now:
            nxt = self._waiting.popleft()
            self._users.add(nxt)
            work = self.env.work
            if work is not None:
                work.resource_grants += 1
            nxt.succeed(nxt)

    # -- request/grant/release protocol -----------------------------------
    def request(self) -> Request:
        """Claim one unit; the returned event fires when granted."""
        req = Request(self)
        work = self.env.work
        if work is not None:
            work.resource_requests += 1
        if len(self._users) < self.capacity:
            if self._busy_until > self.env._now:
                # A timestamp booking holds the resource: queue exactly
                # as behind a granted request, and let the booking-end
                # wakeup play the role of the holder's release.
                if not self._waiting:
                    self._schedule_wakeup()
                self._waiting.append(req)
            else:
                if work is not None:
                    work.resource_grants += 1
                self._users.add(req)
                req.succeed(req)
        else:
            self._waiting.append(req)
        return req

    def release(self, req: Request) -> None:
        """Return a previously granted unit and wake the next waiter."""
        work = self.env.work
        if req in self._users:
            self._users.remove(req)
            if work is not None:
                work.resource_releases += 1
        elif req in self._waiting:
            # Cancelled before being granted.
            self._waiting.remove(req)
            if work is not None:
                work.resource_cancellations += 1
            return
        else:
            raise SimulationError("release of a request not held")
        if self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.add(nxt)
            if work is not None:
                work.resource_grants += 1
            nxt.succeed(nxt)

