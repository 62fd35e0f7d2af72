"""Unit tests for Resource."""

import pytest

from repro.obs.perf import WorkMeter
from repro.sim import Environment, Resource, SimulationError
from repro.sim.resources import WAKE_PENDING


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    grants = []

    def worker(i):
        req = res.request()
        yield req
        grants.append((i, env.now))
        yield env.timeout(10.0)
        res.release(req)

    for i in range(4):
        env.process(worker(i))
    env.run()
    # Two immediately, two after the first pair releases at t=10.
    assert grants == [(0, 0.0), (1, 0.0), (2, 10.0), (3, 10.0)]


def test_resource_fifo_ordering():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(i, arrival):
        yield env.timeout(arrival)
        req = res.request()
        yield req
        order.append(i)
        yield env.timeout(5.0)
        res.release(req)

    env.process(worker(0, 0.0))
    env.process(worker(1, 1.0))
    env.process(worker(2, 2.0))
    env.run()
    assert order == [0, 1, 2]


def test_resource_context_manager_releases():
    env = Environment()
    res = Resource(env, capacity=1)
    times = []

    def worker():
        with res.request() as req:
            yield req
            times.append(env.now)
            yield env.timeout(3.0)

    env.process(worker())
    env.process(worker())
    env.run()
    assert times == [0.0, 3.0]


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_release_of_unheld_request_rejected():
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.request()

    def drain():
        yield req
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    env.process(drain())
    env.run()


def test_release_of_queued_request_cancels_it():
    env = Environment()
    res = Resource(env, capacity=1)
    held = res.request()  # granted immediately
    queued = res.request()
    res.release(queued)  # cancel before grant
    assert res.queue_length == 0
    res.release(held)
    assert res.count == 0


def test_sim_exports_no_store():
    import repro.sim

    assert not {"Store", "FilterStore"} & set(repro.sim.__all__)
    assert not hasattr(repro.sim, "Store")


def test_resource_counters():
    env = Environment()
    res = Resource(env, capacity=1)
    first = res.request()
    res.request()
    assert res.count == 1
    assert res.queue_length == 1
    res.release(first)
    assert res.count == 1  # queued request got the grant
    assert res.queue_length == 0


# -- timestamp bookings (the engine speed overhaul's fast path) -----------

def test_try_occupy_books_contiguously():
    env = Environment()
    resource = Resource(env, capacity=1)
    first = resource.try_occupy(5.0)
    assert first == (0.0, float("-inf"))
    assert resource.booked_until == 5.0
    # Back-to-back booking starts exactly where the previous one ends —
    # the instant a queued request would have been granted.
    second = resource.try_occupy(2.5)
    assert second == (5.0, 5.0)
    assert resource.booked_until == 7.5


def test_try_occupy_refused_on_held_or_contended_resource():
    env = Environment()
    shared = Resource(env, capacity=2)
    assert shared.try_occupy(1.0) is None  # only capacity-1 is bookable

    held = Resource(env, capacity=1)
    grant = held.request()
    assert held.try_occupy(1.0) is None  # a user holds it

    held.release(grant)
    assert held.try_occupy(1.0) is not None


def test_undo_occupy_restores_previous_booking():
    env = Environment()
    resource = Resource(env, capacity=1)
    resource.try_occupy(4.0)
    booking = resource.try_occupy(3.0)
    assert booking is not None
    resource.undo_occupy(booking[1])
    assert resource.booked_until == 4.0


def test_request_during_booking_waits_for_expiry():
    """A request arriving mid-booking is granted exactly when the
    booking expires — time-equivalent to queueing behind a real
    holder's release."""
    env = Environment()
    resource = Resource(env, capacity=1)
    grant_times = []

    def booker():
        booking = resource.try_occupy(6.0)
        assert booking is not None
        yield env.timeout(6.0)

    def requester():
        yield env.timeout(1.0)  # booking is active now
        request = resource.request()
        yield request
        grant_times.append(env.now)
        resource.release(request)

    env.process(booker())
    env.process(requester())
    env.run()
    assert grant_times == [6.0]


def test_booking_respects_fifo_among_queued_requests():
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def requester(name, arrive):
        yield env.timeout(arrive)
        request = resource.request()
        yield request
        order.append((name, env.now))
        yield env.timeout(1.0)
        resource.release(request)

    resource.try_occupy(5.0)
    env.process(requester("first", 1.0))
    env.process(requester("second", 2.0))
    env.run()
    assert order == [("first", 5.0), ("second", 6.0)]


def test_booking_counts_as_occupancy_not_grant():
    env = Environment()
    meter = WorkMeter()
    env.work = meter
    resource = Resource(env, capacity=1)

    def booker():
        booking = resource.try_occupy(2.0)
        assert booking is not None
        env.work.resource_occupancies += 1  # the callers' convention
        yield env.sleep_until(booking[0] + 2.0)

    env.process(booker())
    env.run()
    assert meter.resource_occupancies == 1
    assert meter.resource_requests == 0
    assert meter.resource_grants == 0


def _grant_order(wake_ticket_at_booking):
    """A booking until 6.0; ``queued`` requests at 1.0, behind it;
    ``late`` schedules its request for 6.0 at 0.5.  Returns the order
    the two are granted in.  With ``wake_ticket_at_booking`` the booker
    reserves its wakeup's place when it books, before ``late`` does."""
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []
    resource.try_occupy(6.0)
    if wake_ticket_at_booking:
        resource.wake_ticket = env.ticket()

    def user(name, wait, then):
        yield env.timeout(wait)
        yield env.timeout(then)
        request = resource.request()
        yield request
        order.append(name)
        yield env.timeout(1.0)
        resource.release(request)

    env.process(user("queued", 1.0, 0.0))
    env.process(user("late", 0.5, 5.5))
    env.run()
    return order


def test_a_wake_ticket_places_the_booking_expiry_among_same_time_events():
    """Without a ticket the expiry wakeup is scheduled when the first
    request queues, after ``late``'s timeout, which then finds the
    resource free; with one it takes the place reserved at booking,
    where a holder's release would have granted the queued request."""
    assert _grant_order(False) == ["late", "queued"]
    assert _grant_order(True) == ["queued", "late"]


def test_a_pending_wake_ticket_defers_the_wakeup_until_placed():
    env = Environment()
    resource = Resource(env, capacity=1)
    resource.try_occupy(6.0)
    resource.wake_ticket = WAKE_PENDING
    request = resource.request()
    env.run(until=10.0)
    assert not request.triggered      # no wakeup was scheduled
    env = Environment()
    resource = Resource(env, capacity=1)
    resource.try_occupy(6.0)
    resource.wake_ticket = WAKE_PENDING
    request = resource.request()
    env.run(until=3.0)
    resource.place_wakeup(env.ticket())
    env.run()
    assert request.triggered and env.now == 6.0
