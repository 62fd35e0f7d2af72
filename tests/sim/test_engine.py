"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
    StopProcess,
    Timeout,
)


def test_time_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_time():
    env = Environment()

    def proc():
        yield env.timeout(5.0)
        return env.now

    p = env.process(proc())
    env.run()
    assert env.now == 5.0
    assert p.value == 5.0


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_timeout_carries_value():
    env = Environment()

    def proc():
        got = yield env.timeout(1.0, value="payload")
        return got

    p = env.process(proc())
    env.run()
    assert p.value == "payload"


def test_sequential_timeouts_accumulate():
    env = Environment()
    times = []

    def proc():
        for delay in (1.0, 2.0, 3.5):
            yield env.timeout(delay)
            times.append(env.now)

    env.process(proc())
    env.run()
    assert times == [1.0, 3.0, 6.5]


def test_processes_interleave_by_time():
    env = Environment()
    order = []

    def worker(name, delay):
        yield env.timeout(delay)
        order.append(name)

    env.process(worker("b", 2.0))
    env.process(worker("a", 1.0))
    env.process(worker("c", 3.0))
    env.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_creation_order():
    env = Environment()
    order = []

    def worker(name):
        yield env.timeout(1.0)
        order.append(name)

    for name in ("first", "second", "third"):
        env.process(worker(name))
    env.run()
    assert order == ["first", "second", "third"]


def test_process_waits_on_process():
    env = Environment()

    def child():
        yield env.timeout(4.0)
        return 42

    def parent():
        value = yield env.process(child())
        return (env.now, value)

    p = env.process(parent())
    env.run()
    assert p.value == (4.0, 42)


def test_wait_on_already_finished_process():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        return "done"

    def parent(child_proc):
        yield env.timeout(10.0)
        value = yield child_proc
        return value

    c = env.process(child())
    p = env.process(parent(c))
    env.run()
    assert p.value == "done"
    assert env.now == 10.0


def test_manual_event_succeed():
    env = Environment()
    gate = env.event()
    reached = []

    def waiter():
        value = yield gate
        reached.append((env.now, value))

    def opener():
        yield env.timeout(7.0)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert reached == [(7.0, "open")]


def test_event_cannot_trigger_twice():
    env = Environment()
    gate = env.event()
    gate.succeed(1)
    with pytest.raises(SimulationError):
        gate.succeed(2)
    with pytest.raises(SimulationError):
        gate.succeed_at(5.0, 3)


def test_event_succeeds_at_a_later_time():
    env = Environment()
    gate = env.event()
    reached = []

    def waiter():
        reached.append((yield gate))
        reached.append(env.now)

    env.process(waiter())
    gate.succeed_at(4.5, "open")
    with pytest.raises(SimulationError):
        env.event().succeed_at(-1.0)
    env.run()
    assert reached == ["open", 4.5]


def test_failed_event_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer():
        yield env.timeout(1.0)
        gate.fail(RuntimeError("boom"))

    env.process(waiter())
    env.process(failer())
    env.run()
    assert caught == ["boom"]


def test_unhandled_failed_event_propagates():
    env = Environment()

    def failer():
        yield env.timeout(1.0)
        env.event().fail(RuntimeError("unheard"))

    env.process(failer())
    with pytest.raises(RuntimeError, match="unheard"):
        env.run()


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")  # type: ignore[arg-type]


def test_all_of_waits_for_every_event():
    env = Environment()

    def proc():
        yield env.all_of([env.timeout(1.0), env.timeout(5.0),
                          env.timeout(3.0)])
        return env.now

    p = env.process(proc())
    env.run()
    assert p.value == 5.0


def test_any_of_fires_on_first_event():
    env = Environment()

    def proc():
        yield env.any_of([env.timeout(9.0), env.timeout(2.0)])
        return env.now

    p = env.process(proc())
    env.run()
    assert p.value == 2.0


def test_all_of_empty_fires_immediately():
    env = Environment()

    def proc():
        yield env.all_of([])
        return env.now

    p = env.process(proc())
    env.run()
    assert p.value == 0.0


def test_run_until_time_stops_early():
    env = Environment()
    hits = []

    def proc():
        while True:
            yield env.timeout(1.0)
            hits.append(env.now)

    env.process(proc())
    env.run(until=3.5)
    assert hits == [1.0, 2.0, 3.0]
    assert env.now == 3.5


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(2.0)
        return "finished"

    p = env.process(proc())
    assert env.run(until=p) == "finished"


def test_run_until_past_time_rejected():
    env = Environment()
    env.process(iter_timeout(env, 5.0))
    env.run()
    with pytest.raises(ValueError):
        env.run(until=1.0)


def iter_timeout(env, delay):
    yield env.timeout(delay)


def test_interrupt_raises_in_target():
    env = Environment()
    outcomes = []

    def sleeper():
        try:
            yield env.timeout(100.0)
            outcomes.append("slept")
        except Interrupt as exc:
            outcomes.append(("interrupted", env.now, exc.cause))

    def interrupter(target):
        yield env.timeout(3.0)
        target.interrupt("wake up")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert outcomes == [("interrupted", 3.0, "wake up")]


def test_interrupt_dead_process_rejected():
    env = Environment()
    p = env.process(iter_timeout(env, 1.0))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_stop_process_terminates_with_value():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        raise StopProcess("early")
        yield env.timeout(1.0)  # pragma: no cover

    p = env.process(proc())
    env.run()
    assert p.value == "early"
    assert env.now == 1.0


def test_yielding_non_event_is_an_error():
    env = Environment()
    caught = []

    def proc():
        try:
            yield 42  # type: ignore[misc]
        except TypeError as exc:
            caught.append(str(exc))

    env.process(proc())
    env.run()
    assert caught and "not an Event" in caught[0]


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        raise ValueError("child died")

    def parent():
        try:
            yield env.process(child())
        except ValueError as exc:
            return f"saw: {exc}"

    p = env.process(parent())
    env.run()
    assert p.value == "saw: child died"


def test_peek_reports_next_event_time():
    env = Environment()
    env.process(iter_timeout(env, 4.0))
    env.run(until=0.5)
    assert env.peek() == 4.0


def test_step_on_empty_queue_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_cannot_schedule_in_the_past():
    env = Environment(initial_time=10.0)
    with pytest.raises(SimulationError):
        env._schedule(env.event(), at=5.0, priority=1)


def test_large_number_of_processes():
    env = Environment()
    done = []

    def worker(i):
        yield env.timeout(float(i % 17) + 1.0)
        done.append(i)

    for i in range(1000):
        env.process(worker(i))
    env.run()
    assert len(done) == 1000
    assert sorted(done) == list(range(1000))
