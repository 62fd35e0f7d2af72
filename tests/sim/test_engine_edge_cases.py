"""Edge-case tests for the engine: conditions, interrupts, priorities."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
)
from repro.sim.engine import URGENT


def test_condition_fails_if_member_fails():
    env = Environment()
    good = env.timeout(1.0)
    bad = env.event()
    caught = []

    def waiter():
        try:
            yield env.all_of([good, bad])
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer():
        yield env.timeout(0.5)
        bad.fail(RuntimeError("member died"))

    env.process(waiter())
    env.process(failer())
    env.run()
    assert caught == ["member died"]


def test_any_of_with_already_fired_event():
    env = Environment()
    instant = env.event()
    instant.succeed("now")

    def waiter():
        yield env.timeout(1.0)  # let `instant` be processed first
        result = yield env.any_of([instant, env.timeout(50.0)])
        return (env.now, [value for _, value in result])

    p = env.process(waiter())
    env.run()
    assert p.value[0] == 1.0
    assert "now" in p.value[1]


def test_all_of_collects_values_in_member_order():
    env = Environment()

    def waiter():
        first = env.timeout(2.0, value="a")
        second = env.timeout(1.0, value="b")
        result = yield env.all_of([first, second])
        return [value for _, value in result]

    p = env.process(waiter())
    env.run()
    assert p.value == ["a", "b"]


def test_interrupt_then_rewait_on_same_event():
    env = Environment()
    moments = []

    def sleeper():
        target = env.timeout(10.0)
        try:
            yield target
        except Interrupt:
            moments.append(("interrupted", env.now))
            yield target  # resume waiting on the same timeout
        moments.append(("woke", env.now))

    def interrupter(proc):
        yield env.timeout(3.0)
        proc.interrupt()

    proc = env.process(sleeper())
    env.process(interrupter(proc))
    env.run()
    assert moments == [("interrupted", 3.0), ("woke", 10.0)]


def test_interrupt_without_target_rejected():
    env = Environment()

    def idle():
        yield env.timeout(5.0)

    proc = env.process(idle())
    # The process has not been stepped yet (no target): interrupting
    # before its Initialize fires is an error.
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_multiple_waiters_one_event():
    env = Environment()
    gate = env.event()
    woken = []

    def waiter(i):
        value = yield gate
        woken.append((i, value))

    for i in range(5):
        env.process(waiter(i))

    def opener():
        yield env.timeout(2.0)
        gate.succeed("go")

    env.process(opener())
    env.run()
    assert woken == [(i, "go") for i in range(5)]


def test_event_value_before_trigger_rejected():
    env = Environment()
    event = env.event()
    with pytest.raises(SimulationError):
        _ = event.value
    with pytest.raises(SimulationError):
        _ = event.ok


def test_environment_initial_time():
    env = Environment(initial_time=100.0)
    assert env.now == 100.0

    def proc():
        yield env.timeout(5.0)
        return env.now

    p = env.process(proc())
    env.run()
    assert p.value == 105.0


def test_run_until_event_from_other_process_failure():
    env = Environment()

    def doomed():
        yield env.timeout(1.0)
        raise ValueError("boom")

    proc = env.process(doomed())
    with pytest.raises(ValueError, match="boom"):
        env.run(until=proc)


def test_process_is_alive_lifecycle():
    env = Environment()

    def proc():
        yield env.timeout(3.0)

    p = env.process(proc())
    assert p.is_alive
    env.run()
    assert not p.is_alive
    assert p.ok


# -- consistent error surfaces (engine speed overhaul satellites) ---------

def test_untriggered_access_raises_one_consistent_message():
    """``Event.ok`` and ``Event.value`` must fail with the same
    SimulationError shape, naming the accessor and the event class."""
    env = Environment()
    for accessor in ("ok", "value"):
        fresh = env.event()
        with pytest.raises(SimulationError) as excinfo:
            getattr(fresh, accessor)
        message = str(excinfo.value)
        assert f"Event.{accessor}" in message
        assert "has not been triggered" in message


def test_untriggered_process_value_names_process_class():
    env = Environment()

    def proc():
        yield env.timeout(1.0)

    p = env.process(proc())
    with pytest.raises(SimulationError, match=r"Process\.value"):
        _ = p.value
    env.run()
    assert p.value is None  # readable once finished


def test_interrupt_of_terminated_process_raises_simulation_error():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    p = env.process(quick(), name="quick")
    env.run()
    assert not p.is_alive
    with pytest.raises(SimulationError, match="quick has already "
                                              "terminated"):
        p.interrupt()


def test_stop_process_inside_condition_waiter():
    """A waiter that raises StopProcess while parked on a Condition
    must finish cleanly with the StopProcess value, and the condition
    itself must stay consistent for other waiters."""
    from repro.sim import StopProcess

    env = Environment()
    gate = env.timeout(5.0, value="opened")

    def quitter():
        try:
            yield env.any_of([gate, env.timeout(50.0)])
        finally:
            pass
        raise StopProcess("left early")

    def stayer():
        result = yield env.all_of([gate])
        return [value for _, value in result]

    q = env.process(quitter())
    s = env.process(stayer())
    env.run()
    assert q.value == "left early"
    assert s.value == ["opened"]


def test_all_of_with_already_processed_member():
    env = Environment()
    done = env.event()
    done.succeed("early")

    def waiter():
        yield env.timeout(1.0)  # `done` is processed by now
        result = yield env.all_of([done, env.timeout(2.0, value="late")])
        return [value for _, value in result]

    p = env.process(waiter())
    env.run()
    assert p.value == ["early", "late"]
    assert env.now == 3.0


def test_any_of_with_already_failed_member_fails_consistently():
    env = Environment()
    dead = env.event()
    dead.fail(RuntimeError("pre-broken"))
    dead.defused()
    caught = []

    def waiter():
        yield env.timeout(1.0)
        try:
            yield env.any_of([dead, env.timeout(9.0)])
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(waiter())
    env.run()
    assert caught == ["pre-broken"]


# -- remaining engine branches (the sim/ coverage gate is 95%) ------------

def test_step_and_empty_step():
    env = Environment()
    fired = []
    env.timeout(2.0).callbacks.append(lambda e: fired.append(env.now))
    env.step()
    assert env.now == 2.0 and fired == [2.0]
    assert env.timeout(1.0).processed is False
    env.step()
    with pytest.raises(SimulationError, match="no more events"):
        env.step()


def test_fail_after_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed("done")
    with pytest.raises(SimulationError, match="already triggered"):
        event.fail(RuntimeError("late"))


def test_process_rejects_non_generator():
    env = Environment()
    with pytest.raises(TypeError, match="not a generator"):
        env.process(lambda: None)


def test_interrupt_counter_and_double_interrupt():
    from repro.obs.perf import WorkMeter

    env = Environment()
    meter = WorkMeter()
    env.work = meter
    handled = []

    def sleeper():
        try:
            yield env.timeout(10.0)
        except Interrupt as interrupt:
            handled.append(interrupt.cause)
        # Terminate right away: the second interrupt event then finds
        # the process already finished and must be a no-op.

    proc = env.process(sleeper())

    def interrupter():
        yield env.timeout(1.0)
        proc.interrupt("one")
        proc.interrupt("two")

    env.process(interrupter())
    env.run()
    assert handled == ["one"]
    assert meter.interrupts == 2


def test_yielding_event_from_other_environment_fails():
    env_a, env_b = Environment(), Environment()
    caught = []

    def confused():
        try:
            yield env_b.timeout(1.0)
        except SimulationError as exc:
            caught.append(str(exc))

    env_a.process(confused())
    env_a.run()
    assert caught == ["yielded event belongs to another Environment"]


def test_waiting_on_processed_failed_event_rethrows():
    env = Environment()
    dead = env.event()
    dead.fail(RuntimeError("stale failure"))
    dead.defused()
    env.run()  # process the failure now
    assert dead.processed
    caught = []

    def latecomer():
        try:
            yield dead
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(latecomer())
    env.run()
    assert caught == ["stale failure"]


def test_condition_rejects_mixed_environments():
    env_a, env_b = Environment(), Environment()
    with pytest.raises(SimulationError, match="mixed environments"):
        AllOf(env_a, [env_a.timeout(1.0), env_b.timeout(1.0)])


def test_active_process_visible_inside_step():
    env = Environment()
    seen = []

    def proc():
        seen.append(env.active_process)
        yield env.timeout(1.0)

    p = env.process(proc())
    assert env.active_process is None
    env.run()
    assert seen == [p]


def test_sleep_rejects_negative_delay_warm_and_cold():
    env = Environment()
    with pytest.raises(ValueError):
        env.sleep(-1.0)  # cold: no pooled event yet

    def warm():
        yield env.sleep(1.0)

    env.process(warm())
    env.run()  # recycles one pooled event
    with pytest.raises(ValueError):
        env.sleep(-1.0)  # warm: pooled path must validate too


def test_sleep_until_rejects_past_times():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError, match="past time"):
        env.sleep_until(9.0)

    def proc():
        yield env.sleep_until(12.0)
        return env.now

    p = env.process(proc())
    env.run()
    assert p.value == 12.0


def test_sleep_until_with_a_ticket_ties_where_it_was_reserved():
    """A ticketed sleep scheduled last still pops before a same-time
    event scheduled after the ticket was taken, and the id counter
    moves on as if nothing had been scheduled out of turn."""
    env = Environment()
    order = []

    def early():
        ticket = env.ticket()
        yield env.sleep(1.0)
        yield env.sleep_until(5.0, ticket)
        order.append("ticketed")

    def late():
        yield env.sleep_until(5.0)
        order.append("plain")

    env.process(early())
    env.process(late())
    env.run()
    assert order == ["ticketed", "plain"]
    eid = env._eid
    env.timeout(1.0)
    assert env._heap[0][2] == eid + 1


def test_succeed_at_with_a_ticket_ties_where_it_was_reserved():
    """An event triggered with a ticket pops before a same-time timeout
    created after the ticket was taken."""
    env = Environment()
    order = []
    ticket = env.ticket()
    env.timeout(2.0).callbacks.append(lambda _: order.append("timeout"))
    gate = env.event()
    gate.callbacks.append(lambda _: order.append("gate"))
    gate.succeed_at(2.0, "value", ticket)
    env.run()
    assert order == ["gate", "timeout"]
    assert gate.value == "value"


def test_processes_sharing_a_start_event_step_in_one_dispatch():
    """Processes given one start event take their first steps when it
    fires, in creation order, before any event their steps schedule."""
    env = Environment()
    start = env.event()
    steps = []

    def body(name):
        steps.append((name, env.now))
        yield env.timeout(0.0)
        steps.append((name, env.now))

    processes = [env.process(body(name), start=start) for name in "abc"]
    env.run(until=3.0)
    assert steps == []
    start.succeed(priority=URGENT)
    env.run()
    assert steps == [("a", 3.0), ("b", 3.0), ("c", 3.0),
                     ("a", 3.0), ("b", 3.0), ("c", 3.0)]
    assert all(process.ok for process in processes)


def test_run_until_already_processed_event_returns_value():
    env = Environment()
    event = env.timeout(1.0, value="early")
    env.run()
    assert env.run(until=event) == "early"


def test_run_until_defused_failed_event_reraises():
    env = Environment()

    def doomed():
        yield env.timeout(1.0)
        raise ValueError("handled elsewhere")

    proc = env.process(doomed(), name="doomed")

    def watcher():
        try:
            yield proc
        except ValueError:
            pass

    env.process(watcher())
    with pytest.raises(ValueError, match="handled elsewhere"):
        env.run(until=proc)


def test_run_until_already_processed_failed_event_raises():
    # Same outcome as waiting for the failure inside the run: raise,
    # never hand the exception back as a value.
    env = Environment()
    event = env.event()
    event.fail(RuntimeError("boom"))
    event.defused()
    env.run()
    assert event.processed
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=event)


def test_run_until_unfireable_event_rejected():
    env = Environment()
    orphan = env.event()  # never triggered, queue drains
    with pytest.raises(SimulationError, match="can no longer fire"):
        env.run(until=orphan)


def test_bounded_run_advances_clock_past_last_event():
    env = Environment()
    env.timeout(1.0)
    env.run(until=50.0)
    assert env.now == 50.0
    env.run(until=60.0)  # empty queue: pure clock advance
    assert env.now == 60.0
    with pytest.raises(ValueError, match="in the past"):
        env.run(until=5.0)


def test_profiled_run_matches_unprofiled_results():
    from repro.obs import HostProfile

    def workload(env):
        def proc():
            for _ in range(5):
                yield env.timeout(1.0)
            return env.now
        return env.process(proc())

    plain_env = Environment()
    plain = workload(plain_env)
    plain_env.run()

    profiled_env = Environment()
    profiled = workload(profiled_env)
    with HostProfile() as profile:
        profiled_env.run()

    assert plain.value == profiled.value == 5.0
    assert "sim/engine.py" in [row[0] for row in profile.modules()]


def test_environment_has_no_profiler_slot():
    assert not hasattr(Environment(), "profiler")
