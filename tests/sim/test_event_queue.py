"""The environment's one pending-event queue.

Pending events live in a single binary heap of ``(time, priority, eid,
event)`` tuples owned by :class:`~repro.sim.Environment`.  These tests
pin that ordering contract and the queue bookkeeping around it —
``peek``, bounded ``run``, the work meter's push/pop/peak counters —
so a regression fails with a named cause rather than as a shifted
simulated time somewhere downstream.
"""

import random

import pytest

from repro.obs.perf import WorkMeter
from repro.sim import Environment, SimulationError, Timeout
from repro.sim.engine import NORMAL, URGENT


def _tagged(env, delay, tag, fired, priority=NORMAL):
    event = Timeout(env, delay, priority=priority)
    event.callbacks.append(lambda _event: fired.append(tag))
    return event


def test_pops_in_time_priority_eid_order():
    env = Environment()
    fired = []
    # (delay, priority) in scheduling order; the tag is the eid order.
    plan = [(5.0, NORMAL), (5.0, URGENT), (1.0, NORMAL), (5.0, NORMAL),
            (0.5, NORMAL), (1.0, URGENT)]
    for tag, (delay, priority) in enumerate(plan):
        _tagged(env, delay, tag, fired, priority)
    env.run()
    expected = sorted(range(len(plan)),
                      key=lambda tag: (plan[tag][0], plan[tag][1], tag))
    assert fired == expected == [4, 5, 2, 1, 0, 3]


def test_exact_ties_pop_by_eid():
    rng = random.Random(1997)
    env = Environment()
    fired = []
    # Few distinct times, many events: most pops break a tie on eid.
    delays = [float(rng.randrange(4)) for _ in range(200)]
    for tag, delay in enumerate(delays):
        _tagged(env, delay, tag, fired)
    env.run()
    assert fired == sorted(range(len(delays)),
                           key=lambda tag: (delays[tag], tag))


def test_peek_time_matches_next_step():
    env = Environment()
    assert env.peek() == float("inf")
    for delay in (4.0, 1.5, 8.0, 1.5):
        env.timeout(delay)
    while env.peek() != float("inf"):
        expected = env.peek()
        env.step()
        assert env.now == expected
    assert env.now == 8.0
    with pytest.raises(SimulationError, match="no more events"):
        env.step()


def test_bounded_run_fires_events_at_the_boundary():
    env = Environment()
    fired = []
    _tagged(env, 2.0, "at", fired)
    _tagged(env, 2.0 + 1e-9, "after", fired)
    env.run(until=2.0)
    assert fired == ["at"]
    assert env.now == 2.0
    assert env.peek() == 2.0 + 1e-9
    env.run()
    assert fired == ["at", "after"]


def test_step_and_run_drain_one_queue():
    env = Environment()
    fired = []
    for tag, delay in enumerate((3.0, 1.0, 2.0, 4.0)):
        _tagged(env, delay, tag, fired)
    env.step()
    env.run(until=2.5)
    env.step()
    env.run()
    assert fired == [1, 2, 0, 3]
    assert env.peek() == float("inf")


def test_environments_do_not_share_a_queue():
    first, second = Environment(), Environment()
    first.timeout(1.0)
    first.timeout(2.0)
    assert second.peek() == float("inf")
    second.timeout(7.0)
    first.run()
    assert first.now == 2.0
    assert second.peek() == 7.0
    second.run()
    assert second.now == 7.0


def test_heap_peak_tracks_queue_depth():
    env = Environment()
    env.work = meter = WorkMeter()
    depths = []

    def worker(delay):
        yield env.timeout(delay)
        depths.append(len(env._heap))

    for i in range(6):
        env.process(worker(float(i + 1)))
    depths.append(len(env._heap))
    env.run()
    # Six Initialize events plus, at most, six pending timeouts.
    assert meter.heap_peak == 6
    assert meter.heap_peak >= max(depths)


def test_push_and_pop_counters_balance_after_drain():
    env = Environment()
    env.work = meter = WorkMeter()

    def worker(delay):
        for _ in range(3):
            yield env.sleep(delay)

    for i in range(4):
        env.process(worker(float(i + 1)))
    env.run()
    assert not env._heap
    assert meter.heap_pushes == meter.heap_pops == meter.events_fired
    assert meter.events_scheduled == meter.heap_pushes
    # Per worker: one Initialize, three sleeps, one process end.
    assert meter.events_fired == 4 * 5


def test_pooled_sleeps_keep_scheduling_order():
    env = Environment()
    fired = []

    def sleeper(tag, use_until):
        yield env.sleep(1.0)
        if use_until:
            yield env.sleep_until(3.0)
        else:
            yield env.timeout(2.0)
        fired.append(tag)

    # Equal end times throughout: the order is the scheduling order,
    # whether the event is pooled, absolute, or a plain timeout.
    for tag in range(6):
        env.process(sleeper(tag, use_until=tag % 2 == 0))
    env.run()
    assert fired == list(range(6))
    assert env.now == 3.0


def test_failed_event_leaves_queue_intact():
    env = Environment()
    fired = []
    _tagged(env, 1.0, "before", fired)
    env.event().fail(RuntimeError("boom"))
    _tagged(env, 2.0, "after", fired)
    with pytest.raises(RuntimeError, match="boom"):
        env.run()
    assert env.now == 0.0
    assert env.peek() == 1.0
    env.run()
    assert fired == ["before", "after"]
