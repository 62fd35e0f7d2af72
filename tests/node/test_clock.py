"""Tests for the skewed per-node wall clock."""

import pytest

from repro.node import NodeClock
from repro.sim import Environment


def test_clock_reads_offset():
    env = Environment()
    clock = NodeClock(env, offset_us=100.0)
    assert clock.read() == 100.0


def test_clock_advances_with_time():
    env = Environment()
    clock = NodeClock(env, offset_us=10.0)

    def proc():
        yield env.timeout(5.0)

    env.process(proc())
    env.run()
    assert clock.read() == 15.0


def test_clock_differences_cancel_offset():
    env = Environment()
    clock = NodeClock(env, offset_us=12345.0)
    start = clock.read()

    def proc():
        yield env.timeout(7.0)

    env.process(proc())
    env.run()
    assert clock.elapsed(start) == pytest.approx(7.0)


def test_clock_drift_scales_elapsed():
    env = Environment()
    clock = NodeClock(env, drift=0.01)
    start = clock.read()

    def proc():
        yield env.timeout(100.0)

    env.process(proc())
    env.run()
    assert clock.elapsed(start) == pytest.approx(101.0)


def test_clock_resolution_quantizes():
    env = Environment(initial_time=10.37)
    clock = NodeClock(env, resolution_us=0.5)
    assert clock.read() == 10.0


def test_clock_reads_at_an_explicit_time():
    """``read(at=t)`` is what ``read()`` gives once the clock is at
    ``t``, drift and tick included."""
    env = Environment()
    clock = NodeClock(env, offset_us=3.0, drift=0.01, resolution_us=0.25)
    early = clock.read(at=42.7)

    def proc():
        yield env.timeout(42.7)

    env.process(proc())
    env.run()
    assert early == clock.read()
    assert clock.read(at=0.0) == 3.0


def test_clocks_disagree_across_nodes():
    env = Environment()
    a = NodeClock(env, offset_us=3.0)
    b = NodeClock(env, offset_us=400.0)
    assert a.read() != b.read()


def test_negative_resolution_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        NodeClock(env, resolution_us=-1.0)
