"""Tests for DMA engines and the hardwired barrier."""

import math

import pytest

from repro.node import DmaEngine, DmaParameters, HardwareBarrier, \
    TransferMode
from repro.obs import MetricsRegistry
from repro.sim import Environment

BLT = DmaParameters(kind=TransferMode.BLT, setup_us=25.0,
                    us_per_byte=0.005, min_message_bytes=4096)


def test_dma_threshold_gates_use():
    env = Environment()
    engine = DmaEngine(env, BLT)
    assert not engine.applicable(4095)
    assert engine.applicable(4096)


def test_coproc_zero_threshold_always_applies():
    env = Environment()
    engine = DmaEngine(env, DmaParameters(
        kind=TransferMode.COPROC, setup_us=1.0, us_per_byte=0.01,
        min_message_bytes=0))
    assert engine.applicable(0)
    assert engine.applicable(1)


def test_stream_cost_setup_plus_linear():
    env = Environment()
    engine = DmaEngine(env, BLT)
    result = {}

    def proc():
        start = env.now
        yield from engine.stream(8192)
        result["elapsed"] = env.now - start

    env.process(proc())
    env.run()
    assert result["elapsed"] == pytest.approx(25.0 + 8192 * 0.005)
    assert engine.bytes_streamed == 8192


def test_streams_serialize_on_engine():
    env = Environment()
    engine = DmaEngine(env, BLT)
    done = []

    def proc(i):
        yield from engine.stream(4096)
        done.append((i, env.now))

    env.process(proc(0))
    env.process(proc(1))
    env.run()
    single = 25.0 + 4096 * 0.005
    assert done[0][1] == pytest.approx(single)
    assert done[1][1] == pytest.approx(2 * single)


def test_stream_wait_histogram_only_for_streams_that_waited():
    env = Environment()
    env.metrics = MetricsRegistry()
    engine = DmaEngine(env, BLT)

    def proc():
        yield from engine.stream(4096)

    for _ in range(3):
        env.process(proc())
    env.run()
    single = 25.0 + 4096 * 0.005
    snapshot = env.metrics.snapshot()
    assert snapshot["dma.streams"]["value"] == 3
    wait = snapshot["dma.wait_us"]
    assert wait["count"] == 2  # the first stream found the engine idle
    assert wait["min"] == pytest.approx(single)
    assert wait["max"] == pytest.approx(2 * single)


def test_dma_parameter_validation():
    with pytest.raises(ValueError):
        DmaParameters(kind=TransferMode.BLT, setup_us=-1.0,
                      us_per_byte=0.0)
    with pytest.raises(ValueError):
        DmaParameters(kind=TransferMode.BLT, setup_us=0.0,
                      us_per_byte=0.0, min_message_bytes=-5)


# ---------------------------------------------------------------------------
# Hardwired barrier
# ---------------------------------------------------------------------------

def _run_barrier(participants, base_us=3.0, per_level_us=0.011,
                 staggered=False):
    env = Environment()
    barrier = HardwareBarrier(env, participants, base_us=base_us,
                              per_level_us=per_level_us)
    exits = {}

    def proc(i):
        if staggered:
            yield env.timeout(float(i))
        yield from barrier.arrive()
        exits[i] = env.now

    for i in range(participants):
        env.process(proc(i))
    env.run()
    return exits


def test_barrier_releases_all_at_same_time():
    exits = _run_barrier(8)
    assert len(set(exits.values())) == 1


def test_barrier_completion_delay():
    exits = _run_barrier(8)
    expected = 3.0 + 0.011 * math.log2(8)
    assert next(iter(exits.values())) == pytest.approx(expected)


def test_barrier_waits_for_last_arrival():
    exits = _run_barrier(4, staggered=True)
    # Last arrival at t=3; release = 3 + delay.
    expected = 3.0 + 3.0 + 0.011 * 2
    assert exits[0] == pytest.approx(expected)


def test_barrier_is_reusable():
    env = Environment()
    barrier = HardwareBarrier(env, 2)
    times = []

    def proc():
        for _ in range(3):
            yield from barrier.arrive()
            times.append(env.now)

    env.process(proc())
    env.process(proc())
    env.run()
    assert len(times) == 6
    # Three distinct release instants, each strictly later.
    instants = sorted(set(times))
    assert len(instants) == 3
    assert instants == sorted(instants)


def test_barrier_single_participant():
    exits = _run_barrier(1)
    assert exits[0] == pytest.approx(3.0)


def test_barrier_rejects_zero_participants():
    env = Environment()
    with pytest.raises(ValueError):
        HardwareBarrier(env, 0)
