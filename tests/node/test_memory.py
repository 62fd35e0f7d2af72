"""Tests for the memory system: bus contention and warm-up."""

import pytest

from repro.node import MemorySystem
from repro.obs import MetricsRegistry
from repro.sim import Environment


def run_copy(env, memory, nbytes, result, key):
    def proc():
        start = env.now
        yield from memory.copy(nbytes)
        result[key] = env.now - start
    env.process(proc())


def test_copy_cost_linear_in_bytes():
    env = Environment()
    memory = MemorySystem(env, copy_us_per_byte=0.01)
    result = {}
    run_copy(env, memory, 1000, result, "a")
    env.run()
    assert result["a"] == pytest.approx(10.0)


def test_concurrent_copies_serialize_on_bus():
    env = Environment()
    memory = MemorySystem(env, copy_us_per_byte=0.01)
    result = {}
    run_copy(env, memory, 1000, result, "a")
    run_copy(env, memory, 1000, result, "b")
    env.run()
    assert result["a"] == pytest.approx(10.0)
    assert result["b"] == pytest.approx(20.0)  # waited for the bus


@pytest.mark.parametrize("holder", ["booking", "request"])
def test_bus_wait_recorded_alike_on_both_paths(holder):
    """A copy that finds the bus busy observes its wait in
    ``mem.bus.wait_us`` whether the bus is timestamp-booked by an
    earlier copy or held through the request protocol."""
    env = Environment()
    env.metrics = MetricsRegistry()
    memory = MemorySystem(env, copy_us_per_byte=0.01)
    result = {}
    if holder == "booking":
        run_copy(env, memory, 1000, result, "a")
    else:
        def hold():
            request = memory.bus.request()
            yield request
            yield env.timeout(10.0)
            memory.bus.release(request)
        env.process(hold())
    run_copy(env, memory, 1000, result, "b")
    env.run()
    assert result["b"] == pytest.approx(20.0)
    snapshot = env.metrics.snapshot()
    assert snapshot["mem.bus.wait_us"]["count"] == 1
    assert snapshot["mem.bus.wait_us"]["max"] == pytest.approx(10.0)
    assert snapshot["mem.copies"]["value"] == (2 if holder == "booking"
                                               else 1)


def test_zero_byte_copy_free():
    env = Environment()
    memory = MemorySystem(env, copy_us_per_byte=0.01)
    result = {}
    run_copy(env, memory, 0, result, "a")
    env.run()
    assert result["a"] == 0.0


def test_negative_copy_rejected():
    env = Environment()
    memory = MemorySystem(env, copy_us_per_byte=0.01)
    with pytest.raises(ValueError):
        list(memory.copy(-1))


def test_negative_copy_cost_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        MemorySystem(env, copy_us_per_byte=-0.01)


def test_first_touch_penalty_once():
    env = Environment()
    memory = MemorySystem(env, copy_us_per_byte=0.0, warmup_us=100.0,
                          warmup_us_per_byte=0.5)
    first = memory.first_touch_penalty(("broadcast", 64), 64)
    assert first == pytest.approx(100.0 + 32.0)
    again = memory.first_touch_penalty(("broadcast", 64), 64)
    assert again == 0.0


def test_first_touch_cost_only_reads():
    env = Environment()
    memory = MemorySystem(env, copy_us_per_byte=0.0, warmup_us=100.0,
                          warmup_us_per_byte=0.5)
    key = ("broadcast", 64)
    assert memory.first_touch_cost(key, 64) == 132.0
    assert not memory.is_warm(key)
    assert memory.first_touch_penalty(key, 64) == 132.0
    assert memory.first_touch_cost(key, 64) == 0.0


def test_first_touch_distinct_keys():
    env = Environment()
    memory = MemorySystem(env, copy_us_per_byte=0.0, warmup_us=50.0,
                          warmup_us_per_byte=0.0)
    assert memory.first_touch_penalty(("broadcast", 4), 4) == 50.0
    assert memory.first_touch_penalty(("broadcast", 8), 8) == 50.0
    assert memory.is_warm(("broadcast", 4))
    assert not memory.is_warm(("gather", 4))


def test_bytes_copied_accounting():
    env = Environment()
    memory = MemorySystem(env, copy_us_per_byte=0.001)
    result = {}
    run_copy(env, memory, 123, result, "a")
    run_copy(env, memory, 77, result, "b")
    env.run()
    assert memory.bytes_copied == 200
