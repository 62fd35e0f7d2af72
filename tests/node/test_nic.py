"""Tests for the NIC model: duplex modes and fast (DMA-fed) path."""

import pytest

from repro.node import Nic
from repro.obs import MetricsRegistry
from repro.sim import Environment


def run_leg(env, generator, result, key):
    def proc():
        start = env.now
        yield from generator
        result[key] = env.now - start
    env.process(proc())


def test_occupancy_includes_per_message_cost():
    env = Environment()
    nic = Nic(env, per_message_us=2.0, bandwidth_mbs=100.0)
    assert nic.occupancy_us(1048) == pytest.approx(2.0 + 1048 / 104.8576)


def test_fast_path_uses_fast_bandwidth():
    env = Environment()
    nic = Nic(env, per_message_us=0.0, bandwidth_mbs=100.0,
              fast_bandwidth_mbs=300.0)
    slow = nic.occupancy_us(3000, fast=False)
    fast = nic.occupancy_us(3000, fast=True)
    assert slow == pytest.approx(3 * fast)


def test_fast_defaults_to_normal_bandwidth():
    env = Environment()
    nic = Nic(env, per_message_us=0.0, bandwidth_mbs=100.0)
    assert nic.occupancy_us(512, fast=True) == nic.occupancy_us(512)


def test_full_duplex_tx_rx_parallel():
    env = Environment()
    nic = Nic(env, per_message_us=0.0, bandwidth_mbs=100.0,
              half_duplex=False)
    single = nic.occupancy_us(10486)
    result = {}
    run_leg(env, nic.transmit(10486), result, "tx")
    run_leg(env, nic.receive(10486), result, "rx")
    env.run()
    assert result["tx"] == pytest.approx(single)
    assert result["rx"] == pytest.approx(single)  # concurrent


def test_half_duplex_tx_rx_serialize():
    env = Environment()
    nic = Nic(env, per_message_us=0.0, bandwidth_mbs=100.0,
              half_duplex=True)
    single = nic.occupancy_us(10486)
    result = {}
    run_leg(env, nic.transmit(10486), result, "tx")
    run_leg(env, nic.receive(10486), result, "rx")
    env.run()
    assert result["tx"] == pytest.approx(single)
    assert result["rx"] == pytest.approx(2 * single)  # shared engine


def test_same_direction_messages_serialize():
    env = Environment()
    nic = Nic(env, per_message_us=1.0, bandwidth_mbs=100.0)
    result = {}
    run_leg(env, nic.transmit(10486), result, "first")
    run_leg(env, nic.transmit(10486), result, "second")
    env.run()
    assert result["second"] == pytest.approx(2 * result["first"])


def test_wait_recorded_alike_when_booked_processed_or_committed():
    """Back-to-back messages wait for the engine: the wait lands in
    ``nic.tx.wait_us`` whether the message went through ``transmit``
    or was booked and committed by the transport's short-circuit."""
    env = Environment()
    env.metrics = MetricsRegistry()
    nic = Nic(env, per_message_us=1.0, bandwidth_mbs=100.0)
    single = nic.occupancy_us(1000)
    booked = nic.try_book_transmit(1000)
    nic.record_transmit()
    nic.observe_transmit(1000, False, booked[3])
    run_leg(env, nic.transmit(1000), {}, "processed")
    env.run()
    booked = nic.try_book_transmit(1000)
    assert booked[0] == pytest.approx(env.now + single)
    nic.record_transmit()
    nic.observe_transmit(1000, False, booked[3])
    snapshot = env.metrics.snapshot()
    assert snapshot["nic.tx.messages"]["value"] == 3
    assert snapshot["nic.tx.busy_us"]["count"] == 3
    # The first booking and the one after the run found it idle.
    assert snapshot["nic.tx.wait_us"]["count"] == 1
    assert snapshot["nic.tx.wait_us"]["max"] == pytest.approx(single)
    assert "nic.rx.wait_us" not in snapshot
    assert nic.messages_sent == 3


class _StallOver:
    """An injector stand-in whose NIC stalls span ``[start, end)``."""

    def __init__(self, start, end):
        self.start, self.end = start, end

    def nic_stall(self, node, now):
        return self.end - now if self.start <= now < self.end else 0.0


def test_a_booking_that_would_start_in_a_stall_is_refused():
    """Under a fault plan a booking starting inside a NIC stall is
    rolled back: only the protocol path holds the engine over a stall.
    A back-to-back booking is checked at its own start."""
    env = Environment()
    nic = Nic(env, per_message_us=1.0, bandwidth_mbs=100.0,
              injector=_StallOver(1.0, 5.0))
    first = nic.try_book_transmit(0)
    assert first[3] == 0.0 and first[0] == 1.0
    assert nic.try_book_transmit(0) is None    # would start at 1.0
    assert nic.tx_engine.booked_until == 1.0   # rolled back
    env.run(until=6.0)
    assert nic.try_book_transmit(0)[3] == 6.0


def test_message_counters():
    env = Environment()
    nic = Nic(env, per_message_us=0.0, bandwidth_mbs=100.0)
    result = {}
    run_leg(env, nic.transmit(10), result, "tx")
    run_leg(env, nic.receive(10), result, "rx")
    env.run()
    assert nic.messages_sent == 1
    assert nic.messages_received == 1


def test_invalid_parameters_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        Nic(env, per_message_us=0.0, bandwidth_mbs=0.0)
    with pytest.raises(ValueError):
        Nic(env, per_message_us=-1.0, bandwidth_mbs=10.0)
    with pytest.raises(ValueError):
        Nic(env, per_message_us=0.0, bandwidth_mbs=10.0,
            fast_bandwidth_mbs=0.0)
    nic = Nic(env, per_message_us=0.0, bandwidth_mbs=10.0)
    with pytest.raises(ValueError):
        list(nic.transmit(-1))
