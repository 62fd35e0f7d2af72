"""Tests for the Machine runtime wrapper (jitter, topology sizing)."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.faults import FaultPlan, NodeSlowdown
from repro.machines import Machine, PARAGON, SP2, T3D
from repro.machines.base import _JITTER_BLOCK
from repro.sim import Environment, RandomStreams
from repro.sim.rng import _derive_seed


def test_log2_nodes():
    env = Environment()
    assert Machine(env, SP2, 16).log2_nodes() == 4.0
    assert Machine(env, SP2, 3).log2_nodes() == pytest.approx(
        math.log2(3))


def test_jitter_draws_vary_but_reproduce():
    env1 = Environment()
    machine1 = Machine(env1, SP2, 4, streams=RandomStreams(9))
    draws1 = [machine1.jitter(0) for _ in range(5)]
    env2 = Environment()
    machine2 = Machine(env2, SP2, 4, streams=RandomStreams(9))
    draws2 = [machine2.jitter(0) for _ in range(5)]
    assert draws1 == draws2
    assert len(set(draws1)) > 1


def test_jitter_always_positive():
    env = Environment()
    machine = Machine(env, PARAGON, 4)
    assert all(machine.jitter(i % 4) > 0 for i in range(200))


def _spec_with_sigma(sigma):
    return replace(SP2, software=replace(SP2.software, jitter_sigma=sigma))


@pytest.mark.parametrize("seed", [0, 9, 2024])
@pytest.mark.parametrize("sigma", [0.03, 0.5, 2.0])
def test_block_drawn_jitter_matches_scalar_draws(seed, sigma):
    """Each node's jitter sequence is its ``sw.<i>`` stream drawn one
    scalar at a time, however calls interleave across nodes."""
    p = 8
    machine = Machine(Environment(), _spec_with_sigma(sigma), p,
                      streams=RandomStreams(seed))
    per_node = 3 * _JITTER_BLOCK + 5
    # Uneven interleaving: node i is called i + 1 times per round, so
    # the nodes refill their blocks at different points.
    got = {i: [] for i in range(p)}
    while any(len(draws) < per_node for draws in got.values()):
        for i in range(p):
            for _ in range(i + 1):
                if len(got[i]) < per_node:
                    got[i].append(machine.jitter(i))
    for i in range(p):
        oracle = np.random.Generator(np.random.PCG64(
            _derive_seed(seed, f"sw.{i}")))
        expected = [max(oracle.normal(1.0, sigma), 1e-3)
                    for _ in range(per_node)]
        assert got[i] == expected


def test_zero_sigma_jitter_is_one_without_a_stream():
    streams = RandomStreams(3)
    machine = Machine(Environment(), _spec_with_sigma(0.0), 4,
                      streams=streams)
    assert [machine.jitter(i % 4) for i in range(20)] == [1.0] * 20
    assert not any(name.startswith("sw.") for name in streams._streams)


def test_slowdown_and_fault_factor_compose_with_block_draws():
    plan = FaultPlan(node_slowdowns=(NodeSlowdown(node=2, factor=2.5),))
    base = Machine(Environment(), SP2, 4, streams=RandomStreams(5))
    loaded = Machine(Environment(), SP2, 4, streams=RandomStreams(5),
                     cpu_slowdown={1: 3.0}, faults=plan)
    for _ in range(2 * _JITTER_BLOCK):
        for node in range(4):
            draw = base.jitter(node)
            expected = draw * {1: 3.0}.get(node, 1.0)
            expected *= loaded.injector.cpu_factor(node, 0.0)
            assert loaded.jitter(node) == expected
    assert loaded.injector.cpu_factor(2, 0.0) == 2.5


def test_topology_sized_to_machine():
    env = Environment()
    for p in (2, 8, 24, 64):
        machine = Machine(env, PARAGON, p)
        assert machine.topology.num_nodes == p
        assert len(machine.nodes) == p


def test_nodes_have_expected_hardware():
    env = Environment()
    t3d = Machine(env, T3D, 4)
    assert all(node.dma is not None for node in t3d.nodes)
    sp2 = Machine(env, SP2, 4)
    assert all(node.dma is None for node in sp2.nodes)
    assert sp2.nodes[0].nic.half_duplex


def test_contention_flag_passes_through():
    env = Environment()
    machine = Machine(env, SP2, 4, contention=False)
    assert machine.fabric.contention is False


def test_clock_resolution_from_spec():
    env = Environment()
    machine = Machine(env, T3D, 4)
    assert machine.nodes[0].clock.resolution_us == \
        T3D.timer_resolution_us


def test_payload_mode_thresholds():
    from repro.node import TransferMode
    env = Environment()
    t3d = Machine(env, T3D, 4)
    node = t3d.nodes[0]
    # Below the BLT threshold the host path is used even when policy
    # prefers DMA.
    assert node.payload_mode(True, 100) is TransferMode.HOST
    assert node.payload_mode(True, 8192) is TransferMode.BLT
    assert node.payload_mode(False, 8192) is TransferMode.HOST
