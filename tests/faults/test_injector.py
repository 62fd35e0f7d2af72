"""Tests for the fault-injection runtime: point queries, determinism,
stream isolation, and the outage watchdog."""

import pytest

from repro.faults import (
    FAULT_FREE,
    FaultPlan,
    LinkDegradation,
    LinkOutage,
    NicStall,
    NodeSlowdown,
    fault_preset,
)
from repro.mpi import MpiWorld
from repro.sim import RandomStreams

MB = 1 << 20


def _send_program(nbytes):
    """Rank 0 sends ``nbytes`` to rank 1; everyone else idles."""

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, nbytes)
        elif ctx.rank == 1:
            yield from ctx.recv(0)
            return ctx.wtime()
        return None
        yield  # pragma: no cover - make every rank a generator

    return program


def test_fault_free_plan_builds_no_injector():
    world = MpiWorld("t3d", 4, seed=1, faults=FAULT_FREE)
    assert world.machine.injector is None


def test_fault_free_plan_changes_no_timing():
    baseline = MpiWorld("t3d", 8, seed=7).run_collective(
        "broadcast", 4096)
    with_plan = MpiWorld("t3d", 8, seed=7,
                         faults=FAULT_FREE).run_collective(
        "broadcast", 4096)
    assert with_plan == baseline


def test_point_queries():
    plan = FaultPlan(
        name="composite",
        link_outages=(LinkOutage(src=0, dst=1, start_us=100.0,
                                 end_us=200.0),),
        link_degradations=(LinkDegradation(src=1, dst=2, factor=3.0,
                                           start_us=0.0),),
        nic_stalls=(NicStall(node=2, start_us=50.0,
                             duration_us=25.0),),
        node_slowdowns=(NodeSlowdown(node=3, factor=2.0,
                                     start_us=0.0, end_us=500.0),),
    )
    world = MpiWorld("t3d", 8, seed=0, faults=plan)
    injector = world.machine.injector
    topology = world.machine.topology

    assert injector.dead_links(0.0) == frozenset()
    dead_link = topology.route(0, 1)[0]
    assert injector.dead_links(150.0) == frozenset({dead_link})
    assert injector.dead_links(250.0) == frozenset()

    degraded = topology.route(1, 2)[0]
    assert injector.degrade_factor(degraded, 10.0) == 3.0
    assert injector.degrade_factor(dead_link, 10.0) == 1.0
    assert injector.route_degrade_factor([dead_link, degraded],
                                         10.0) == 3.0

    # The stall query records nothing; the grant-time delay does.
    assert injector.nic_stall(2, 60.0) == pytest.approx(15.0)
    assert injector.nic_stall_total_us == 0.0
    assert injector.nic_delay(2, 60.0) == pytest.approx(15.0)
    assert injector.nic_stall_total_us == pytest.approx(15.0)
    assert injector.nic_delay(2, 80.0) == 0.0
    assert injector.nic_delay(0, 60.0) == 0.0

    # An outage touches a route over [start, end] when the link is dead
    # at start or dies by end, the closing instant included.
    route = [degraded, dead_link]
    assert injector.route_outage(route, 150.0, 160.0)
    assert injector.route_outage(route, 50.0, 100.0)
    assert not injector.route_outage(route, 50.0, 99.9)
    assert not injector.route_outage(route, 200.0, 300.0)
    assert not injector.route_outage([degraded], 150.0, 160.0)

    assert injector.cpu_factor(3, 100.0) == 2.0
    assert injector.cpu_factor(3, 600.0) == 1.0
    assert injector.cpu_factor(1, 100.0) == 1.0


def test_fault_referencing_missing_node_rejected():
    plan = FaultPlan(nic_stalls=(NicStall(node=10, start_us=0.0,
                                          duration_us=1.0),))
    with pytest.raises(ValueError, match="node 10"):
        MpiWorld("t3d", 4, seed=0, faults=plan)


def test_link_fault_needs_distinct_nodes():
    plan = FaultPlan(link_outages=(LinkOutage(src=2, dst=2),))
    with pytest.raises(ValueError, match="distinct nodes"):
        MpiWorld("t3d", 4, seed=0, faults=plan)


def test_scheduled_faults_leave_message_stream_untouched():
    # A plan without probabilistic faults must not consume the
    # faults.message stream, so its draws stay aligned with a fresh
    # RandomStreams at the same seed.
    world = MpiWorld("t3d", 8, seed=42,
                     faults=fault_preset("single-link-outage"))
    world.run_collective("broadcast", 1024)
    fresh = RandomStreams(42)
    assert world.streams.uniform("faults.message", 0.0, 1.0) == \
        fresh.uniform("faults.message", 0.0, 1.0)


def test_probabilistic_fates_are_seed_deterministic():
    plan = fault_preset("lossy")

    def run():
        world = MpiWorld("sp2", 8, seed=13, faults=plan)
        elapsed = world.run_collective("alltoall", 2048)
        injector = world.machine.injector
        return (elapsed, injector.messages_lost,
                injector.messages_corrupted, injector.retransmits)

    assert run() == run()


def test_outage_watchdog_aborts_in_flight_transfer():
    # A 1 MB transfer is on the wire when the 0->1 link dies at
    # t=2000; the watchdog interrupts it, the transport waits out the
    # RTO, and the retransmission goes around the dead link.
    plan = FaultPlan(
        name="mid-flight",
        link_outages=(LinkOutage(src=0, dst=1, start_us=2000.0),))
    clean = MpiWorld("t3d", 8, seed=3)
    clean_done = clean.run(_send_program(MB))[1]
    world = MpiWorld("t3d", 8, seed=3, faults=plan)
    done = world.run(_send_program(MB))[1]
    injector = world.machine.injector
    assert injector.transfers_aborted == 1
    assert injector.retransmits >= 1
    assert injector.reroutes >= 1
    assert done > clean_done  # the RTO + detour cost is visible


def test_outage_from_start_reroutes_without_abort():
    plan = FaultPlan(
        name="down-from-boot",
        link_outages=(LinkOutage(src=0, dst=1, start_us=0.0),))
    world = MpiWorld("t3d", 8, seed=3, faults=plan)
    world.run(_send_program(4096))
    injector = world.machine.injector
    assert injector.reroutes >= 1
    assert injector.transfers_aborted == 0
