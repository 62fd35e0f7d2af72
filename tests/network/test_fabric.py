"""Tests for the contended network fabric."""

import pytest

from repro.faults import (
    FaultInjector,
    FaultPlan,
    LinkDegradation,
    LinkOutage,
)
from repro.network import (
    LinkParameters,
    Mesh2D,
    NetworkFabric,
    OmegaNetwork,
    Torus3D,
    bandwidth_to_us_per_byte,
)
from repro.sim import Environment, RandomStreams, Tracer

PARAMS = LinkParameters(hop_latency_us=0.1, bandwidth_mbs=100.0)


def run_transfer(fabric, env, src, dst, nbytes, start=0.0):
    done = {}

    def proc():
        yield env.timeout(start)
        begin = env.now
        yield env.process(fabric.transfer(src, dst, nbytes))
        done["elapsed"] = env.now - begin

    env.process(proc())
    return done


def test_bandwidth_conversion():
    # 100 MB/s = 104.8576 bytes/us.
    assert bandwidth_to_us_per_byte(100.0) == pytest.approx(1 / 104.8576)
    with pytest.raises(ValueError):
        bandwidth_to_us_per_byte(0.0)


def test_uncontended_transfer_time():
    env = Environment()
    mesh = Mesh2D(4, 4)
    fabric = NetworkFabric(env, mesh, PARAMS)
    result = run_transfer(fabric, env, 0, 3, 1024)
    env.run()
    expected = 3 * 0.1 + 1024 * PARAMS.us_per_byte
    assert result["elapsed"] == pytest.approx(expected)
    assert fabric.transfer_time(0, 3, 1024) == pytest.approx(expected)


def test_self_transfer_is_free():
    env = Environment()
    fabric = NetworkFabric(env, Mesh2D(2, 2), PARAMS)
    result = run_transfer(fabric, env, 1, 1, 10 ** 6)
    env.run()
    assert result["elapsed"] == 0.0


def test_negative_size_rejected():
    env = Environment()
    fabric = NetworkFabric(env, Mesh2D(2, 2), PARAMS)
    with pytest.raises(ValueError):
        # The generator raises on first step inside the process.
        env.process(fabric.transfer(0, 1, -1))
        env.run()


def test_shared_link_serializes():
    env = Environment()
    mesh = Mesh2D(4, 1)
    fabric = NetworkFabric(env, mesh, PARAMS)
    # Both transfers use link (0,0)->(1,0).
    first = run_transfer(fabric, env, 0, 1, 1048)
    second = run_transfer(fabric, env, 0, 1, 1048)
    env.run()
    single = 0.1 + 1048 * PARAMS.us_per_byte
    assert first["elapsed"] == pytest.approx(single)
    assert second["elapsed"] == pytest.approx(2 * single)


def test_disjoint_paths_parallel():
    env = Environment()
    mesh = Mesh2D(4, 2)
    fabric = NetworkFabric(env, mesh, PARAMS)
    a = run_transfer(fabric, env, mesh.node_at(0, 0), mesh.node_at(1, 0), 2048)
    b = run_transfer(fabric, env, mesh.node_at(0, 1), mesh.node_at(1, 1), 2048)
    env.run()
    single = 0.1 + 2048 * PARAMS.us_per_byte
    assert a["elapsed"] == pytest.approx(single)
    assert b["elapsed"] == pytest.approx(single)


def test_contention_disabled_ignores_sharing():
    env = Environment()
    mesh = Mesh2D(4, 1)
    fabric = NetworkFabric(env, mesh, PARAMS, contention=False)
    first = run_transfer(fabric, env, 0, 1, 1048)
    second = run_transfer(fabric, env, 0, 1, 1048)
    env.run()
    single = 0.1 + 1048 * PARAMS.us_per_byte
    assert first["elapsed"] == pytest.approx(single)
    assert second["elapsed"] == pytest.approx(single)


def test_contention_trace_emitted():
    env = Environment()
    tracer = env.tracer = Tracer()
    fabric = NetworkFabric(env, Mesh2D(4, 1), PARAMS)
    run_transfer(fabric, env, 0, 1, 1048)
    run_transfer(fabric, env, 0, 1, 1048)
    env.run()
    marks = tracer.spans("link-contention")
    assert len(marks) == 1
    assert marks[0].detail["waited_us"] > 0
    assert marks[0].duration == 0.0
    # Both transfers show their link occupancy, the first one booked
    # without the request protocol, the second one queued behind it.
    assert len(tracer.spans("link")) == 2


def test_utilisation_accounting():
    env = Environment()
    mesh = Mesh2D(4, 1)
    fabric = NetworkFabric(env, mesh, PARAMS)
    run_transfer(fabric, env, 0, 2, 100)
    env.run()
    util = fabric.utilisation()
    assert util[("mesh", (0, 0), (1, 0))] == 100
    assert util[("mesh", (1, 0), (2, 0))] == 100
    assert len(util) == 2


def test_opposing_transfers_do_not_deadlock():
    # Two transfers crossing the same row in opposite directions must
    # both finish (ordered acquisition prevents circular wait).
    env = Environment()
    mesh = Mesh2D(8, 1)
    fabric = NetworkFabric(env, mesh, PARAMS)
    a = run_transfer(fabric, env, 0, 7, 4096)
    b = run_transfer(fabric, env, 7, 0, 4096)
    env.run()
    assert "elapsed" in a and "elapsed" in b


def test_many_crossing_transfers_complete_on_torus():
    env = Environment()
    torus = Torus3D(4, 4, 2)
    fabric = NetworkFabric(env, torus, PARAMS)
    results = [run_transfer(fabric, env, src, (src + 13) % 32, 512)
               for src in range(32)]
    env.run()
    assert all("elapsed" in r for r in results)


def test_omega_identity_permutation_conflict_free():
    env = Environment()
    net = OmegaNetwork(16, radix=2)
    fabric = NetworkFabric(env, net, PARAMS)
    results = [run_transfer(fabric, env, n, (n + 1) % 16, 0)
               for n in range(16)]
    env.run()
    # With zero payload every transfer costs stages * hop latency; some
    # may still queue if routes conflict, but all must complete.
    assert all(r["elapsed"] >= net.stages * 0.1 - 1e-9 for r in results)


def test_transfer_time_zero_bytes():
    env = Environment()
    fabric = NetworkFabric(env, Mesh2D(2, 2), PARAMS)
    assert fabric.transfer_time(0, 1, 0) == pytest.approx(0.1)


def _faulted_fabric(plan):
    env = Environment()
    topology = Mesh2D(4, 1)
    injector = FaultInjector(env, plan, RandomStreams(0), topology)
    return env, NetworkFabric(env, topology, PARAMS, injector=injector)


def test_faulted_booking_holds_a_degraded_route_like_a_transfer():
    """The booked hold carries the route's degradation factor in the
    float expression ``transfer`` uses, so it ends bit for bit where the
    simulated transfer does."""
    plan = FaultPlan(link_degradations=(
        LinkDegradation(src=0, dst=1, factor=3.0),))
    env, fabric = _faulted_fabric(plan)
    done = run_transfer(fabric, env, 0, 3, 777)
    env.run()
    env, fabric = _faulted_fabric(plan)
    hold, links = fabric.try_book_faulted_route(0, 3, 777)
    assert hold == done["elapsed"]
    assert hold > fabric.transfer_time(0, 3, 777)
    assert len(links) == 3


def test_faulted_booking_refuses_a_route_an_outage_touches():
    """Dead now, or dying before the tail leaves: nothing is booked."""
    hold = NetworkFabric(Environment(), Mesh2D(4, 1),
                         PARAMS).transfer_time(0, 3, 777)
    for start in (0.0, hold):
        env, fabric = _faulted_fabric(FaultPlan(link_outages=(
            LinkOutage(src=1, dst=2, start_us=start, end_us=50.0),)))
        assert fabric.try_book_faulted_route(0, 3, 777) is None
        assert all(fabric.link(link).resource.idle
                   for link in fabric.topology.route(0, 3))
    env, fabric = _faulted_fabric(FaultPlan(link_outages=(
        LinkOutage(src=1, dst=2, start_us=hold + 1.0, end_us=50.0),)))
    assert fabric.try_book_faulted_route(0, 3, 777)[0] == hold
