"""The analytic short-circuit under a fault plan is taken per message,
and only where no fault can observe the difference.

The fast path books transfers with timestamp arithmetic instead of
simulating engines and links.  Under a :class:`~repro.faults.FaultPlan`
a message takes it only when its fate draw is ``ok``, neither NIC
engine booking starts in a stall, and no link outage touches its route
while it is in the network.  These tests pin that rule and prove that
faulted runs recover identically whether or not the fast path was
offered.
"""

from dataclasses import replace

import pytest

from repro.faults import FaultPlan, LinkOutage, RetryConfig, fault_preset
from repro.machines import get_machine_spec
from repro.mpi import MpiWorld
from repro.obs.perf import WorkMeter

#: Work counters of the recovery that must not depend on the wire path.
RECOVERY_WORK = ("messages_sent", "messages_delivered", "retransmissions",
                 "transfers_rerouted", "transfers_aborted")

#: The injector's own counts of the faults it resolved.
INJECTOR_COUNTERS = ("messages_lost", "messages_corrupted",
                     "transfers_aborted", "reroutes", "unroutable",
                     "retransmits", "spurious_retransmits",
                     "nic_stall_total_us")


def _build(machine, p, faults=None, fast_wire=True, seed=5):
    world = MpiWorld(machine, p, seed=seed, faults=faults,
                     fast_wire=fast_wire)
    world.env.work = WorkMeter()
    return world


def _run(machine, p, op, nbytes, faults=None, fast_wire=True, seed=5,
         iterations=1):
    """One run: its finish time, work counters and injector counters
    (empty without an injector)."""
    world = _build(machine, p, faults, fast_wire, seed)
    return _outcome(world, world.run_collective(op, nbytes,
                                                iterations=iterations))


def _outcome(world, elapsed):
    injector = world.machine.injector
    counters = {} if injector is None else \
        {name: getattr(injector, name) for name in INJECTOR_COUNTERS}
    return elapsed, world.env.work.snapshot(), counters


def _assert_same_recovery(fast, slow):
    assert fast[0] == slow[0]          # same simulated finish time
    assert fast[2] == slow[2]          # same faults, resolved alike
    for name in RECOVERY_WORK:
        assert fast[1][name] == slow[1][name], name


def test_clean_run_takes_the_short_circuit():
    _elapsed, work, counters = _run("t3d", 16, "broadcast", 4096)
    assert counters == {}
    assert work["transfers_shortcircuited"] > 0


def test_lossy_plan_short_circuits_per_message():
    """Under loss and corruption, the ``ok`` messages short-circuit and
    the others retransmit exactly as in the full simulation."""
    plan = fault_preset("lossy")
    fast = _run("sp2", 16, "alltoall", 1024, faults=plan, iterations=2)
    slow = _run("sp2", 16, "alltoall", 1024, faults=plan, iterations=2,
                fast_wire=False)
    _assert_same_recovery(fast, slow)
    assert fast[2]["retransmits"] > 0
    assert 0 < fast[1]["transfers_shortcircuited"] < \
        fast[1]["messages_sent"]
    assert slow[1]["transfers_shortcircuited"] == 0


def test_no_message_crossing_a_dying_link_short_circuits():
    """A link out of a scatter's root dies mid-run: no route booked
    analytically meets the outage within its hold, the transfer in
    flight is aborted as in the full simulation, and the link carries
    analytic transfers before and after the window."""
    start, end = 10050.0, 10100.0
    plan = FaultPlan(name="dying-link", link_outages=(
        LinkOutage(src=0, dst=1, start_us=start, end_us=end),))
    world = _build("t3d", 16, faults=plan)
    fabric = world.machine.fabric
    dying = world.machine.topology.route(0, 1)[0]
    book = fabric.try_book_faulted_route
    booked, refused = [], []

    def spy(src, dst, nbytes):
        routed = book(src, dst, nbytes)
        if dying in fabric.topology.route(src, dst):
            now = world.env.now
            if routed is None:
                refused.append(now)
            else:
                booked.append((now, now + routed[0]))
        return routed

    fabric.try_book_faulted_route = spy
    elapsed = world.run_collective("scatter", 65536, iterations=3)
    for first, last in booked:
        assert last < start or first >= end, (first, last)
    assert any(last < start for _, last in booked)
    assert any(first >= end for first, _ in booked)
    # Refused while clear of the window's start, because its tail
    # would still be in the network when the link dies.
    assert any(first < start for first in refused)
    fast = _outcome(world, elapsed)
    slow = _run("t3d", 16, "scatter", 65536, faults=plan, iterations=3,
                fast_wire=False)
    _assert_same_recovery(fast, slow)
    assert fast[2]["transfers_aborted"] > 0


def test_midflight_outage_identical_with_and_without_fast_wire():
    """A link dies while traffic is in flight: the messages it touches
    take the full pipeline, the rest short-circuit, and the recovery
    (reroutes, aborts, retransmissions) replays exactly."""
    plan = FaultPlan(
        name="midflight",
        loss_probability=0.2,
        link_outages=(LinkOutage(src=1, dst=0, start_us=100.0,
                                 end_us=2000.0),),
        retry=RetryConfig(timeout_us=500.0, backoff=2.0, max_retries=8))
    fast = _run("sp2", 8, "allreduce", 4096, faults=plan)
    slow = _run("sp2", 8, "allreduce", 4096, faults=plan,
                fast_wire=False)
    _assert_same_recovery(fast, slow)
    assert fast[1]["transfers_shortcircuited"] > 0
    # The run actually exercised the recovery machinery.
    assert fast[2]["retransmits"] > 0
    assert fast[1]["transfers_rerouted"] > 0


def test_faulted_time_differs_from_clean_time():
    # Sanity anchor: the per-message rule matters because faults DO
    # change what the short-circuit would have precomputed.
    clean, _, _ = _run("sp2", 8, "allreduce", 4096)
    plan = FaultPlan(name="lossy", loss_probability=0.4,
                     retry=RetryConfig(timeout_us=1000.0))
    faulted, _, _ = _run("sp2", 8, "allreduce", 4096, faults=plan)
    assert faulted > clean


def _ring_at_once(machine, p, shift, fast_wire):
    """Every rank sends to ``rank + shift`` at zero software cost, so
    all the wires of a round start at one instant, three rounds, under
    loss.  Returns the delivery log and the finish times."""
    world = _build(machine, p, fault_preset("lossy"), fast_wire, seed=0)
    transport = world.comm.transport
    deliveries = []
    record = transport.record_delivery

    def spy(envelope, unexpected):
        deliveries.append((envelope.src, envelope.dst, envelope.sent_at,
                           envelope.delivered_at))
        record(envelope, unexpected)

    transport.record_delivery = spy

    def program(ctx):
        for round_ in range(3):
            tag = ("ring", round_)
            yield from transport.send(ctx.rank, (ctx.rank + shift) % p, 4096,
                                      tag, sw_cost_us=0.0)
            receive = transport.post_receive(ctx.rank,
                                             (ctx.rank - shift) % p, tag)
            yield from transport.complete_receive(ctx.rank, receive,
                                                  sw_cost_us=0.0)
        return ctx.env.now

    finished = world.run(program)
    return sorted(deliveries), finished, world.env.work.snapshot()


@pytest.mark.parametrize("machine, p, shift", [
    ("paragon", 5, 3), ("paragon", 16, 2), ("t3d", 5, 2)])
def test_wires_starting_at_one_instant_take_the_full_path(machine, p, shift):
    """With another event due at its send instant a message takes the
    full path: there routes are acquired hop by hop in same-time
    events, and another wire starting then can take a later link of a
    route first."""
    fast = _ring_at_once(machine, p, shift, True)
    slow = _ring_at_once(machine, p, shift, False)
    assert fast[:2] == slow[:2]


def test_no_short_circuit_under_faults_without_jitter():
    """Without software jitter every rank's events tie; under a plan
    every message then takes the full path, whose order the bookings
    could not keep."""
    spec = get_machine_spec("sp2")
    still = replace(spec, software=replace(spec.software, jitter_sigma=0.0),
                    algorithms={**dict(spec.algorithms),
                                "allgather": "ring_allgather"})
    fast = _run(still, 20, "allgather", 4, faults=fault_preset("lossy"),
                iterations=2, seed=0)
    slow = _run(still, 20, "allgather", 4, faults=fault_preset("lossy"),
                iterations=2, seed=0, fast_wire=False)
    _assert_same_recovery(fast, slow)
    assert fast[1]["transfers_shortcircuited"] == 0
