"""Equivalence of the analytic short-circuits and the full simulation.

The engine keeps every pending event in one binary heap ordered by
``(time, priority, eid)``; the transport completes contention- and
fault-free transfers analytically instead of simulating their NIC and
fabric legs; and the episode evaluator (:mod:`repro.mpi.episode`)
replays whole fenced collective calls off the engine.  None of them may
ever be *observable*.  This harness runs
randomized process/resource/handoff graphs (hypothesis) and real MPI
workloads and asserts

* the event queue pops a **run-to-run identical log** — the exact
  ``(time, priority, eid, event-type)`` sequence, recorded by wrapping
  ``env._pop`` — with identical :class:`~repro.obs.perf.WorkMeter`
  snapshots, and the same work dump from fresh interpreters with random
  hash seeds;
* short-circuited (``fast_wire=True``) runs, whose fenced iterations
  the evaluator may take, deliver **every message at exactly the time**
  the full simulation (``fast_wire=False``) does:
  the sorted per-message ``(src, dst, nbytes, sent_at, delivered_at)``
  logs compare equal with ``==``, and end times agree to 1e-12 s;
* under every fault preset and random fault plans, where messages
  short-circuit one by one, the delivery logs, finish times, injector
  counters and the ``faults.message`` stream's next draw are equal;
* observation is not an input: a run with tracing and metrics on pops
  the same event log and does the same work as the plain run, with or
  without a fault plan, and a traced short-circuited run records the
  same spans and metrics as the traced full simulation.
"""

import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import (
    FAULT_PRESETS,
    FaultPlan,
    LinkDegradation,
    LinkOutage,
    NicStall,
    NodeSlowdown,
    RetryConfig,
    fault_preset,
)
from repro.faults.injector import MESSAGE_STREAM
from repro.mpi import MpiWorld
from repro.obs.metrics import MetricsRegistry
from repro.obs.perf import WorkMeter
from repro.sim import Environment, Resource, Tracer
from tests.episode_harness import (STILL_TIE_CASES, record_pops,
                                   spy_deliveries, still, taped)

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: 1e-12 seconds in this repo's microsecond time unit.
TIME_TOLERANCE_US = 1e-6


def run_logged(program_factory):
    """Run ``program_factory(env)`` to completion with its pops logged;
    return (event log, work snapshot, final time)."""
    env = Environment()
    log = record_pops(env)
    env.work = WorkMeter()
    program_factory(env)
    env.run()
    return log, env.work.snapshot(), env.now


def assert_deterministic(program_factory):
    first = run_logged(program_factory)
    second = run_logged(program_factory)
    assert first == second
    assert first[0], "workload fired no events at all"


# -- randomized process/resource/handoff graphs ---------------------------

@st.composite
def process_graphs(draw):
    """A random little simulation: N processes over shared resources
    and handoff channels, with timeouts and conditions."""
    n_resources = draw(st.integers(1, 3))
    n_channels = draw(st.integers(1, 2))
    n_procs = draw(st.integers(2, 6))
    durations = st.sampled_from(
        [0.0, 0.25, 0.5, 1.0, 1.0, 2.5, 7.0, 1e3, 1e-3])
    programs = []
    for _ in range(n_procs):
        actions = []
        for _ in range(draw(st.integers(1, 8))):
            kind = draw(st.sampled_from(
                ["timeout", "hold", "put", "get", "anyof", "allof"]))
            if kind == "timeout":
                actions.append(("timeout", draw(durations)))
            elif kind == "hold":
                actions.append(("hold", draw(st.integers(0, n_resources - 1)),
                                draw(durations)))
            elif kind in ("put", "get"):
                actions.append((kind, draw(st.integers(0, n_channels - 1))))
            else:
                actions.append((kind, draw(durations), draw(durations)))
        programs.append(actions)
    # Every get must have a matching put somewhere or the run deadlocks
    # silently (run() just returns); balance per channel.
    for channel in range(n_channels):
        puts = sum(a[0] == "put" and a[1] == channel
                   for p in programs for a in p)
        gets = sum(a[0] == "get" and a[1] == channel
                   for p in programs for a in p)
        if gets > puts:
            programs[0] = ([("put", channel)] * (gets - puts)) + programs[0]
    return n_resources, n_channels, programs


def build_graph(env, spec):
    n_resources, n_channels, programs = spec
    resources = [Resource(env, capacity=1) for _ in range(n_resources)]
    # A channel is a FIFO handoff on plain events: the k-th put fires
    # the k-th slot, which the k-th get waits on, so a put wakes the
    # process blocked in the matching get.
    slots = [[] for _ in range(n_channels)]
    puts = [0] * n_channels
    gets = [0] * n_channels

    def slot(channel, index):
        events = slots[channel]
        while len(events) <= index:
            events.append(env.event())
        return events[index]

    def run_actions(actions):
        for action in actions:
            if action[0] == "timeout":
                yield env.timeout(action[1])
            elif action[0] == "hold":
                resource = resources[action[1]]
                request = resource.request()
                yield request
                yield env.timeout(action[2])
                resource.release(request)
            elif action[0] == "put":
                channel = action[1]
                slot(channel, puts[channel]).succeed(action[0])
                puts[channel] += 1
            elif action[0] == "get":
                channel = action[1]
                gets[channel] += 1
                yield slot(channel, gets[channel] - 1)
            elif action[0] == "anyof":
                yield env.any_of([env.timeout(action[1]),
                                  env.timeout(action[2])])
            else:
                yield env.all_of([env.timeout(action[1]),
                                  env.timeout(action[2])])

    for index, actions in enumerate(programs):
        env.process(run_actions(actions), name=f"graph-{index}")


@given(process_graphs())
@settings(max_examples=60, deadline=None)
def test_random_graphs_pop_identical_event_logs(spec):
    assert_deterministic(lambda env: build_graph(env, spec))


def test_graph_handoff_wakes_the_blocked_getter():
    """A get posted before its put blocks until another process's put
    fires the slot, in FIFO order per channel."""
    spec = (1, 1, [[("get", 0), ("timeout", 1.0)],
                   [("get", 0), ("timeout", 2.0)],
                   [("timeout", 5.0), ("put", 0), ("timeout", 3.0),
                    ("put", 0)]])
    log, work, end = run_logged(lambda env: build_graph(env, spec))
    assert end == 10.0  # second getter woken at 8.0, then sleeps 2.0
    assert work["events_fired"] == len(log)


@given(st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1,
                max_size=64))
@settings(max_examples=60, deadline=None)
def test_random_timeout_batches_pop_in_time_order(delays):
    """Wide spreads and exact ties pop in ``(time, eid)`` order, the
    same way every run."""
    def factory(env):
        def proc():
            yield env.all_of([env.timeout(d) for d in delays])
        env.process(proc())

    assert_deterministic(factory)
    log, _, _ = run_logged(factory)
    timeouts = [(time, eid) for time, _, eid, kind in log
                if kind == "Timeout"]
    assert timeouts == sorted(timeouts)
    assert len(timeouts) == len(delays)


# -- analytic short-circuit vs full simulation -----------------------------

#: Back-to-back calls per MPI run.  Every call but the first (which no
#: fence precedes) and the last is a fenced episode the evaluator may
#: take off the engine.
ITERATIONS = 4


MPI_CASES = [
    ("sp2", "broadcast", 4096, 16),
    ("t3d", "allreduce", 2048, 32),
    ("paragon", "alltoall", 256, 8),
    ("t3d", "broadcast", 65536, 64),
    ("sp2", "scatter", 32768, 16),
    ("paragon", "gather", 4096, 32),
    ("t3d", "reduce", 64, 5),
    ("sp2", "scan", 4096, 32),
    # Contention-free.
    ("sp2", "reduce", 4, 12),
    ("paragon", "broadcast", 1024, 12),
    ("sp2", "barrier", 0, 12),
    ("paragon", "scatter", 1024, 32),
    (still("t3d"), "scatter", 64, 16),
    (still("sp2"), "reduce", 4, 16),
    # Buffered sends, and transfers queued behind busy links.
    ("sp2", "alltoall", 65536, 8),
    ("t3d", "alltoall", 65536, 8),
    ("paragon", "alltoall", 65536, 8),
    ("t3d", "reduce", 4, 64),
    ("sp2", "scan", 4, 16),
    ("paragon", "scan", 4, 16),
    (still("paragon"), "alltoall", 1024, 16),
]

#: The cases whose fenced iterations are evaluated off the engine: all
#: but the composite allreduce, which looks its stages up through the
#: communicator and so stays on the engine.
EVALUATED_CASES = [case for case in MPI_CASES if case[1] != "allreduce"]


@st.composite
def mpi_workloads(draw):
    machine = draw(st.sampled_from(["sp2", "t3d", "paragon"]))
    op = draw(st.sampled_from(
        ["broadcast", "scatter", "gather", "alltoall", "reduce", "scan",
         "allreduce", "barrier"]))
    nbytes = 0 if op == "barrier" else \
        draw(st.sampled_from([0, 64, 4096, 32768]))
    p = draw(st.sampled_from([2, 5, 16, 32]))
    return machine, op, nbytes, p


class CollectiveRun(NamedTuple):
    elapsed: float
    work: dict
    deliveries: list
    pops: list
    spans: Optional[Counter]
    metrics: Optional[dict]


def _canonical_detail(detail, comm_base):
    """A span's detail with communicator ids made relative to the
    world's own communicator: ids come from a process-wide counter, so
    two worlds built one after the other never share them."""
    items = []
    for key, value in sorted(detail.items()):
        if key == "comm":
            value -= comm_base
        elif key == "tag":
            value = (value[0], value[1] - comm_base) + tuple(value[2:])
        items.append((key, repr(value)))
    return tuple(items)


def span_multiset(tracer, comm_base):
    """Every span as ``(category, name, node, start, end, detail,
    parent)``, where ``parent`` is the enclosing span's own tuple — the
    parent chain stands in for span ids, which depend on the order
    spans were opened in."""
    by_id = {span.id: span for span in tracer.spans()}
    keys = {}

    def key(span):
        if span.id not in keys:
            parent = by_id.get(span.parent)
            keys[span.id] = (
                span.category, span.name, span.node, span.start, span.end,
                _canonical_detail(span.detail, comm_base),
                None if parent is None else key(parent))
        return keys[span.id]

    return Counter(key(span) for span in by_id.values())


def assert_metrics_match(left, right):
    """Identical instruments and values, except that histogram sums
    (and so means) may differ in the last bits: the same observations
    can be added up in another order."""
    assert sorted(left) == sorted(right)
    for name, snapshot in left.items():
        other = dict(right[name])
        snapshot = dict(snapshot)
        if snapshot["type"] == "histogram":
            for field in ("sum", "mean"):
                assert math.isclose(snapshot.pop(field), other.pop(field),
                                    rel_tol=1e-9), (name, field)
        assert snapshot == other, name


def run_collective(machine, op, nbytes, p, fast_wire=True, observed=False,
                   faults=None, iterations=ITERATIONS):
    """``iterations`` back-to-back calls of one collective, with the
    event queue's pops logged.

    The delivery log is every message the transport accounts as
    delivered, on the engine or inside an evaluated episode, as sorted
    ``(src, dst, nbytes, sent_at, delivered_at)`` tuples.  Tags are
    left out: they embed a process-wide communicator counter, so two
    worlds built one after the other never share them.  ``observed``
    switches tracing and metrics on and also returns the spans (see
    :func:`span_multiset`) and the metrics snapshot.
    """
    world = MpiWorld(machine, p, seed=0, fast_wire=fast_wire,
                     trace=observed, metrics=observed,
                     faults=None if faults is None else fault_preset(faults))
    meter = WorkMeter()
    world.env.work = meter
    pops = record_pops(world.env)
    deliveries = spy_deliveries(world)
    elapsed = world.run_collective(op, nbytes, iterations=iterations)
    spans = metrics = None
    if observed:
        spans = span_multiset(world.env.tracer, world.comm.comm_id)
        metrics = world.env.metrics.snapshot()
    return CollectiveRun(elapsed, meter.snapshot(), sorted(deliveries),
                         pops, spans, metrics)


def assert_short_circuit_exact(workload):
    fast = run_collective(*workload, fast_wire=True)
    slow = run_collective(*workload, fast_wire=False)
    assert fast.deliveries == slow.deliveries, workload
    assert abs(fast.elapsed - slow.elapsed) <= TIME_TOLERANCE_US, workload
    # The fast path may never simulate *less* traffic than it books.
    assert fast.work["messages_sent"] == slow.work["messages_sent"]
    assert fast.work["messages_delivered"] == \
        slow.work["messages_delivered"] == len(fast.deliveries)
    assert slow.work["transfers_shortcircuited"] == 0
    return fast.work


def assert_observation_is_not_an_input(workload, faults=None):
    """Tracing and metrics on vs off: the same pops and the same work,
    on either wire setting; and the traced short-circuit records the
    spans and metrics of the traced full simulation."""
    observed = {}
    for fast_wire in (True, False):
        plain = run_collective(*workload, fast_wire=fast_wire,
                               faults=faults)
        seen = run_collective(*workload, fast_wire=fast_wire,
                              observed=True, faults=faults)
        assert seen.pops == plain.pops, (workload, fast_wire)
        assert seen.work == plain.work, (workload, fast_wire)
        assert seen.elapsed == plain.elapsed, (workload, fast_wire)
        observed[fast_wire] = seen
    assert observed[True].spans == observed[False].spans, workload
    assert_metrics_match(observed[True].metrics, observed[False].metrics)
    return observed[True]


@given(mpi_workloads())
@settings(max_examples=25, deadline=None)
def test_short_circuit_delivers_exactly_like_full_simulation(workload):
    assert_short_circuit_exact(workload)


def test_short_circuit_exact_on_fixed_cases():
    """Contended routes no longer abort a replay; the abort path is
    pinned by the unfinished and deadlocked replays of
    ``tests/mpi/test_episode.py``."""
    stalled = 0
    for workload in MPI_CASES:
        fast_work = assert_short_circuit_exact(workload)
        assert fast_work["transfers_shortcircuited"] > 0, \
            f"{workload} never took the analytic path"
        if workload in EVALUATED_CASES:
            assert fast_work["episodes_evaluated"] > 0, \
                f"{workload} never took the episode evaluator"
            assert fast_work["episodes_aborted"] == 0, workload
            stalled += fast_work["transfers_stalled"]
    assert stalled > 0


@pytest.mark.parametrize("workload", STILL_TIE_CASES,
                         ids=lambda case: "-".join(map(str, (
                             case[0].name, case[0].algorithms[case[1]],
                             *case[2:]))))
def test_short_circuit_exact_on_jitter_free_ties(workload):
    assert_short_circuit_exact(workload)


# -- the short-circuit under fault plans ----------------------------------

#: Everything the injector counts: the faults it resolved.
INJECTOR_COUNTERS = ("messages_lost", "messages_corrupted",
                     "transfers_aborted", "reroutes", "unroutable",
                     "retransmits", "spurious_retransmits",
                     "nic_stall_total_us")


class FaultedRun(NamedTuple):
    elapsed: float
    deliveries: list
    counters: dict
    next_draw: float
    work: dict


def run_under_plan(machine, op, nbytes, p, plan, fast_wire,
                   iterations=ITERATIONS):
    """``iterations`` calls of one collective under ``plan``.  The
    fields that must not depend on ``fast_wire`` are the finish time,
    the sorted delivery log, the injector's counters and the next draw
    of the ``faults.message`` stream.  Every run must also quiesce
    clean: no receive left posted, no message left unexpected, and
    every message sent delivered."""
    world = MpiWorld(machine, p, seed=0, fast_wire=fast_wire, faults=plan)
    meter = WorkMeter()
    world.env.work = meter
    deliveries = spy_deliveries(world)
    elapsed = world.run_collective(op, nbytes, iterations=iterations)
    transport = world.comm.transport
    for rank in range(p):
        assert transport.pending_posted(rank) == 0, rank
        assert transport.pending_unexpected(rank) == 0, rank
    work = meter.snapshot()
    assert work["messages_delivered"] == work["messages_sent"] == \
        len(deliveries)
    injector = world.machine.injector
    counters = {} if injector is None else \
        {name: getattr(injector, name) for name in INJECTOR_COUNTERS}
    return FaultedRun(elapsed, sorted(deliveries), counters,
                      world.machine.streams.uniform(MESSAGE_STREAM, 0.0, 1.0),
                      work)


def assert_exact_under_plan(workload, plan, iterations=ITERATIONS):
    fast = run_under_plan(*workload, plan, fast_wire=True,
                          iterations=iterations)
    slow = run_under_plan(*workload, plan, fast_wire=False,
                          iterations=iterations)
    assert fast.deliveries == slow.deliveries, workload
    assert fast.elapsed == slow.elapsed, workload
    assert fast.counters == slow.counters, workload
    assert fast.next_draw == slow.next_draw, workload
    assert slow.work["transfers_shortcircuited"] == 0
    return fast


@pytest.mark.parametrize("preset", sorted(FAULT_PRESETS))
def test_short_circuit_exact_under_every_fault_preset(preset):
    """Messages short-circuit one by one under a plan; the rest take
    the full pipeline with the fate already drawn for them."""
    shortcircuited = 0
    for workload in MPI_CASES:
        fast = assert_exact_under_plan(workload, fault_preset(preset))
        shortcircuited += fast.work["transfers_shortcircuited"]
    assert shortcircuited > 0, preset


#: Times at which random fault windows open, and their lengths (µs).
FAULT_STARTS = st.sampled_from([0.0, 40.0, 150.0, 600.0, 2500.0])
FAULT_LENGTHS = st.sampled_from([25.0, 300.0, 2000.0])


@st.composite
def faulted_workloads(draw):
    """A collective at a non-power-of-two p (or 6) under a random plan:
    loss and corruption, outage and degradation windows on random
    links, and stalls and slowdowns on random nodes."""
    p = draw(st.sampled_from([3, 5, 6, 7, 11]))
    machine = draw(st.sampled_from(["sp2", "t3d", "paragon"]))
    op = draw(st.sampled_from(
        ["broadcast", "scatter", "gather", "alltoall", "reduce", "scan",
         "allreduce", "allgather"]))
    nbytes = draw(st.sampled_from([4, 1024, 32768]))
    nodes = st.integers(0, p - 1)

    def pair():
        src = draw(nodes)
        return src, draw(nodes.filter(lambda dst: dst != src))

    def window():
        start = draw(FAULT_STARTS)
        return start, start + draw(FAULT_LENGTHS)

    outages, degradations, stalls, slowdowns = [], [], [], []
    for _ in range(draw(st.integers(0, 2))):
        (src, dst), (start, end) = pair(), window()
        outages.append(LinkOutage(src, dst, start, end))
    for _ in range(draw(st.integers(0, 2))):
        (src, dst), (start, end) = pair(), window()
        degradations.append(LinkDegradation(
            src, dst, draw(st.sampled_from([1.5, 4.0])), start,
            draw(st.sampled_from([end, None]))))
    for _ in range(draw(st.integers(0, 2))):
        start, end = window()
        stalls.append(NicStall(draw(nodes), start, end - start))
    for _ in range(draw(st.integers(0, 2))):
        start, end = window()
        slowdowns.append(NodeSlowdown(
            draw(nodes), draw(st.sampled_from([1.5, 3.0])), start, end))
    plan = FaultPlan(
        name="fuzzed",
        loss_probability=draw(st.sampled_from([0.0, 0.02, 0.1])),
        corruption_probability=draw(st.sampled_from([0.0, 0.05])),
        link_outages=tuple(outages), link_degradations=tuple(degradations),
        nic_stalls=tuple(stalls), node_slowdowns=tuple(slowdowns),
        retry=RetryConfig(timeout_us=draw(st.sampled_from([150.0,
                                                           1000.0]))))
    return (machine, op, nbytes, p), plan


@given(faulted_workloads())
@settings(max_examples=200, deadline=None)
# A link dies under a transfer that found its route clear.
@example((("sp2", "alltoall", 32768, 3), FaultPlan(
    link_outages=(LinkOutage(0, 1, 2500.0, 2525.0),),
    retry=RetryConfig(timeout_us=150.0))))
# A dead link on a busy route: the queued transfer must detour.
@example((("sp2", "gather", 4, 3), FaultPlan(
    link_outages=(LinkOutage(1, 0, 0.0, 300.0),),
    retry=RetryConfig(timeout_us=150.0))))
# Half-duplex engines whose queues a message couples: two engine
# chains end at the same instant, and their order must be the full
# path's grant order.
@example((("sp2", "alltoall", 32768, 11), FaultPlan(
    corruption_probability=0.05, retry=RetryConfig(timeout_us=150.0))))
# An engine booked behind another booking: its grant must come one
# same-time event after the release ahead of it, where the relay
# events of `Transport._follow` put it; a place reserved at booking
# time swaps two deliveries.
@example((("sp2", "alltoall", 32768, 11), FaultPlan(
    loss_probability=0.02, corruption_probability=0.05,
    node_slowdowns=(NodeSlowdown(3, 1.5, 0.0, 25.0),),
    retry=RetryConfig(timeout_us=150.0))))
def test_short_circuit_exact_under_random_fault_plans(case):
    """Random plans at non-power-of-two p (and 6), checked against the
    full simulation and for a clean quiescence."""
    workload, plan = case
    assert_exact_under_plan(workload, plan, iterations=2)


def test_observation_is_not_an_input_on_fixed_cases():
    for workload in MPI_CASES:
        traced = assert_observation_is_not_an_input(workload)
        assert traced.work["transfers_shortcircuited"] > 0, \
            f"{workload} never took the analytic path when traced"
        if workload in EVALUATED_CASES:
            assert traced.work["episodes_evaluated"] > 0, \
                f"{workload} never took the episode evaluator when traced"
        assert any(key[0] == "link" for key in traced.spans), workload


@pytest.mark.parametrize("preset", ["lossy", "single-link-outage"])
def test_observation_is_not_an_input_under_faults(preset):
    for workload in MPI_CASES[:2]:
        assert_observation_is_not_an_input(workload, faults=preset)


@given(mpi_workloads())
@settings(max_examples=25, deadline=None)
def test_observation_is_not_an_input(workload):
    assert_observation_is_not_an_input(workload)


def observe_timing_block(machine, op, nbytes, p, folded):
    """The paper's timing block (2 warm-up and 4 timed calls), traced
    and metered: as one ``time_block`` call when ``folded``, else as
    plain calls.  Returns the local times, spans and metrics."""
    def plain(ctx):
        yield from ctx.repeat(op, nbytes, 2)
        yield from ctx.barrier()
        start = ctx.wtime()
        yield from ctx.repeat(op, nbytes, ITERATIONS)
        return (ctx.wtime() - start) / ITERATIONS

    def block(ctx):
        return (yield from ctx.time_block(op, nbytes, ITERATIONS, 2))

    world = MpiWorld(machine, p, seed=0, trace=True, metrics=True)
    local_times = world.run(block if folded else plain)
    return (local_times,
            span_multiset(world.env.tracer, world.comm.comm_id),
            world.env.metrics.snapshot())


@pytest.mark.parametrize("workload", EVALUATED_CASES[:4])
def test_a_folded_timing_block_records_the_plain_spans(workload):
    """Folded calls enter, complete and account their messages at
    explicit times: the folded block records the spans and metrics of
    the plain program, collectives and phases included.  The broadcasts
    and the scatter play their later timed calls from a tape, with the
    observers attached."""
    with taped() as counts:
        folded = observe_timing_block(*workload, folded=True)
    plain = observe_timing_block(*workload, folded=False)
    assert folded[0] == plain[0], workload
    assert folded[1] == plain[1], workload
    assert_metrics_match(folded[2], plain[2])
    if workload[1] in ("broadcast", "scatter"):
        assert counts["hits"] == counts["plays"] > 0, workload


def run_two_calls(machine, op, nbytes, p, attach):
    """Two back-to-back ``run_collective`` calls on one world, with the
    pops and work metered throughout; ``attach`` attaches a tracer and
    a metrics registry to the environment between the calls.  Returns
    the world, the second call's start time, the work and the pops."""
    world = MpiWorld(machine, p, seed=0)
    meter = WorkMeter()
    world.env.work = meter
    pops = record_pops(world.env)
    world.run_collective(op, nbytes, iterations=ITERATIONS)
    second = world.env.now
    if attach:
        world.env.tracer = Tracer()
        world.env.metrics = MetricsRegistry()
    world.run_collective(op, nbytes, iterations=ITERATIONS)
    return world, second, meter.snapshot(), pops


@pytest.mark.parametrize("workload", [MPI_CASES[0], EVALUATED_CASES[1]])
def test_observers_attached_between_calls_are_not_an_input(workload):
    world, second, work, pops = run_two_calls(*workload, attach=True)
    _, _, plain_work, plain_pops = run_two_calls(*workload, attach=False)
    assert pops == plain_pops, workload
    assert work == plain_work, workload
    # Only the second call was observed, and all of it was.
    spans = world.env.tracer.spans()
    assert spans and all(span.start >= second for span in spans)
    assert len(world.env.tracer.spans("collective")) == ITERATIONS
    op = workload[1]
    assert world.env.metrics.counter(f"coll.{op}.calls").value == \
        ITERATIONS


def test_collective_runs_are_deterministic():
    for workload in MPI_CASES[:2]:
        for fast_wire in (True, False):
            assert run_collective(*workload, fast_wire=fast_wire) == \
                run_collective(*workload, fast_wire=fast_wire)


# -- cross-process determinism (fresh interpreter per run) -----------------

_SUBPROCESS_SNIPPET = """
import json
from repro.mpi import MpiWorld
from repro.obs import WorkMeter

meter = WorkMeter()
world = MpiWorld("sp2", 16, seed=0)
world.env.work = meter
pops = []
pop = world.env._pop

def logged_pop():
    entry = pop()
    pops.append((entry[0], entry[1], entry[2], type(entry[3]).__name__))
    return entry

world.env._pop = logged_pop
elapsed = world.run_collective("allreduce", 4096)
print(json.dumps({"work": meter.snapshot(), "elapsed": elapsed,
                  "pops": pops}, sort_keys=True))
"""


def test_work_dump_identical_across_processes():
    """The same perfsuite-style workload in two fresh interpreters with
    random hash seeds must emit byte-identical WorkMeter dumps, pop
    logs, and simulated times."""
    outputs = set()
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_SNIPPET],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": REPO_SRC,
                 "PYTHONHASHSEED": "random"})
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    payload = json.loads(outputs.pop())
    assert payload["work"]["events_fired"] > 0
    assert payload["work"]["events_fired"] == len(payload["pops"])
    assert payload["elapsed"] > 0
