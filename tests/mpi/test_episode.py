"""The episode evaluator: fenced collective calls replayed off the engine.

The equivalence harness (``tests/sim/test_shortcircuit_equivalence.py``)
checks the registered algorithms' deliveries, spans and pops against
the full simulation.  This module pins the rest: hardware counters
committed by an evaluated episode equal the full simulation's, random
recorded programs replay exactly, which calls are eligible, which
algorithms record, and that an aborted or refused replay leaves the
engine to produce the same results.  The paper's timing block, whose
fenced calls the evaluator folds into one evaluation, is checked
against the same block written as plain calls, the oracle, and where
each fold breaks.  Every call played from a tape under
:func:`tests.episode_harness.taped` is replayed in the heap as well, and
the two outcomes must be equal.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.diagnostics import collect_diagnostics
from repro.core.measurement import (PAPER_CONFIG, MeasurementConfig,
                                    _run_seed, _timing_program,
                                    measure_collective)
from repro.faults import fault_preset
from repro.machines import get_machine_spec
from repro.mpi import MpiError, MpiWorld, RankError
from repro.mpi.collectives import base as registry
from repro.mpi.collectives import get_algorithm
from repro.mpi.episode import EpisodeEvaluator, record
from repro.obs import HostProfile
from repro.obs.perf import WorkMeter
from repro.obs.report import link_stats
from tests.episode_harness import (STILL_TIE_CASES, record_pops,
                                   spy_deliveries, taped)

MACHINES = ("sp2", "t3d", "paragon")

#: (op, bytes, p) of the hardware-counter parity cases.
PARITY_CASES = (
    ("broadcast", 4096, 16),
    ("reduce", 64, 16),
    ("scatter", 1024, 32),
    ("gather", 4, 16),
    ("scan", 64, 16),
    ("barrier", 0, 16),
    # Contended and buffered: alltoall queues behind busy links.
    ("alltoall", 65536, 8),
    ("alltoall", 1024, 16),
    ("gather", 4, 32),
)


def _world(machine, p, **kwargs):
    world = MpiWorld(machine, p, seed=3, **kwargs)
    world.env.work = WorkMeter()
    return world


def _counters(machine, op, nbytes, p, iterations=5, **kwargs):
    world = _world(machine, p, **kwargs)
    elapsed = world.run_collective(op, nbytes, iterations=iterations)
    return (elapsed, collect_diagnostics(world),
            link_stats(world.machine.fabric), world.env.work)


@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("op,nbytes,p", PARITY_CASES)
def test_hardware_counters_match_full_simulation(machine, op, nbytes, p):
    """NIC, link, memory, DMA and transport counters committed by
    evaluated episodes equal the ones the full simulation accumulates
    message by message."""
    fast = _counters(machine, op, nbytes, p)
    full = _counters(machine, op, nbytes, p, fast_wire=False)
    assert fast[0] == full[0]
    assert fast[1] == full[1]
    assert fast[2] == full[2]
    assert full[3].episodes_evaluated == 0


def test_parity_cases_take_the_evaluator():
    """Every parity case evaluates its four calls before the last,
    contended and buffered ones included."""
    evaluated = {(machine, op, nbytes, p): _counters(machine, op, nbytes,
                                                     p)[3]
                 for machine in MACHINES
                 for op, nbytes, p in PARITY_CASES}
    for (machine, op, _, _), work in evaluated.items():
        assert work.episodes_aborted == 0
        # The T3D's barrier is its barrier wire, which no schedule
        # records.
        expected = 0 if (machine, op) == ("t3d", "barrier") else 4
        assert work.episodes_evaluated == expected, (machine, op)
    assert evaluated[("paragon", "alltoall", 65536, 8)].transfers_stalled
    assert evaluated[("t3d", "alltoall", 1024, 16)].transfers_stalled


#: Counters that differ by design when episodes are evaluated: the
#: engine's own event and heap work, and the episode counts.
_ENGINE_COUNTERS = ("events_", "callbacks_dispatched", "heap_",
                    "episodes_")


@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("op,nbytes,p", PARITY_CASES)
def test_evaluated_episodes_do_the_engines_work(monkeypatch, machine, op,
                                                nbytes, p):
    """Every work counter but the engine's own is what the engine
    counts running the same calls: each message, transfer, stall, link
    acquisition, resource request, grant, release and occupancy."""
    with taped() as counts:
        evaluated = _counters(machine, op, nbytes, p)
    # The tree collectives keep their dependency orders from call to
    # call: the first call records a tape, the second to fourth are
    # played from it.  The T3D's barrier wire records nothing.
    if op in ("broadcast", "scatter"):
        assert counts["hits"] == counts["plays"] == 3
    if (machine, op) == ("t3d", "barrier"):
        assert counts["plays"] == 0
    monkeypatch.setattr(EpisodeEvaluator, "register",
                        lambda *args, **kwargs: None)
    engine = _counters(machine, op, nbytes, p)
    assert engine[3].episodes_evaluated == 0
    assert evaluated[:3] == engine[:3]
    assert {name: value for name, value in evaluated[3]
            if not name.startswith(_ENGINE_COUNTERS)} == \
        {name: value for name, value in engine[3]
         if not name.startswith(_ENGINE_COUNTERS)}


# -- repeat ---------------------------------------------------------------

def _end_times(machine, p, program, **kwargs):
    world = _world(machine, p, **kwargs)
    return world.run(program), world.env.work


def test_repeat_matches_plain_calls(monkeypatch):
    """``repeat`` is the paper's loop as one call: every rank ends at
    exactly the time ``count`` plain calls end at, although only the
    repeat's iterations are evaluated.  Like the timing block, it hands
    its first ``count - 1`` iterations to one fold, and its last
    iteration to the engine."""
    folds = []
    fold = EpisodeEvaluator._fold

    def counted(self, seq, pending, calls):
        folds.append(len(calls))
        return fold(self, seq, pending, calls)

    monkeypatch.setattr(EpisodeEvaluator, "_fold", counted)

    def repeated(ctx):
        yield from ctx.repeat("reduce", 4, 6, root=3)
        return ctx.env.now

    def plain(ctx):
        for _ in range(6):
            yield from ctx.collective("reduce", 4, root=3)
        return ctx.env.now

    ends, work = _end_times("sp2", 12, repeated)
    plain_ends, plain_work = _end_times("sp2", 12, plain)
    assert ends == plain_ends
    assert folds == [5]
    assert work.episodes_evaluated == 5
    assert plain_work.episodes_evaluated == 0
    assert work.events_fired < plain_work.events_fired


@pytest.mark.parametrize("kwargs", [
    {"cpu_slowdown": {1: 2.5, 4: 1.5}},
    {"contention": False},
])
def test_machine_variants_replay_exactly(kwargs):
    """Interference slowdowns scale the peeked jitter like the drawn
    one, and an uncontended fabric books no links."""
    fast = _counters("paragon", "broadcast", 1024, 12, **kwargs)
    full = _counters("paragon", "broadcast", 1024, 12, fast_wire=False,
                     **kwargs)
    assert fast[:3] == full[:3]
    assert fast[3].episodes_evaluated == 4


@pytest.mark.parametrize("args,error", [
    (("broadcast", 4, 0), ValueError),
    (("bogus", 4, 2), MpiError),
    (("broadcast", -1, 2), ValueError),
])
def test_repeat_validates_its_arguments(args, error):
    def program(ctx):
        yield from ctx.repeat(*args)

    with pytest.raises(MpiError) as excinfo:
        MpiWorld("t3d", 4).run(program)
    cause = excinfo.value.__cause__ or excinfo.value
    assert isinstance(cause, error)


def test_repeat_rejects_a_root_outside_the_communicator():
    def program(ctx):
        yield from ctx.repeat("broadcast", 4, 3, root=ctx.size)

    with pytest.raises(MpiError) as excinfo:
        MpiWorld("t3d", 4).run(program)
    assert isinstance(excinfo.value.__cause__, RankError)


# -- eligibility -----------------------------------------------------------

def test_only_the_last_call_stays_on_the_engine():
    """The first call, which every rank enters as the world starts, is
    evaluated too; a rank's program may do anything after the last:
    five iterations evaluate four, two one, and one none."""
    for iterations, evaluated in ((5, 4), (2, 1), (1, 0)):
        *_, work = _counters("paragon", "scatter", 1024, 32,
                             iterations=iterations)
        assert work.episodes_evaluated == evaluated


def _logged_run(machine, p, program, runs=1, **kwargs):
    """Every rank's finish times over ``runs`` runs of ``program`` on
    one world, and every message the world delivered, sorted."""
    world = _world(machine, p, **kwargs)
    deliveries = spy_deliveries(world)
    finishes = [world.run(program) for _ in range(runs)]
    return finishes, sorted(deliveries), world.env.work


def _finishing(prologue, block=("reduce", 4, 3, 2)):
    """The timing block after ``prologue(ctx)``, returning the rank's
    finish time."""
    def program(ctx):
        yield from prologue(ctx)
        yield from ctx.time_block(*block)
        return ctx.env.now

    return program


def _delayed(ctx):
    if ctx.rank == 1:
        yield from ctx.delay(3.0)


def _point_to_point(ctx):
    if ctx.rank == 0:
        yield from ctx.send(1, 64)
    elif ctx.rank == 1:
        yield from ctx.recv(0)


def _split(ctx):
    yield from ctx.comm_split(0)


def _posted(ctx):
    # A receive nobody sends to: it schedules nothing.
    if ctx.rank == 1:
        ctx.irecv(0)
    return
    yield


def _pending(ctx):
    if ctx.rank == 2:
        ctx.env.timeout(1.0)
    return
    yield


@pytest.mark.parametrize("prologue,evaluated", [
    (_delayed, 5), (_point_to_point, 5), (_split, 5), (_posted, 6),
    (_pending, 5)], ids=["delay", "point-to-point", "split", "post",
                         "pending-event"])
def test_a_first_call_not_entered_together_falls_back_exactly(prologue,
                                                              evaluated):
    """A rank that delays, sends or receives, or calls another
    operation before its first collective call, or leaves an event
    pending: the ranks that entered the call take their entry timeouts
    with the event ids they would have had, and every finish time and
    delivery is the full simulation's.  Only the first call of the
    block is the engine's, unless nothing but a posted receive came
    first."""
    fast = _logged_run("sp2", 6, _finishing(prologue))
    full = _logged_run("sp2", 6, _finishing(prologue), fast_wire=False)
    assert fast[:2] == full[:2]
    assert fast[2].episodes_evaluated == evaluated


@pytest.mark.parametrize("prologue", [
    _delayed, _point_to_point, _posted, lambda ctx: iter(())],
    ids=["delay", "point-to-point", "post", "none"])
def test_entry_timeouts_keep_their_event_ids(monkeypatch, prologue):
    """Calls the engine runs: the gates the ranks wait on, flushed after
    the ranks' first steps or at the last registration, pop with the
    times, priorities and event ids of the entry timeouts the ranks take
    without the evaluator."""

    def program(ctx):
        yield from prologue(ctx)
        for _ in range(3):
            yield from ctx.collective("reduce", 4)
        return ctx.env.now

    def popped():
        world = _world("sp2", 6)
        pops = record_pops(world.env)
        ends = world.run(program)
        return ends, [entry[:3] for entry in pops]

    gated = popped()
    monkeypatch.setattr(EpisodeEvaluator, "register",
                        lambda *args, **kwargs: None)
    assert gated == popped()


def test_unserialized_first_calls_stay_on_the_engine():
    """Without the completion fence no call is an episode, the first
    one included."""
    spec = replace(get_machine_spec("paragon"), serialize_collectives=False)
    program = _finishing(lambda ctx: iter(()))
    fast = _logged_run(spec, 8, program)
    assert fast[:2] == _logged_run(spec, 8, program, fast_wire=False)[:2]
    assert fast[2].episodes_evaluated == 0


def test_a_second_run_on_a_used_world_starts_on_the_engine():
    """A world's second run continues its collective sequence: its first
    call follows the last one of the first run, whose fence no rank
    waited on, so the engine runs it; the rest of its block folds."""
    program = _finishing(lambda ctx: iter(()))
    fast = _logged_run("sp2", 8, program, runs=2)
    assert fast[:2] == _logged_run("sp2", 8, program, runs=2,
                                   fast_wire=False)[:2]
    assert fast[2].episodes_evaluated == 6 + 5


@pytest.mark.parametrize("kwargs", [
    {"fast_wire": False},
    {"faults": fault_preset("lossy")},
])
def test_full_simulation_switches_evaluate_nothing(kwargs):
    *_, work = _counters("paragon", "scatter", 1024, 32, **kwargs)
    assert work.episodes_evaluated == work.episodes_aborted == 0


def test_observers_do_not_decide_eligibility():
    plain = _counters("sp2", "reduce", 4, 12)
    world = _world("sp2", 12, trace=True, metrics=True)
    with HostProfile() as profile:
        elapsed = world.run_collective("reduce", 4, iterations=5)
    assert elapsed == plain[0]
    assert world.env.work == plain[3]
    assert "mpi/episode.py" in [row[0] for row in profile.modules()]


def test_pending_engine_work_blocks_evaluation():
    """An unrelated event still pending means the call could interact
    with something: the engine runs it."""
    def program(ctx):
        if ctx.rank == 0:
            ctx.env.timeout(1e9)
        yield from ctx.repeat("reduce", 4, 5)
        return ctx.env.now

    ends, work = _end_times("sp2", 12, program)
    full_ends, _ = _end_times("sp2", 12, program, fast_wire=False)
    assert ends == full_ends
    assert work.episodes_evaluated == 0


def test_a_late_rank_keeps_its_call_on_the_engine():
    """A rank that reaches the fence after it fired resumes on its own:
    that call is not an episode, the ones before and after it are."""
    def program(ctx):
        yield from ctx.repeat("broadcast", 1024, 2)
        if ctx.rank == 0:
            yield from ctx.delay(1e4)
        yield from ctx.repeat("broadcast", 1024, 4)
        return ctx.env.now

    ends, work = _end_times("paragon", 12, program)
    full_ends, _ = _end_times("paragon", 12, program, fast_wire=False)
    assert ends == full_ends
    assert work.episodes_evaluated == 3


def test_ranks_mixing_repeat_and_plain_calls():
    """One rank calling ``collective`` where the others repeat makes
    every call final for the group: nothing is evaluated, nothing
    deadlocks, and the times are the engine's."""
    def program(ctx):
        if ctx.rank == 0:
            for _ in range(4):
                yield from ctx.collective("reduce", 4)
        else:
            yield from ctx.repeat("reduce", 4, 4)
        return ctx.env.now

    ends, work = _end_times("sp2", 8, program)
    full_ends, _ = _end_times("sp2", 8, program, fast_wire=False)
    assert ends == full_ends
    assert work.episodes_evaluated == 0


def test_contended_routes_replay_exactly():
    """A replay whose messages meet busy links queues them through the
    per-hop link protocol, as the engine does, instead of aborting."""
    fast = _counters("sp2", "broadcast", 4096, 16, iterations=6)
    full = _counters("sp2", "broadcast", 4096, 16, iterations=6,
                     fast_wire=False)
    assert fast[3].episodes_aborted == 0
    assert fast[3].episodes_evaluated == 5
    assert fast[3].transfers_stalled > 0
    assert fast[:3] == full[:3]


# -- the paper's timing block ---------------------------------------------------

def _reference_block(op, nbytes, iterations, warmup):
    """The timing block as plain calls: the oracle ``time_block`` must
    reproduce bit for bit."""
    def program(ctx):
        if warmup:
            yield from ctx.repeat(op, nbytes, warmup)
        yield from ctx.barrier()
        start = ctx.wtime()
        yield from ctx.repeat(op, nbytes, iterations)
        return (ctx.wtime() - start) / iterations

    return program


def _time_block(op, nbytes, iterations, warmup):
    return lambda ctx: ctx.time_block(op, nbytes, iterations, warmup)


def _block_run(machine, p, program, **kwargs):
    world = _world(machine, p, **kwargs)
    local_times = world.run(program)
    return (local_times, collect_diagnostics(world),
            link_stats(world.machine.fabric), world.env.work)


def _hardware_work(work):
    return {name: value for name, value in work
            if not name.startswith(_ENGINE_COUNTERS)}


def _assert_block_matches_reference(machine, p, block, **kwargs):
    """``time_block`` against the plain program: the same per-rank
    local times, hardware counters and every work counter but the
    engine's own; returns the block's work meter."""
    folded = _block_run(machine, p, _time_block(*block), **kwargs)
    plain = _block_run(machine, p, _reference_block(*block), **kwargs)
    assert folded[:3] == plain[:3], (machine, p, block)
    assert _hardware_work(folded[3]) == _hardware_work(plain[3]), \
        (machine, p, block)
    return folded[3]


#: (op, bytes) of the seven collectives the paper measures.
PAPER_OPS = (("barrier", 0), ("broadcast", 4096), ("gather", 4),
             ("scatter", 1024), ("reduce", 64), ("scan", 64),
             ("alltoall", 65536))


@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("op,nbytes", PAPER_OPS)
def test_time_block_matches_the_plain_program(machine, op, nbytes):
    """Folding the block's calls into evaluator calls changes no local
    time, hardware counter or work counter, for any warm-up and
    iteration count.  Broadcast and scatter play every drawn call after
    the first of its shape from a tape, the T3D's barrier wire none."""
    with taped() as counts:
        for p in (2, 12, 16):
            for warmup in (0, 1, 2):
                for iterations in (1, 2, 5):
                    work = _assert_block_matches_reference(
                        machine, p, (op, nbytes, iterations, warmup))
                    assert work.episodes_aborted == 0
    if op in ("broadcast", "scatter"):
        assert counts["hits"] == counts["plays"] > 0
    if (machine, op) == ("t3d", "barrier"):
        assert counts["plays"] == 0


@given(st.sampled_from(PAPER_OPS), st.sampled_from([4, 1024, 65536]),
       st.integers(0, 2), st.integers(1, 4), st.sampled_from(MACHINES),
       st.sampled_from([0.0, 0.03, 0.3]),
       st.sampled_from([3, 5, 6, 7, 11, 13]))
@settings(max_examples=30, deadline=None)
def test_time_block_matches_full_simulation(paper_op, nbytes, warmup,
                                            iterations, machine, sigma, p):
    """Random blocks, machines, jitter and non-power-of-two sizes: the
    folded block gives the full simulation's local times and hardware
    counters."""
    op = paper_op[0]
    nbytes = 0 if op == "barrier" else nbytes
    spec = get_machine_spec(machine)
    spec = replace(spec, software=replace(spec.software,
                                          jitter_sigma=sigma))
    program = _time_block(op, nbytes, iterations, warmup)
    with taped() as counts:
        fast = _block_run(spec, p, program)
    full = _block_run(spec, p, program, fast_wire=False)
    assert fast[:3] == full[:3]
    assert full[3].episodes_evaluated == 0
    if sigma == 0.0:
        # Without jitter the ranks enter at one instant: every recording
        # ties.
        assert counts["hits"] == 0


def test_time_block_folds_every_call():
    """Every call of the block is evaluated in one fold: both warm-up
    calls, the barrier and all five timed calls.  The T3D's barrier wire
    ends the fold; the timed calls then start a new one."""
    block = ("broadcast", 4, 5, 2)
    assert _assert_block_matches_reference(
        "sp2", 16, block).episodes_evaluated == 8
    assert _assert_block_matches_reference(
        "t3d", 16, block).episodes_evaluated == 7


def test_blocks_back_to_back():
    """A block may be followed by another collective call: its fence
    waits for the last folded call.  The second block's barrier finds
    the working set the first block's fold warmed."""
    blocks = (("reduce", 4, 3, 1), ("broadcast", 64, 2, 0))

    def program(factory):
        def run(ctx):
            times = []
            for block in blocks:
                times.append((yield from factory(*block)(ctx)))
            return times

        return run

    folded = _block_run("paragon", 12, program(_time_block))
    plain = _block_run("paragon", 12, program(_reference_block))
    assert folded[:3] == plain[:3]
    assert _hardware_work(folded[3]) == _hardware_work(plain[3])
    assert folded[3].episodes_evaluated == 5 + 3


def test_time_block_keeps_ties_in_completion_order():
    """With no jitter, ranks tie everywhere; each folded call enters in
    the previous call's completion order, as the engine's fence
    dispatch does."""
    spec = get_machine_spec("paragon")
    spec = replace(spec, software=replace(spec.software, jitter_sigma=0.0))
    for op, nbytes in (("reduce", 4), ("broadcast", 4096),
                       ("alltoall", 1024)):
        work = _assert_block_matches_reference(spec, 12,
                                               (op, nbytes, 4, 2))
        assert work.episodes_evaluated == 7


def test_a_composite_breaks_every_fold():
    """``reduce_broadcast_allreduce`` looks its stages up through the
    spec, so no allreduce call is recordable: only the barrier, between
    two engine calls, is evaluated."""
    work = _assert_block_matches_reference("sp2", 12,
                                           ("allreduce", 64, 3, 2))
    assert work.episodes_evaluated == 1
    assert work.episodes_aborted == 0


def test_pending_engine_work_blocks_the_fold():
    def program(block):
        def run(ctx):
            if ctx.rank == 0:
                ctx.env.timeout(1e9)
            return (yield from block(ctx))

        return run

    block = ("reduce", 4, 5, 2)
    folded = _block_run("sp2", 12, program(_time_block(*block)))
    plain = _block_run("sp2", 12, program(_reference_block(*block)))
    assert folded[:3] == plain[:3]
    assert folded[3].episodes_evaluated == 0


def test_fault_plans_keep_the_block_on_the_engine():
    work = _assert_block_matches_reference(
        "paragon", 8, ("broadcast", 1024, 3, 2),
        faults=fault_preset("lossy"))
    assert work.episodes_evaluated == work.episodes_aborted == 0


@pytest.mark.parametrize("args", [("broadcast", 4, 0, 2),
                                  ("broadcast", 4, 3, -1),
                                  ("bogus", 4, 3, 2)])
def test_time_block_validates_its_arguments(args):
    def program(ctx):
        return (yield from ctx.time_block(*args))

    with pytest.raises(MpiError):
        MpiWorld("sp2", 4).run(program)


# -- aborts ------------------------------------------------------------------


def _with_algorithm(monkeypatch, name, algorithm, machine="sp2"):
    monkeypatch.setitem(registry._ALGORITHMS, name, algorithm)
    spec = get_machine_spec(machine)
    return replace(spec, algorithms={**spec.algorithms, "broadcast": name})


def test_unfinished_replays_abort(monkeypatch):
    """A message nobody receives, and a receive nobody matches, leave
    state behind the fence: the replay aborts and the engine runs the
    calls, leaving the same leftovers."""
    def orphans(ctx, seq, nbytes, root=0):
        if ctx.rank == 0:
            yield from ctx.coll_send(seq, 0, 1, nbytes, op="broadcast")
        elif ctx.rank == 1:
            # Outlast the orphan's delivery, so the fence finds the
            # engine idle.
            yield from ctx.combine(1 << 20)
        elif ctx.rank == 2:
            ctx.coll_post(seq, 0, 3)

    spec = _with_algorithm(monkeypatch, "test_orphans", orphans)
    fast = _world(spec, 4)
    full = _world(spec, 4, fast_wire=False)
    assert fast.run_collective("broadcast", 8, iterations=4) == \
        full.run_collective("broadcast", 8, iterations=4)
    assert fast.env.work.episodes_aborted == 1
    for world in (fast, full):
        transport = world.comm.transport
        assert transport.pending_unexpected(1) == 4
        assert transport.pending_posted(2) == 4


def test_an_abort_mid_fold_hands_the_call_to_the_engine(monkeypatch):
    """A call whose replay aborts inside a fold draws nothing: the
    ranks resume at their finish of the previous call, the engine runs
    the aborted call with the entry costs it draws itself, and the next
    fenced call starts a new fold."""
    def orphans(ctx, seq, nbytes, root=0):
        if ctx.rank == 0:
            yield from ctx.coll_send(seq, 0, 1, 8, op="barrier")
        elif ctx.rank == 1:
            yield from ctx.combine(1 << 20)

    monkeypatch.setitem(registry._ALGORITHMS, "test_orphans", orphans)
    spec = get_machine_spec("sp2")
    spec = replace(spec, algorithms={**spec.algorithms,
                                     "barrier": "test_orphans"})
    work = _assert_block_matches_reference(spec, 6, ("reduce", 4, 5, 2))
    assert work.episodes_aborted == 1
    assert work.episodes_evaluated == 7


def test_deadlocked_replay_aborts_and_the_engine_reports_it(monkeypatch):
    """Rank 1 waits for a message rank 0 never sends: the first call's
    replay aborts, and the engine runs it into the deadlock."""
    def stuck(ctx, seq, nbytes, root=0):
        if ctx.rank == 1:
            yield from ctx.coll_recv(seq, 0, 0, op="broadcast")

    spec = _with_algorithm(monkeypatch, "test_stuck", stuck)
    world = _world(spec, 4)
    with pytest.raises(MpiError, match="did not finish"):
        world.run_collective("broadcast", 8, iterations=3)
    assert world.env.work.episodes_aborted == 1


def test_a_link_held_through_the_protocol_aborts_the_replay():
    """A link some process holds through the request protocol, with
    nothing pending in the engine, refuses the replay at first use; the
    engine then queues behind the holder for good."""
    world = _world("t3d", 2)
    link = world.machine.fabric.route_links(1, 0)[0]
    assert link not in world.machine.fabric.route_links(0, 1)

    def holder():
        yield link.resource.request()
        yield world.env.event()  # never fires: the link stays held

    def program(ctx):
        if ctx.rank == 0:
            world.env.process(holder())
        yield from ctx.barrier()  # the barrier wire: no link used
        yield from ctx.repeat("gather", 8, 3)

    with pytest.raises(MpiError, match="did not finish"):
        world.run(program)
    assert world.env.work.episodes_aborted == 1


def test_a_receive_matched_before_its_wait(monkeypatch):
    """Posting early and waiting late: the receive event fires with no
    waiter, and the wait later resumes through the urgent passthrough,
    as in the engine."""
    def early_post(ctx, seq, nbytes, root=0):
        if ctx.rank == 0:
            yield from ctx.coll_send(seq, 0, 1, nbytes, op="broadcast")
        elif ctx.rank == 1:
            receive = ctx.coll_post(seq, 0, 0)
            yield from ctx.combine(4096)
            yield from ctx.coll_wait(receive, op="broadcast")

    spec = _with_algorithm(monkeypatch, "test_early_post", early_post)
    fast = _world(spec, 2)
    full = _world(spec, 2, fast_wire=False)
    assert fast.run_collective("broadcast", 8, iterations=4) == \
        full.run_collective("broadcast", 8, iterations=4)
    assert fast.env.work.episodes_evaluated == 3


# -- random programs -----------------------------------------------------------

@st.composite
def random_algorithms(draw):
    """A deadlock-free random collective: messages in a global order,
    each posted at or before its send's position and waited on after
    it, with combines in between.  A wait only blocks on an earlier
    position of another rank, so every rank finishes."""
    size = draw(st.integers(2, 6))
    programs = [[] for _ in range(size)]
    posts = {}
    for index in range(draw(st.integers(1, 10))):
        src = draw(st.integers(0, size - 1))
        dst = draw(st.integers(0, size - 2))
        dst += dst >= src
        # Small phases collide, so equal tags match in FIFO order.
        phase = draw(st.integers(0, 3))
        nbytes = draw(st.sampled_from([0, 4, 1024, 8192]))
        posted = index - draw(st.sampled_from([0.0, 0.25, 1.5, 4.0]))
        waited = index + draw(st.sampled_from([0.5, 0.75, 2.5]))
        programs[src].append((index, "send", dst, phase, nbytes))
        posts.setdefault((dst, src, phase), []).append((index, posted))
        programs[dst].append((waited, "wait", index))
    for (dst, src, phase), entries in posts.items():
        # Equal tags are posted in send order, else a receive could
        # take a later message its own wait is needed to send.
        for (index, _), posted in zip(entries,
                                      sorted(p for _, p in entries)):
            programs[dst].append((posted, "post", src, phase, index))
    for _ in range(draw(st.integers(0, 3))):
        rank = draw(st.integers(0, size - 1))
        programs[rank].append((draw(st.floats(0, 10)), "combine",
                               draw(st.sampled_from([4, 4096]))))
    return size, [sorted(ops, key=lambda op: op[0]) for ops in programs]


def _program_algorithm(programs):
    def algorithm(ctx, seq, nbytes, root=0):
        posted = {}
        for op in programs[ctx.rank]:
            if op[1] == "send":
                yield from ctx.coll_send(seq, op[3], op[2], op[4],
                                         op="broadcast")
            elif op[1] == "post":
                posted[op[4]] = ctx.coll_post(seq, op[3], op[2])
            elif op[1] == "wait":
                yield from ctx.coll_wait(posted.pop(op[2]),
                                         op="broadcast")
            else:
                yield from ctx.combine(op[2])

    return algorithm


@given(random_algorithms(), st.sampled_from(MACHINES),
       st.sampled_from([0.03, 0.0]))
@settings(max_examples=40, deadline=None)
def test_random_programs_replay_exactly(program, machine, sigma):
    """Arbitrary post/send/wait/combine orders -- early and late posts,
    unexpected arrivals, equal tags, zero-byte and DMA-sized payloads,
    jitter on and off -- end every rank at exactly the full
    simulation's times with the same hardware counters."""
    size, programs = program
    spec = get_machine_spec(machine)
    spec = replace(spec, software=replace(spec.software,
                                          jitter_sigma=sigma),
                   algorithms={**spec.algorithms,
                               "broadcast": "test_random_program"})
    registry._ALGORITHMS["test_random_program"] = \
        _program_algorithm(programs)
    try:
        fast = _counters(spec, "broadcast", 0, size, iterations=4)
        full = _counters(spec, "broadcast", 0, size, iterations=4,
                         fast_wire=False)
    finally:
        del registry._ALGORITHMS["test_random_program"]
    assert fast[:3] == full[:3]
    work = fast[3]
    assert work.episodes_evaluated + work.episodes_aborted > 0


@given(random_algorithms(), st.sampled_from(MACHINES),
       st.lists(st.sampled_from([0.0, 0.0, 0.5, 40.0]), min_size=6,
                max_size=6))
@settings(max_examples=30, deadline=None)
def test_random_start_delays_fall_back_exactly(program, machine, delays):
    """Random algorithms whose ranks wait a random time, often none,
    before the timing block: the first call is evaluated only when no
    rank waits, and every finish time and delivery is the full
    simulation's."""
    size, programs = program
    spec = get_machine_spec(machine)
    spec = replace(spec, algorithms={**spec.algorithms,
                                     "broadcast": "test_random_program"})

    def waited(ctx):
        if delays[ctx.rank]:
            yield ctx.env.timeout(delays[ctx.rank])

    registry._ALGORITHMS["test_random_program"] = \
        _program_algorithm(programs)
    block = _finishing(waited, ("broadcast", 0, 2, 1))
    try:
        fast = _logged_run(spec, size, block)
        full = _logged_run(spec, size, block, fast_wire=False)
    finally:
        del registry._ALGORITHMS["test_random_program"]
    assert fast[:2] == full[:2]


# -- the tape ----------------------------------------------------------------

@given(random_algorithms(), st.sampled_from(MACHINES),
       st.sampled_from([0.0, 0.03, 0.3]), st.integers(0, 2),
       st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_played_calls_equal_their_heap_replay(program, machine, sigma,
                                              warmup, iterations):
    """Random programs in the paper's timing block, with the jitter off,
    on and large: every call played from a tape has the heap replay's
    outcome, field by field, and the block ends as in the full
    simulation.  Without jitter every recording ties."""
    size, programs = program
    spec = get_machine_spec(machine)
    spec = replace(spec, software=replace(spec.software,
                                          jitter_sigma=sigma),
                   algorithms={**spec.algorithms,
                               "broadcast": "test_random_program"})
    registry._ALGORITHMS["test_random_program"] = \
        _program_algorithm(programs)
    block = _time_block("broadcast", 0, iterations, warmup)
    try:
        with taped() as counts:
            fast = _block_run(spec, size, block)
        full = _block_run(spec, size, block, fast_wire=False)
    finally:
        del registry._ALGORITHMS["test_random_program"]
    assert fast[:3] == full[:3]
    if sigma == 0.0:
        assert counts["hits"] == 0


def test_jitter_free_ties_never_play_a_tape():
    """Without jitter, ranks enter and messages land at equal times:
    every recording of the equivalence harness's tie cases ties, no call
    is played from a tape, and every block ends as in the full
    simulation."""
    tied = 0
    for spec, op, nbytes, p in STILL_TIE_CASES:
        block = _time_block(op, nbytes, 3, 1)
        with taped() as counts:
            fast = _block_run(spec, p, block)
        assert fast[:3] == _block_run(spec, p, block, fast_wire=False)[:3]
        assert counts["hits"] == 0
        assert counts["tied"] == counts["recorded"]
        tied += counts["tied"]
    assert tied > 0


def _jittered(machine, sigma):
    spec = get_machine_spec(machine)
    return replace(spec, software=replace(spec.software,
                                          jitter_sigma=sigma))


def test_reordered_receive_engine_bookings_miss_exactly():
    """With a large jitter, a gather's messages reach the root's NIC
    receive engine in another order from call to call: the tape misses,
    the heap replays the call, and the block ends as in the full
    simulation."""
    spec = _jittered("sp2", 0.3)
    block = _time_block("gather", 4, 6, 2)
    with taped() as counts:
        fast = _block_run(spec, 16, block)
    assert fast[:3] == _block_run(spec, 16, block, fast_wire=False)[:3]
    assert counts["recorded"] > 0
    assert counts["plays"] > counts["hits"]


def test_reordered_draws_on_a_node_miss_exactly():
    """With a large jitter, the delivery of rank 0's message draws from
    rank 1's node before or after rank 1's own combines: the order of
    the node's draws changes, the tape misses, and the block ends as in
    the full simulation."""
    programs = [[(0, "send", 1, 0, 4), (1, "combine", 4)],
                [(0, "post", 0, 0, 0), (1, "combine", 4),
                 (2, "combine", 4096), (3, "wait", 0)]]
    spec = _jittered("t3d", 0.3)
    spec = replace(spec, algorithms={**spec.algorithms,
                                     "broadcast": "test_random_program"})
    registry._ALGORITHMS["test_random_program"] = \
        _program_algorithm(programs)
    block = _time_block("broadcast", 0, 8, 1)
    try:
        with taped() as counts:
            fast = _block_run(spec, 2, block)
        full = _block_run(spec, 2, block, fast_wire=False)
    finally:
        del registry._ALGORITHMS["test_random_program"]
    assert fast[:3] == full[:3]
    assert counts["plays"] > counts["hits"]


@pytest.mark.parametrize("machine,op,nbytes,p,sigma,hits", [
    # Queued transfers book the NIC engines in another order from call
    # to call: the tape misses.
    ("paragon", "alltoall", 65536, 3, 0.03, False),
    # Transfers reach a busy route link in another order: the tape
    # misses on the link.
    ("paragon", "gather", 1024, 8, 0.1, False),
    # A scatter's queues keep their order: the tape plays its contended
    # calls.
    ("sp2", "scatter", 65536, 16, 0.03, True),
])
def test_contended_calls_play_or_miss_exactly(machine, op, nbytes, p, sigma,
                                              hits):
    """Contended calls, whose messages queue behind busy links, end
    their blocks as in the full simulation, whether the tape plays them
    or misses."""
    spec = _jittered(machine, sigma)
    block = _time_block(op, nbytes, 6, 2)
    with taped() as counts:
        fast = _block_run(spec, p, block)
    assert fast[:3] == _block_run(spec, p, block, fast_wire=False)[:3]
    assert fast[3].transfers_stalled > 0
    assert counts["plays"] > 0
    assert (counts["hits"] == counts["plays"]) is hits


def test_exchanges_are_not_taped():
    """An alltoall sends p - 1 messages per rank, more than a tape is
    kept for: its calls go to the heap without a recording, exactly."""
    block = _time_block("alltoall", 65536, 4, 2)
    with taped() as counts:
        fast = _block_run("paragon", 8, block)
    assert fast[:3] == _block_run("paragon", 8, block, fast_wire=False)[:3]
    assert fast[3].episodes_evaluated > 0
    assert counts["recorded"] == counts["plays"] == 0


def test_a_shape_that_misses_is_no_longer_taped():
    """After a miss, the communicator stops taping that shape: the rest
    of the block goes to the heap without a recording."""
    block = _time_block("gather", 4, 8, 2)
    with taped() as counts:
        _block_run(_jittered("sp2", 0.3), 16, block)
    assert counts["plays"] - counts["hits"] == 1
    assert counts["recorded"] == 1


def test_a_resource_held_at_play_time_falls_back_to_the_heap():
    """A resource held through the request protocol when a tape is
    played sends the call to the heap replay: the first-use check still
    runs."""
    world = _world("sp2", 8)
    evaluator = world.comm.episodes
    play = EpisodeEvaluator._play
    played = []

    def hold_then_play(self, tape, schedule, *args):
        resource = schedule.resources[0]
        resource._users.add(object())
        try:
            played.append(play(self, tape, schedule, *args))
        finally:
            resource._users.clear()
        return played[-1]

    EpisodeEvaluator._play = hold_then_play
    try:
        world.run(_time_block("broadcast", 4, 4, 1))
    finally:
        EpisodeEvaluator._play = play
    assert played and played[0] is None
    assert evaluator._refused == set()


# -- tapes shared by a cell's runs -----------------------------------------

def test_a_cells_later_runs_play_every_call():
    """The paper's protocol on a tree collective: the first run records
    one tape per shape, the broadcast's at the first warm-up call and
    the barrier's, and plays the second warm-up call and the 20 timed
    calls; the four later runs play all 23 of their calls from those
    tapes.  Each play equals its heap replay."""
    with taped() as counts:
        measure_collective("sp2", "broadcast", 4, 16, PAPER_CONFIG)
    assert counts["recorded"] == 2
    assert counts["carried"] == 4 * 23
    assert counts["hits"] == counts["plays"] == 21 + 4 * 23


def _separate_runs(spec, op, nbytes, p, config):
    """Each run's time from a world of its own, on the full simulation."""
    return tuple(
        max(MpiWorld(spec, p, seed=_run_seed(config, op, nbytes, p, run),
                     fast_wire=False).run(_timing_program(op, nbytes,
                                                          config)))
        for run in range(config.runs))


@given(random_algorithms(), st.sampled_from(MACHINES),
       st.sampled_from([0.0, 0.03, 0.3]))
@settings(max_examples=25, deadline=None)
def test_shared_tapes_give_the_run_times_of_separate_worlds(program, machine,
                                                            sigma):
    """Random algorithms, machines and jitter: the run times of a cell
    whose runs hand their tapes on are those of worlds built one per
    run, and every play equals its heap replay."""
    size, programs = program
    spec = replace(_jittered(machine, sigma),
                   algorithms={**get_machine_spec(machine).algorithms,
                               "broadcast": "test_random_program"})
    config = MeasurementConfig(iterations=3, warmup_iterations=2, runs=3)
    registry._ALGORITHMS["test_random_program"] = \
        _program_algorithm(programs)
    try:
        with taped():
            sample = measure_collective(spec, "broadcast", 0, size, config)
        separate = _separate_runs(spec, "broadcast", 0, size, config)
    finally:
        del registry._ALGORITHMS["test_random_program"]
    assert sample.run_times_us == separate


def test_a_monkeypatched_algorithm_plays_none_of_the_earlier_tapes(
        monkeypatch):
    """Two cells under one algorithm name, monkeypatched in between:
    the second cell plays its own tapes only, and its run times are the
    full simulation's."""
    recorded, played = set(), []
    play = EpisodeEvaluator._play
    replay = EpisodeEvaluator._replay

    def keeping(self, *args):
        replayed = replay(self, *args)
        if replayed is not None and replayed[1] is not None:
            recorded.add(replayed[1])
        return replayed

    def listing(self, tape, *args):
        played.append(tape)
        return play(self, tape, *args)

    monkeypatch.setattr(EpisodeEvaluator, "_replay", keeping)
    monkeypatch.setattr(EpisodeEvaluator, "_play", listing)
    config = MeasurementConfig(iterations=4, warmup_iterations=2, runs=3)
    spec = _with_algorithm(monkeypatch, "test_swapped",
                           get_algorithm("binomial_broadcast"))
    measure_collective(spec, "broadcast", 4, 8, config)
    first, recorded = recorded, set()
    monkeypatch.setitem(registry._ALGORITHMS, "test_swapped",
                        get_algorithm("scatter_allgather_broadcast"))
    played.clear()
    sample = measure_collective(spec, "broadcast", 4, 8, config)
    assert played and recorded
    assert not first & set(played)
    assert sample.run_times_us == _separate_runs(spec, "broadcast", 4, 8,
                                                 config)


# -- recording ---------------------------------------------------------------

def _record(algorithm, size, seq, nbytes, root, machine="sp2"):
    return record(algorithm, size, seq, nbytes, root,
                  get_machine_spec(machine))


def test_binomial_broadcast_records_its_tree():
    schedule = _record(get_algorithm("binomial_broadcast"), 4, 7, 64, 0)
    assert [[entry[0] for entry in ops] for ops in schedule] == \
        [[0, 0], [1, 2], [1, 2, 0], [1, 2]]
    assert schedule[0] == [(0, 2, 64, "broadcast", 2, False, None),
                           (0, 1, 64, "broadcast", 1, False, None)]


def test_buffered_and_offloaded_messages_record_their_options():
    """``buffered=`` sends and receives keep the flag; the Paragon's
    offloaded scan reads its coprocessor costs from ``comm.spec`` at
    record time, setup delay included."""
    schedule = _record(get_algorithm("posted_alltoall"), 2, 1, 64, 0)
    assert schedule[0] == [(1, 1, 1), (0, 1, 64, "alltoall", 1, True, None),
                           (2, 0, "alltoall", True, None)]
    software = get_machine_spec("paragon").software
    schedule = _record(get_algorithm("offloaded_scan"), 2, 1, 64, 0,
                       machine="paragon")
    half = (software.offload_round_us +
            64 * software.offload_us_per_byte) / 2.0
    assert schedule[0][-1] == (0, 1, 64, "scan", 1, False, half)
    assert schedule[1][-1] == (2, 0, "scan", False, half)
    setup = [entry for entry in schedule[0] if entry[0] == 3]
    assert setup == ([(3, software.offload_setup_us)]
                     if software.offload_setup_us > 0 else [])


@pytest.mark.parametrize("name", [
    "hardware_barrier",           # the barrier wire: ctx.machine
    "reduce_broadcast_allreduce",  # sub-algorithm lookup: ctx.comm
])
def test_registered_algorithms_the_engine_must_run(name):
    assert _record(get_algorithm(name), 8, 1, 64, 0, machine="t3d") is None


def _unrecordable(body):
    def algorithm(ctx, seq, nbytes, root=0):
        yield from body(ctx, seq, nbytes)

    return _record(algorithm, 4, 1, 16, 0)


@pytest.mark.parametrize("body", [
    # waits on an engine event of its own
    lambda ctx, seq, nbytes: iter([None]),
    # peer outside the communicator, or another call's tag space
    lambda ctx, seq, nbytes: ctx.coll_send(seq, 0, ctx.size, nbytes,
                                           op="x"),
    lambda ctx, seq, nbytes: ctx.coll_recv(seq + 1, 0, 0, op="x"),
    # receive options
    lambda ctx, seq, nbytes: ctx.coll_recv(seq, 0, 0, op="x",
                                           expected_nbytes=4),
    # a handle that is not a posted receive of this rank
    lambda ctx, seq, nbytes: ctx.coll_wait(object(), op="x"),
])
def test_unrecordable_bodies(body):
    assert _unrecordable(body) is None


def test_a_receive_waited_twice_is_unrecordable():
    def twice(ctx, seq, nbytes, root=0):
        receive = ctx.coll_post(seq, 0, 0)
        yield from ctx.coll_wait(receive, op="x")
        yield from ctx.coll_wait(receive, op="x")

    assert _record(twice, 2, 1, 16, 0) is None
