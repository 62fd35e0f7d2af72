"""Tests for the RankContext public API surface."""

import gc
import weakref

import pytest

from repro.bench import degradation
from repro.core import hockney, measurement
from repro.faults import fault_preset
from repro.mpi import MpiWorld, RankError
from repro.mpi.collectives import base as registry
from repro.tuner import DecisionEntry, DecisionRule, DecisionTable


def run(program, machine="t3d", nodes=4, **kwargs):
    return MpiWorld(machine, nodes, seed=8, **kwargs).run(program)


def test_rank_and_size_visible():
    def program(ctx):
        yield from ctx.delay(1.0)
        return (ctx.rank, ctx.size)

    results = run(program)
    assert results == [(0, 4), (1, 4), (2, 4), (3, 4)]


def test_log2_size():
    def program(ctx):
        yield from ctx.delay(1.0)
        return ctx.log2_size()

    assert run(program, nodes=8)[0] == 3
    assert run(program, nodes=5)[0] == 3
    assert run(program, nodes=2)[0] == 1


def test_wtime_monotone_per_rank():
    def program(ctx):
        readings = [ctx.wtime()]
        for _ in range(5):
            yield from ctx.delay(10.0)
            readings.append(ctx.wtime())
        return readings

    for readings in run(program):
        assert readings == sorted(readings)


def test_wtime_differs_across_ranks():
    def program(ctx):
        yield from ctx.delay(1.0)
        return ctx.wtime()

    readings = run(program)
    assert len(set(readings)) > 1  # skewed clocks


def test_delay_is_jittered_but_positive():
    def program(ctx):
        start = ctx.env.now
        yield from ctx.delay(100.0)
        return ctx.env.now - start

    durations = run(program)
    assert all(50.0 < d < 200.0 for d in durations)
    assert len(set(durations)) > 1


def test_collective_rejects_negative_bytes():
    def program(ctx):
        yield from ctx.collective("broadcast", -4)

    with pytest.raises(Exception):
        run(program)


def test_node_one_process_per_node():
    def program(ctx):
        yield from ctx.delay(1.0)
        return ctx.node.index

    assert run(program) == [0, 1, 2, 3]


def test_world_rank_equals_rank_on_world_comm():
    def program(ctx):
        yield from ctx.delay(1.0)
        return ctx.world_rank == ctx.rank

    assert all(run(program))


def test_sendrecv_roundtrip_time_positive():
    def program(ctx):
        if ctx.rank == 0:
            start = ctx.wtime()
            yield from ctx.send(1, 512, tag="ping")
            yield from ctx.recv(1, tag="pong")
            return ctx.wtime() - start
        if ctx.rank == 1:
            yield from ctx.recv(0, tag="ping")
            yield from ctx.send(0, 512, tag="pong")
        return None

    rtt = run(program)[0]
    assert rtt > 0


def test_run_collective_many_iterations_accumulate():
    # The first iteration carries the warm-up penalty, so compare the
    # marginal cost of extra iterations instead of naive multiples.
    one = MpiWorld("t3d", 4, seed=8).run_collective(
        "broadcast", 256, iterations=1)
    three = MpiWorld("t3d", 4, seed=8).run_collective(
        "broadcast", 256, iterations=3)
    five = MpiWorld("t3d", 4, seed=8).run_collective(
        "broadcast", 256, iterations=5)
    assert three > one
    marginal_35 = (five - three) / 2
    marginal_13 = (three - one) / 2
    assert marginal_35 == pytest.approx(marginal_13, rel=0.3)


def _assert_bound_like_communicator(ctx):
    comm = ctx.comm
    assert ctx.size == comm.size
    assert ctx.world_rank == comm.world_ranks[ctx.rank]
    assert ctx.env is comm.machine.env
    assert ctx.transport is comm.transport
    assert ctx.machine is comm.machine
    assert ctx.node is comm.machine.nodes[comm.world_ranks[ctx.rank]]


def test_context_binding_matches_communicator():
    world = MpiWorld("sp2", 8, seed=1)

    def program(ctx):
        _assert_bound_like_communicator(ctx)
        # Reversed keys make child local ranks differ from world ranks.
        child = yield from ctx.comm_split(color=ctx.rank % 3,
                                          key=-ctx.rank)
        _assert_bound_like_communicator(child)
        return child.size, child.world_rank

    results = world.run(program)
    assert [size for size, _ in results] == [3, 3, 2, 3, 3, 2, 3, 3]
    assert [world_rank for _, world_rank in results] == list(range(8))


@pytest.mark.parametrize("operation", ["send", "irecv", "coll_send",
                                       "coll_post"])
def test_out_of_range_ranks_raise_instead_of_wrapping(operation):
    world = MpiWorld("t3d", 4, seed=8)
    ctx = world.comm.contexts[1]
    calls = {
        "send": lambda peer: list(ctx.send(peer, 8)),
        "irecv": lambda peer: ctx.irecv(peer),
        "coll_send": lambda peer: list(ctx.coll_send(
            0, 0, peer, 8, "broadcast")),
        "coll_post": lambda peer: ctx.coll_post(0, 0, peer),
    }
    for peer in (-1, ctx.size):
        with pytest.raises(RankError):
            calls[operation](peer)


_FLIP_AT = 4096
_FLIP_TABLE = DecisionTable(entries={("sp2", "broadcast"): (
    DecisionEntry(min_p=2, rules=(
        DecisionRule(0, "binomial_broadcast"),
        DecisionRule(_FLIP_AT, "segmented_binomial_broadcast"))),)})


def _back_to_back_broadcasts(sizes, resolve_every_call):
    """Broadcasts of ``sizes`` in order on one world's communicator;
    ``resolve_every_call`` empties the algorithm cache before each."""
    world = MpiWorld("sp2", 8, seed=4, decision_table=_FLIP_TABLE)

    def program(ctx):
        ends = []
        for nbytes in sizes:
            if resolve_every_call:
                ctx.comm._algorithms.clear()
            yield from ctx.bcast(nbytes)
            ends.append(ctx.env.now)
        return ends

    return world, world.run(program)


def test_algorithm_cache_follows_decision_table(monkeypatch):
    """Sizes either side of a decision-table flip, back to back on one
    communicator, each run the algorithm the spec names for them, with
    the same simulated times as a world resolving on every call."""
    names = ("binomial_broadcast", "segmented_binomial_broadcast")
    ran = {}
    for name in names:
        original = registry.get_algorithm(name)

        def spy(ctx, seq, nbytes, root=0, _name=name, _original=original):
            ran.setdefault(ctx.rank, []).append(_name)
            yield from _original(ctx, seq, nbytes, root)

        monkeypatch.setitem(registry._ALGORITHMS, name, spy)
    sizes = [_FLIP_AT // 4, 4 * _FLIP_AT, _FLIP_AT // 4, 4 * _FLIP_AT]
    cached_world, cached = _back_to_back_broadcasts(sizes, False)
    spec = cached_world.machine.spec
    expected = [spec.algorithm_for("broadcast", nbytes=n, p=8)
                for n in sizes]
    assert expected == [names[0], names[1], names[0], names[1]]
    assert ran == {rank: expected for rank in range(8)}
    ran.clear()
    _, uncached = _back_to_back_broadcasts(sizes, True)
    assert uncached == cached
    assert ran == {rank: expected for rank in range(8)}


def test_completion_fence_keeps_at_most_one_stale_entry():
    world = MpiWorld("paragon", 8, seed=2)
    world.run_collective("broadcast", 64, iterations=50)
    comm = world.comm
    assert len(comm._completions) <= 1
    assert comm._completions.keys() == comm._completion_counts.keys()
    assert all(event.triggered for event in comm._completions.values())


def test_a_closed_world_is_freed_without_the_cyclic_collector():
    """``close`` breaks the communicator's cycles (its rank contexts and
    its episode evaluator), so the machine goes as soon as the world
    does; ``measure_collective`` closes every world it runs."""
    gc.disable()
    try:
        world = MpiWorld("sp2", 4, seed=1)
        world.run_collective("broadcast", 4, iterations=3)
        machine = weakref.ref(world.machine)
        world.close()
        del world
        assert machine() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("module, call", [
    (measurement, lambda: measurement.predict_collective(
        "sp2", "broadcast", 4, 4)),
    (degradation, lambda: degradation.run_chaos(
        "sp2", "broadcast", fault_preset("lossy"), num_nodes=4)),
    (hockney, lambda: hockney.measure_pingpong("sp2", 64)),
], ids=["predict_collective", "run_chaos", "measure_pingpong"])
def test_worlds_that_do_not_escape_are_freed_on_return(monkeypatch, module,
                                                       call):
    """Helpers that build worlds only to read a result off them close
    those worlds: with the cyclic collector off, the machine of every
    world they built is gone once they return."""
    machines = []

    class Tracked(MpiWorld):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            machines.append(weakref.ref(self.machine))

    monkeypatch.setattr(module, "MpiWorld", Tracked)
    gc.disable()
    try:
        call()
        assert machines and all(machine() is None for machine in machines)
    finally:
        gc.enable()


def test_a_measured_cell_frees_each_world_and_drops_its_shelf(monkeypatch):
    """``measure_collective`` hands tapes from run to run on a shelf
    that holds no object of a world: with the cyclic collector off,
    every earlier world is gone before a run builds its own, and the
    shelf is gone once the cell returns."""
    machines, shelves = [], []

    def world_objects(root):
        seen, stack, found = set(), [root], []
        while stack:
            obj = stack.pop()
            if id(obj) in seen or callable(obj):
                continue  # an algorithm key: its globals are no world's
            seen.add(id(obj))
            if type(obj).__module__.startswith("repro.") and \
                    type(obj).__name__ not in ("Shelf", "_Tape"):
                found.append(obj)
            stack.extend(gc.get_referents(obj))
        return found

    class Tracked(MpiWorld):
        def __init__(self, *args, **kwargs):
            assert all(machine() is None for machine in machines)
            assert not shelves or not world_objects(shelves[0]())
            super().__init__(*args, **kwargs)
            machines.append(weakref.ref(self.machine))

    class Shelf(measurement.Shelf):
        def __init__(self):
            super().__init__()
            shelves.append(weakref.ref(self))

    monkeypatch.setattr(measurement, "MpiWorld", Tracked)
    monkeypatch.setattr(measurement, "Shelf", Shelf)
    gc.disable()
    try:
        measurement.measure_collective("sp2", "broadcast", 4, 8,
                                       measurement.PAPER_CONFIG)
        assert len(machines) == measurement.PAPER_CONFIG.runs
        assert all(machine() is None for machine in machines)
        assert len(shelves) == 1 and shelves[0]() is None
    finally:
        gc.enable()
