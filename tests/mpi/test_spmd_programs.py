"""User-written SPMD programs: per-rank generators run by MpiWorld.run.

An application is not a library module here but a program in the
pattern of ``examples/stap_tradeoff.py`` and the "Writing your own
SPMD program" section of ``docs/extending.md``: divided computation
via ``ctx.delay`` and communication through the rank API, with phases
split by reading the simulated clock.
"""

import re
from pathlib import Path

import pytest

from repro import MpiWorld

DOCS = Path(__file__).resolve().parents[2] / "docs" / "extending.md"

#: Total work per compute phase across all nodes, in CPU-microseconds.
WORK_US = 20_000.0
#: A small radar cube: 4 channels x 32 pulses x 64 ranges of floats.
CUBE_BYTES = 4 * 32 * 64 * 8


def corner_turn_step(ctx, work_us=WORK_US, cube_bytes=CUBE_BYTES):
    """compute -> corner turn -> compute; returns (compute, comm) us."""
    yield from ctx.barrier()
    start = ctx.env.now
    yield from ctx.delay(work_us / ctx.size)
    compute_done = ctx.env.now
    yield from ctx.alltoall(max(cube_bytes // ctx.size ** 2, 4))
    comm_done = ctx.env.now
    yield from ctx.delay(work_us / ctx.size)
    return (compute_done - start) + (ctx.env.now - comm_done), \
        comm_done - compute_done


def slowest(phases):
    """Per-phase maximum over ranks, as a profiler would report."""
    compute, comm = zip(*phases)
    return max(compute), max(comm)


@pytest.mark.parametrize("machine", ["sp2", "t3d", "paragon"])
def test_corner_turn_step_runs_on_every_machine(machine):
    compute_us, comm_us = slowest(MpiWorld(machine, 8).run(corner_turn_step))
    assert compute_us > 0
    assert comm_us > 0
    assert 0.0 < comm_us / (compute_us + comm_us) < 1.0


def test_phases_partition_each_ranks_step():
    world = MpiWorld("t3d", 8)

    def program(ctx):
        yield from ctx.barrier()
        start = ctx.env.now
        compute_us, comm_us = yield from corner_turn_step(ctx)
        return compute_us, comm_us, ctx.env.now - start

    for compute_us, comm_us, step_us in world.run(program):
        # The step's leading barrier is the only unaccounted time.
        assert compute_us + comm_us <= step_us
        assert compute_us + comm_us == pytest.approx(step_us, rel=0.05)


def test_divided_compute_shrinks_with_nodes():
    small, _ = slowest(MpiWorld("t3d", 4).run(corner_turn_step))
    large, _ = slowest(MpiWorld("t3d", 16).run(corner_turn_step))
    assert large < small


def test_corner_turn_share_grows_with_nodes():
    def comm_share(p):
        compute_us, comm_us = slowest(MpiWorld("sp2", p).run(
            corner_turn_step))
        return comm_us / (compute_us + comm_us)

    assert comm_share(32) > comm_share(4)


def test_same_seed_gives_same_phases():
    a = MpiWorld("paragon", 8, seed=3).run(corner_turn_step)
    b = MpiWorld("paragon", 8, seed=3).run(corner_turn_step)
    assert a == b


def test_run_returns_results_in_rank_order():
    def program(ctx):
        yield from ctx.barrier()
        return ctx.rank

    assert MpiWorld("sp2", 6).run(program) == list(range(6))


@pytest.mark.parametrize("machine", ["sp2", "t3d", "paragon"])
def test_larger_cube_makes_a_slower_corner_turn(machine):
    def comm_us(cube_bytes):
        def program(ctx):
            return (yield from corner_turn_step(ctx, cube_bytes=cube_bytes))
        return slowest(MpiWorld(machine, 8).run(program))[1]

    assert comm_us(64 * CUBE_BYTES) > comm_us(CUBE_BYTES)


def test_root_imbalance_surfaces_as_peer_wait():
    # Sample sort's shape: gather samples at the root, the root alone
    # sorts them, then broadcasts splitters before the redistribution.
    # The other ranks see the root's extra work as a slow broadcast.
    root_work_us = 5_000.0

    def program(ctx):
        yield from ctx.barrier()
        yield from ctx.gather(64)
        if ctx.rank == 0:
            yield from ctx.delay(root_work_us)
        start = ctx.env.now
        yield from ctx.bcast(28)
        bcast_us = ctx.env.now - start
        yield from ctx.alltoall(1024)
        return bcast_us

    bcast_us = MpiWorld("t3d", 8).run(program)
    assert all(wait > root_work_us / 2 for wait in bcast_us[1:])
    assert bcast_us[0] < root_work_us / 2


def test_extending_guide_program_runs():
    text = DOCS.read_text(encoding="utf-8")
    section = text.split("## Writing your own SPMD program", 1)[1]
    source = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(source, str(DOCS), "exec"), namespace)
    assert namespace["compute_us"] > 0
    assert namespace["comm_us"] > 0
