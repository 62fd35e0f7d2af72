"""Tests for error types and world-level failure handling."""

import pytest

from repro.mpi import MpiError, MpiWorld, RankError


def test_rank_error_message():
    error = RankError(9, 4)
    assert "9" in str(error) and "4" in str(error)
    assert isinstance(error, MpiError)


def test_deadlock_detected_via_until():
    # Rank 1 waits for a message nobody sends; with an `until` bound
    # the world reports the hang instead of spinning forever.
    world = MpiWorld("t3d", 2, seed=0)

    def program(ctx):
        if ctx.rank == 1:
            yield from ctx.recv(0, tag=42)
        return None
        yield  # make rank 0 a generator too

    with pytest.raises(MpiError, match="did not finish"):
        world.run(program, until=1_000_000.0)


def test_rank_failure_reported_with_cause():
    world = MpiWorld("t3d", 2, seed=0)

    def program(ctx):
        yield from ctx.delay(1.0)
        if ctx.rank == 1:
            raise RuntimeError("application bug")
        return None

    with pytest.raises(MpiError, match="rank 1 failed") as excinfo:
        world.run(program)
    assert isinstance(excinfo.value.__cause__, RuntimeError)


def test_run_collective_validates_iterations():
    world = MpiWorld("t3d", 2, seed=0)
    with pytest.raises(ValueError):
        world.run_collective("broadcast", 8, iterations=0)


def test_mismatched_collective_order_deadlocks():
    # MPI requires every rank to call collectives in the same order;
    # the serialization fence turns a mismatch into a detectable hang.
    world = MpiWorld("sp2", 2, seed=0)

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.gather(64)   # root waits to receive
        else:
            yield from ctx.bcast(64)    # non-root waits to receive
        yield from ctx.barrier()

    with pytest.raises(MpiError):
        world.run(program, until=10_000_000.0)
