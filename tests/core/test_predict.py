"""Tests for ``predict_collective``: the simulator's time of one warm,
fenced call with the software jitter off."""

import dataclasses

import pytest

from repro.core import predict_collective
from repro.machines import PARAGON, SP2, T3D, get_machine_spec
from repro.mpi import MpiError, MpiWorld
from repro.tuner import candidate_algorithms

ALL_OPS = ("barrier", "broadcast", "reduce", "scan", "scatter",
           "gather", "alltoall", "allreduce", "allgather",
           "reduce_scatter")


def _racing(spec, op, algorithm):
    """``spec`` running ``algorithm`` for ``op``."""
    return dataclasses.replace(
        spec, algorithms={**dict(spec.algorithms), op: algorithm})


def _two_calls(spec, op, nbytes, p, seed):
    """The two-call program on the full wire pipeline (no transport or
    episode short-circuit) without jitter: the last finish of call 2
    minus the last finish of call 1."""
    still = dataclasses.replace(
        spec, software=dataclasses.replace(spec.software, jitter_sigma=0.0))
    world = MpiWorld(still, p, seed=seed, fast_wire=False)

    def program(ctx):
        yield from ctx.collective(op, nbytes)
        released = ctx.env.now
        yield from ctx.collective(op, nbytes)
        return released, ctx.env.now

    finishes = world.run(program)
    return max(end for _, end in finishes) - \
        max(released for released, _ in finishes)


def _scan_cells(machine):
    """Every candidate algorithm of every op at m in {4, 64 KB} (0 for
    the barrier) and non-power-of-two p in {6, 12, 20}."""
    spec = get_machine_spec(machine)
    for op in sorted(spec.algorithms):
        for algorithm in candidate_algorithms(spec, op):
            for nbytes in ((0,) if op == "barrier" else (4, 65536)):
                for p in (6, 12, 20):
                    yield _racing(spec, op, algorithm), op, nbytes, p


@pytest.mark.parametrize("machine", ["sp2", "t3d", "paragon"])
def test_prediction_is_the_full_simulation(machine):
    """Exact, not approximate: every candidate algorithm, composites
    included, against the full wire pipeline run with another seed.
    At jitter 0 equal times are everywhere, so this also pins the
    short-circuits' tie order."""
    cells = list(_scan_cells(machine))
    for cell in cells:
        assert predict_collective(*cell) == _two_calls(*cell, seed=1997), \
            (cell[0].algorithms[cell[1]],) + cell[1:]
    assert len(cells) == {"sp2": 129, "t3d": 123, "paragon": 129}[machine]


def test_prediction_does_not_depend_on_the_seed():
    for cell in [(SP2, "alltoall", 65536, 12), (T3D, "allreduce", 4, 12),
                 (PARAGON, "scan", 1024, 20)]:
        assert _two_calls(*cell, seed=0) == _two_calls(*cell, seed=1997) \
            == predict_collective(*cell)


@pytest.mark.parametrize("spec", [SP2, T3D, PARAGON])
@pytest.mark.parametrize("op", ALL_OPS)
def test_predict_every_op(spec, op):
    assert predict_collective(spec, op, 1024, 16) > 0


def test_machine_name_or_spec():
    assert predict_collective("sp2", "broadcast", 1024, 8) == \
        predict_collective(SP2, "broadcast", 1024, 8)


def test_an_attached_decision_table_picks_the_algorithm():
    class Table:
        def lookup(self, machine, op, nbytes, p):
            return "scatter_allgather_broadcast"

    tuned = SP2.with_decision_table(Table())
    raced = _racing(SP2, "broadcast", "scatter_allgather_broadcast")
    assert predict_collective(tuned, "broadcast", 65536, 8) == \
        predict_collective(raced, "broadcast", 65536, 8) != \
        predict_collective(SP2, "broadcast", 65536, 8)


def test_predict_validation_errors():
    with pytest.raises(ValueError):
        predict_collective(SP2, "broadcast", 8, 1)
    with pytest.raises(MpiError):
        predict_collective(SP2, "broadcast", -1, 8)
    with pytest.raises(MpiError):
        predict_collective(SP2, "alltoallv", 8, 8)


def test_prediction_monotone_in_message_size():
    for spec in (SP2, T3D, PARAGON):
        assert predict_collective(spec, "broadcast", 65536, 16) > \
            predict_collective(spec, "broadcast", 4, 16)


def test_prediction_monotone_in_machine_size():
    for op in ("scatter", "alltoall", "broadcast"):
        assert predict_collective(SP2, op, 1024, 64) > \
            predict_collective(SP2, op, 1024, 8)


def test_t3d_hardware_barrier_predicted_flat():
    assert predict_collective(T3D, "barrier", 0, 64) < 10.0
    assert predict_collective(SP2, "barrier", 0, 64) > 100.0
