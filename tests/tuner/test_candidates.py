"""Candidate sets: feasibility filtering and grid lookup."""

import hashlib

import pytest

from repro.machines import get_machine_spec
from repro.mpi.collectives import algorithm_names
from repro.runner import SweepGrid
from repro.tuner import (
    CANDIDATES,
    TUNE_GRIDS,
    TUNE_OPS,
    candidate_algorithms,
    tune_cells,
    tune_grid,
)


def test_every_candidate_is_a_registered_algorithm():
    registered = set(algorithm_names())
    for op, names in CANDIDATES.items():
        assert set(names) <= registered, (op, names)


def test_candidates_include_the_incumbent():
    for machine in ("sp2", "t3d", "paragon"):
        spec = get_machine_spec(machine)
        for op in TUNE_OPS:
            names = candidate_algorithms(spec, op)
            assert spec.algorithms[op] in names
            assert names == tuple(sorted(names))


def test_infeasible_candidates_are_filtered_per_machine(monkeypatch):
    # Hardware-dependent algorithms only race on machines that have
    # the hardware: the barrier wire is T3D-only, the message
    # coprocessor Paragon-only.
    from repro.tuner import candidates as mod

    monkeypatch.setitem(mod.CANDIDATES, "barrier",
                        ("hardware_barrier",))
    monkeypatch.setitem(mod.CANDIDATES, "scan", ("offloaded_scan",))
    t3d = get_machine_spec("t3d")
    sp2 = get_machine_spec("sp2")
    paragon = get_machine_spec("paragon")
    assert "hardware_barrier" in candidate_algorithms(t3d, "barrier")
    assert "hardware_barrier" not in candidate_algorithms(sp2, "barrier")
    assert "offloaded_scan" in candidate_algorithms(paragon, "scan")
    assert "offloaded_scan" not in candidate_algorithms(sp2, "scan")


def test_undefined_op_yields_no_candidates():
    spec = get_machine_spec("sp2")
    assert candidate_algorithms(spec, "teleport") == ()


def test_tune_grid_lookup_and_unknown_name():
    assert tune_grid("smoke") is TUNE_GRIDS["smoke"]
    with pytest.raises(KeyError, match="known grids"):
        tune_grid("galaxy")


def test_tune_cells_race_every_candidate_at_every_point():
    grid = tune_grid("smoke")
    cells = tune_cells(["sp2"], grid)
    assert cells == tuple(sorted(cells))
    spec = get_machine_spec("sp2")
    for op in grid.ops:
        names = candidate_algorithms(spec, op)
        raced = {c.algorithm for c in cells if c.op == op}
        assert raced == set(names)
    # Every cell carries an explicit algorithm (the incumbent too).
    assert all(c.algorithm for c in cells)


def test_tune_cells_honour_the_t3d_allocation_cap():
    grid = SweepGrid(name="big", ops=("broadcast",),
                     message_sizes=(16,), machine_sizes=(4, 64, 256))
    cells = tune_cells(["t3d"], grid)
    assert max(c.p for c in cells) == 64


def test_tune_cells_ignore_the_grids_own_machines():
    grid = tune_grid("smoke")
    assert grid.machines == ("sp2", "t3d", "paragon")
    assert {c.machine for c in tune_cells(["t3d"], grid)} == {"t3d"}


#: (count, sha256 prefix of the newline-joined cell keys) of every
#: preset's cell list, as the tuner enumerated them before tuning grids
#: became sweep grids.
PINNED_TUNE_CELLS = {
    ("paper", "sp2"): (228, "9feae3795126b7b9"),
    ("paper", "t3d"): (216, "7e43542d0f93d83c"),
    ("paper", "paragon"): (228, "b51c9292c58070c4"),
    ("smoke", "sp2"): (24, "bde286bfd9b37aab"),
    ("smoke", "t3d"): (24, "91bab9cbb29a8697"),
    ("smoke", "paragon"): (24, "b8aab7ff6cac039b"),
}


@pytest.mark.parametrize("grid_name,machine", sorted(PINNED_TUNE_CELLS))
def test_tune_cells_are_pinned(grid_name, machine):
    cells = tune_cells([machine], tune_grid(grid_name))
    digest = hashlib.sha256(
        "\n".join(c.key() for c in cells).encode()).hexdigest()[:16]
    assert (len(cells), digest) == PINNED_TUNE_CELLS[grid_name, machine]
