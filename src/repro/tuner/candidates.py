"""Candidate algorithm sets and tuning grids.

The tuner races, per operation, the machine's fixed 1996 choice against
the zoo (:mod:`repro.mpi.collectives.zoo`) and extension
(:mod:`repro.mpi.collectives.extensions`) algorithms that implement
the same semantics.  Candidates needing hardware a machine lacks — a
barrier wire, a message coprocessor — are filtered out per machine, so
every raced cell actually runs.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..machines import MachineSpec
from ..runner import SweepGrid

__all__ = ["CANDIDATES", "TUNE_OPS", "TUNE_GRIDS",
           "tune_grid", "candidate_algorithms"]

#: op -> alternative algorithms implementing it (the machine's own
#: fixed choice is always raced too, as the incumbent).
CANDIDATES: Dict[str, Tuple[str, ...]] = {
    "broadcast": ("scatter_allgather_broadcast",
                  "segmented_binomial_broadcast"),
    "reduce": ("binary_tree_reduce", "segmented_binomial_reduce"),
    "gather": ("binomial_tree_gather",),
    "alltoall": ("pairwise_exchange_alltoall",),
    "allgather": ("ring_allgather", "recursive_doubling_allgather"),
    "allreduce": ("recursive_doubling_allreduce",
                  "rabenseifner_allreduce"),
    "reduce_scatter": ("ring_reduce_scatter",
                       "recursive_halving_reduce_scatter"),
}

#: The operations the default grids tune, in canonical order.
TUNE_OPS: Tuple[str, ...] = ("allgather", "allreduce", "alltoall",
                             "broadcast", "gather", "reduce",
                             "reduce_scatter")


def _is_feasible(spec: MachineSpec, algorithm: str) -> bool:
    """Whether ``algorithm`` can run on ``spec`` at all."""
    if algorithm == "hardware_barrier":
        return spec.barrier_wire is not None
    if algorithm == "offloaded_scan":
        software = spec.software
        return software.offload_round_us is not None and \
            software.offload_us_per_byte is not None
    return True


def candidate_algorithms(spec: MachineSpec, op: str) -> Tuple[str, ...]:
    """Sorted candidate set for (machine, op): incumbent + feasible
    alternatives.  Empty when the machine defines no algorithm for the
    operation."""
    incumbent = spec.algorithms.get(op)
    if incumbent is None:
        return ()
    names = {incumbent}
    names.update(name for name in CANDIDATES.get(op, ())
                 if _is_feasible(spec, name))
    return tuple(sorted(names))


#: Named tuning grids the CLI exposes: the (op, m, p) points a tune
#: races candidates at.  The caller's machines replace the grid's, and
#: each machine's sizes are clipped to its allocation cap (the T3D's
#: 64-node partition) as in every sweep grid.  ``paper`` spans the
#: paper's operation set at short/medium/long messages; ``smoke`` is
#: the tiny grid CI byte-diffs.
TUNE_GRIDS: Dict[str, SweepGrid] = {
    "paper": SweepGrid(name="paper", ops=TUNE_OPS,
                       message_sizes=(16, 1024, 16384, 65536),
                       machine_sizes=(4, 16, 64)),
    "smoke": SweepGrid(name="smoke", ops=("allreduce", "broadcast"),
                       message_sizes=(64, 65536),
                       machine_sizes=(4, 16)),
}


def tune_grid(name: str) -> SweepGrid:
    """Look up a named tuning grid."""
    try:
        return TUNE_GRIDS[name]
    except KeyError:
        known = ", ".join(sorted(TUNE_GRIDS))
        raise KeyError(f"unknown tuning grid {name!r}; known grids: "
                       f"{known}") from None
