"""Sweep grids: cell enumeration, presets, and deterministic sharding.

A sweep evaluates ``T(m, p)`` over the cross product of machines,
collectives, message lengths, and machine sizes — the paper's
experimental grid (Section 2).  :class:`SweepGrid` enumerates that
product in one canonical sorted order so every run (serial, parallel,
cached, or not) sees the identical cell list, and :func:`shard_cells`
deals the list round-robin across workers so the expensive large-``p``
cells spread evenly instead of landing on one shard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..core import (
    FIGURE_OPS,
    MACHINES,
    PAPER_MACHINE_SIZES,
    PAPER_MESSAGE_SIZES,
    STARTUP_PROBE_BYTES,
    machine_sizes_for,
)

__all__ = ["SweepCell", "SweepGrid", "GRID_PRESETS", "preset_grid",
           "shard_cells"]


@dataclass(frozen=True, order=True)
class SweepCell:
    """One (machine, op, m, p) grid point.

    ``algorithm`` optionally overrides the machine's fixed algorithm
    choice for this cell (the tuner races candidates this way).  The
    empty string — not ``None``, which would break the ordered
    dataclass's sorting — means "the machine's default".
    """

    machine: str
    op: str
    nbytes: int
    p: int
    algorithm: str = ""

    def key(self) -> str:
        """Human-readable stable identifier, e.g. ``sp2/alltoall/1024/32``."""
        base = f"{self.machine}/{self.op}/{self.nbytes}/{self.p}"
        return f"{base}/{self.algorithm}" if self.algorithm else base


@dataclass(frozen=True)
class SweepGrid:
    """Declarative sweep grid; ``cells()`` is its canonical enumeration."""

    name: str
    machines: Tuple[str, ...] = MACHINES
    ops: Tuple[str, ...] = FIGURE_OPS
    message_sizes: Tuple[int, ...] = PAPER_MESSAGE_SIZES
    machine_sizes: Tuple[int, ...] = PAPER_MACHINE_SIZES
    #: Add the paper's seventh panel: the payload-free barrier.
    include_barrier: bool = False

    def cells(self) -> Tuple[SweepCell, ...]:
        """All grid points, deduplicated, in sorted canonical order.

        Sorting (machine, op, m, p) — not insertion order — is what
        makes artifacts byte-stable: any permutation of the declared
        tuples enumerates the identical cell sequence.  The T3D's
        64-node allocation cap is honoured per machine.
        """
        cells = set()
        for machine in self.machines:
            sizes = machine_sizes_for(machine, self.machine_sizes)
            for op in self.ops:
                for p in sizes:
                    for nbytes in self.message_sizes:
                        cells.add(SweepCell(machine, op, nbytes, p))
            if self.include_barrier:
                for p in sizes:
                    cells.add(SweepCell(machine, "barrier", 0, p))
        return tuple(sorted(cells))


#: Named grids the CLI exposes.  ``fig1``-``fig3`` are the cells of
#: the paper's Figures 1-3 and ``full`` those of its Table 3 (the
#: figure and table builders of :mod:`repro.bench` evaluate exactly
#: these); ``smoke`` is the tiny grid CI exercises.
GRID_PRESETS: Dict[str, SweepGrid] = {
    "fig1": SweepGrid(name="fig1",
                      message_sizes=(STARTUP_PROBE_BYTES,)),
    "fig2": SweepGrid(name="fig2", machine_sizes=(32,)),
    "fig3": SweepGrid(name="fig3", message_sizes=(16, 65536),
                      include_barrier=True),
    "smoke": SweepGrid(name="smoke", machines=("sp2", "t3d"),
                       ops=("broadcast", "reduce"),
                       message_sizes=(16, 1024),
                       machine_sizes=(2, 4),
                       include_barrier=True),
    "full": SweepGrid(name="full", include_barrier=True),
}


def preset_grid(name: str) -> SweepGrid:
    """Look up a named grid preset."""
    try:
        return GRID_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(GRID_PRESETS))
        raise KeyError(f"unknown grid preset {name!r}; known presets: "
                       f"{known}") from None


def shard_cells(cells: Tuple[SweepCell, ...],
                num_shards: int) -> Tuple[Tuple[SweepCell, ...], ...]:
    """Deal ``cells`` round-robin into ``num_shards`` ordered shards.

    Deterministic: shard ``i`` gets cells ``i, i + n, i + 2n, ...`` of
    the (already sorted) input.  Round-robin interleaving balances
    cost because enumeration order groups cells by (machine, op), so
    consecutive cells — cheap small-``p`` and expensive large-``p``
    alike — scatter across shards.  Empty shards are dropped.
    """
    if num_shards < 1:
        raise ValueError(f"need at least one shard, got {num_shards}")
    shards = [list(cells[index::num_shards])
              for index in range(num_shards)]
    return tuple(tuple(shard) for shard in shards if shard)
