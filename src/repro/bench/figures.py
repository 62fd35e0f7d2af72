"""Regeneration of the paper's Figures 1-5.

Each ``figureN`` function declares the figure's cells as a
:class:`~repro.runner.SweepGrid`, evaluates them with
:func:`campaign_times` (the sweep runner, in process and uncached) and
shapes the times into a :class:`FigureData` whose series mirror the
figure's curves; ``format()`` renders them as text the way the benches
print them.  Table 3, the headline checks and the fault curves are
built the same way.

``fast=True`` is the ``--fast`` campaign: every grid that spans the
paper's p or m axis spans a coarse one instead, under a two-iteration
single-run protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

from ..core import (
    FIGURE_OPS,
    MACHINES,
    PAPER_MACHINE_SIZES,
    PAPER_MESSAGE_SIZES,
    QUICK_CONFIG,
    STARTUP_PROBE_BYTES,
    MeasurementConfig,
    estimate_rinf_two_point,
)
from ..core.report import format_series
from ..runner import GRID_PRESETS, SweepCell, SweepConfig, SweepGrid, \
    run_sweep

__all__ = ["CampaignError", "FAST_CONFIG", "FigureData", "campaign_grid",
           "campaign_times", "figure1", "figure2", "figure3", "figure4",
           "figure5", "startup_cell"]

#: Figure 2 and 4 are drawn at 32 nodes; Figure 4 at 1 KB messages.
FIGURE2_NODES = 32
FIGURE4_NODES = 32
FIGURE4_BYTES = 1024
#: Figure 3 contrasts short (16 B) and long (64 KB) messages.
FIGURE3_SHORT = 16
FIGURE3_LONG = 65536

#: The ``--fast`` campaign's axes, standing in for the paper's p and m
#: axes wherever a grid spans them.
FAST_MACHINE_SIZES: Tuple[int, ...] = (2, 8, 32)
FAST_MESSAGE_SIZES: Tuple[int, ...] = (4, 1024, 65536)
#: The ``--fast`` protocol.  k=1 would leave the (deliberately
#: modelled) staggered barrier exit un-amortized and swamp small
#: startup latencies.
FAST_CONFIG = MeasurementConfig(iterations=2, warmup_iterations=1,
                                runs=1)


class CampaignError(RuntimeError):
    """A cell of a figure, table or check failed to simulate."""


def campaign_grid(grid: SweepGrid, fast: bool = False) -> SweepGrid:
    """``grid``, or under ``fast`` its coarse variant: the paper's p and
    m axes swapped for :data:`FAST_MACHINE_SIZES` and
    :data:`FAST_MESSAGE_SIZES`."""
    if not fast:
        return grid
    coarse = {PAPER_MACHINE_SIZES: FAST_MACHINE_SIZES,
              PAPER_MESSAGE_SIZES: FAST_MESSAGE_SIZES}
    return replace(
        grid,
        machine_sizes=coarse.get(grid.machine_sizes, grid.machine_sizes),
        message_sizes=coarse.get(grid.message_sizes, grid.message_sizes))


def campaign_times(cells: Iterable[SweepCell],
                   config: Optional[MeasurementConfig] = None,
                   fast: bool = False) -> Dict[SweepCell, float]:
    """``T(m, p)`` in us of every cell, evaluated once each by the sweep
    runner under one protocol (default: the quick protocol, or
    :data:`FAST_CONFIG` under ``fast``).

    A cell that fails raises :class:`CampaignError` naming it: a
    figure never silently loses a point.
    """
    if config is None:
        config = FAST_CONFIG if fast else QUICK_CONFIG
    result = run_sweep(tuple(cells),
                       SweepConfig(measurement=config, use_cache=False))
    if result.quarantined:
        cell, reason = min(result.quarantined.items())
        raise CampaignError(f"cell {cell.key()} failed: {reason}")
    return {cell: value["time_us"]
            for cell, value in result.results.items()}


def startup_cell(machine: str, op: str, p: int) -> SweepCell:
    """The ``T0(p)`` probe: a 4-byte message (Section 3); the barrier
    carries no payload."""
    nbytes = 0 if op == "barrier" else STARTUP_PROBE_BYTES
    return SweepCell(machine, op, nbytes, p)


def with_ops(grid: SweepGrid, ops: Tuple[str, ...]) -> SweepGrid:
    """``grid`` over ``ops``; a listed barrier becomes its payload-free
    panel."""
    return replace(grid, ops=tuple(op for op in ops if op != "barrier"),
                   include_barrier="barrier" in ops)


def _panel_order(times: Dict[SweepCell, float],
                 ops: Tuple[str, ...]) -> List[SweepCell]:
    """The cells in the figures' panel order: op as listed (barrier
    last), machine in the paper's order, then m and p.  Series are
    added in this order, which ``plot_figure`` keeps in its legend."""
    rank = {op: index for index, op in enumerate(ops)}
    return sorted(times, key=lambda cell: (
        rank.get(cell.op, len(ops)), MACHINES.index(cell.machine),
        cell.nbytes, cell.p))


@dataclass
class FigureData:
    """One regenerated figure: named series of (x -> value) points."""

    figure_id: str
    title: str
    unit: str
    #: series key is ``(op, machine)`` or ``(op, machine, variant)``.
    series: Dict[Tuple[str, ...], Dict[int, float]] = \
        field(default_factory=dict)

    def add(self, key: Tuple[str, ...], x: int, value: float) -> None:
        self.series.setdefault(key, {})[x] = value

    def get(self, *key: str) -> Dict[int, float]:
        """Series lookup by key components."""
        return self.series[tuple(key)]

    def format(self) -> str:
        lines = [f"{self.figure_id}: {self.title}"]
        for key in sorted(self.series):
            lines.append(format_series("/".join(map(str, key)),
                                       self.series[key], unit=self.unit))
        return "\n".join(lines)


def figure1(config: Optional[MeasurementConfig] = None,
            ops: Tuple[str, ...] = FIGURE_OPS,
            fast: bool = False) -> FigureData:
    """Figure 1: startup latencies T0(p) of six collectives."""
    grid = campaign_grid(with_ops(GRID_PRESETS["fig1"], ops), fast)
    times = campaign_times(grid.cells(), config, fast)
    data = FigureData("Figure 1", "startup latency T0(p), 4-byte probe",
                      "us")
    for cell in _panel_order(times, ops):
        data.add((cell.op, cell.machine), cell.p, times[cell])
    return data


def figure2(config: Optional[MeasurementConfig] = None,
            ops: Tuple[str, ...] = FIGURE_OPS,
            fast: bool = False) -> FigureData:
    """Figure 2: T(m, 32) as a function of message length."""
    grid = campaign_grid(with_ops(GRID_PRESETS["fig2"], ops), fast)
    times = campaign_times(grid.cells(), config, fast)
    data = FigureData("Figure 2",
                      f"collective messaging time T(m, {FIGURE2_NODES})",
                      "us")
    for cell in _panel_order(times, ops):
        data.add((cell.op, cell.machine), cell.nbytes, times[cell])
    return data


def figure3(config: Optional[MeasurementConfig] = None,
            fast: bool = False) -> FigureData:
    """Figure 3: T(m, p) vs machine size for short and long messages.

    Seven panels: the six Figure-1 operations plus the barrier (short
    probe only — the barrier carries no payload).
    """
    grid = campaign_grid(GRID_PRESETS["fig3"], fast)
    times = campaign_times(grid.cells(), config, fast)
    data = FigureData(
        "Figure 3",
        f"T(m, p) for short ({FIGURE3_SHORT} B) and long "
        f"({FIGURE3_LONG} B) messages", "us")
    for cell in _panel_order(times, grid.ops):
        variant = "long" if cell.nbytes == FIGURE3_LONG else "short"
        data.add((cell.op, cell.machine, variant), cell.p, times[cell])
    return data


def figure4(config: Optional[MeasurementConfig] = None,
            fast: bool = False) -> FigureData:
    """Figure 4: startup/transmission breakdown at p=32, m=1 KB.

    Two series per (op, machine): the startup latency (4-byte probe)
    and the transmission delay (total minus startup).
    """
    grid = SweepGrid("fig4",
                     message_sizes=(STARTUP_PROBE_BYTES, FIGURE4_BYTES),
                     machine_sizes=(FIGURE4_NODES,))
    times = campaign_times(grid.cells(), config, fast)
    data = FigureData(
        "Figure 4",
        f"timing breakdown at p={FIGURE4_NODES}, m={FIGURE4_BYTES} B",
        "us")
    for cell in _panel_order(times, grid.ops):
        if cell.nbytes != FIGURE4_BYTES:
            continue
        startup = times[replace(cell, nbytes=STARTUP_PROBE_BYTES)]
        delay = max(times[cell] - startup, 0.0)
        data.add((cell.op, cell.machine, "startup"), cell.p, startup)
        data.add((cell.op, cell.machine, "transmission"), cell.p, delay)
    return data


def figure5(config: Optional[MeasurementConfig] = None,
            probe_sizes: Tuple[int, int] = (16384, 65536),
            fast: bool = False) -> FigureData:
    """Figure 5: aggregated bandwidth Rinf(p) per collective.

    Estimated from the marginal per-byte cost between two long
    messages (paper Eq. 4), per machine size.
    """
    grid = campaign_grid(SweepGrid("fig5", message_sizes=probe_sizes),
                         fast)
    times = campaign_times(grid.cells(), config, fast)
    data = FigureData("Figure 5", "aggregated bandwidth Rinf(p)",
                      "MB/s")
    m_small, m_large = probe_sizes
    for cell in _panel_order(times, grid.ops):
        if cell.nbytes != m_large:
            continue
        samples = {m: times[replace(cell, nbytes=m)]
                   for m in (m_small, m_large)}
        data.add((cell.op, cell.machine), cell.p,
                 estimate_rinf_two_point(cell.op, cell.p, samples))
    return data
