"""Graceful-degradation benches: latency under faults vs fault-free.

``degradation_curves`` reruns the paper's ``T0(p)`` startup-latency
measurement (Figure 1's cells for one machine and op) under a
:class:`~repro.faults.FaultPlan` and pairs every faulty curve with its
clean baseline, so the latency penalty of rerouting and retransmission
is visible point by point.
``run_chaos`` runs one collective under a plan and reports what the
injector actually did (reroutes, retransmits, lost messages, aborted
transfers) next to the clean/faulty elapsed times, optionally keeping
the faulty run's full :class:`~repro.obs.MetricsRegistry` snapshot for
JSON export; ``chaos_report`` is its one-string rendering.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..core import QUICK_CONFIG, MeasurementConfig, machine_sizes_for
from ..core.report import format_us
from ..faults import FaultPlan
from ..mpi import MpiWorld
from ..runner import GRID_PRESETS
from .figures import FigureData, campaign_grid, campaign_times, \
    startup_cell

__all__ = ["ChaosRun", "degradation_curves", "chaos_report",
           "fault_counters", "run_chaos"]

#: Injector counters surfaced by :func:`fault_counters`, in report
#: order.
COUNTER_NAMES = (
    "reroutes",
    "unroutable",
    "transfers_aborted",
    "retransmits",
    "spurious_retransmits",
    "messages_lost",
    "messages_corrupted",
)


def degradation_curves(machine: str, op: str, plan: FaultPlan,
                       node_counts: Optional[Sequence[int]] = None,
                       config: MeasurementConfig = QUICK_CONFIG,
                       fast: bool = False) -> FigureData:
    """``T0(p)`` with and without ``plan``, as paired figure series.

    Series keys are ``(op, machine, "clean")`` and
    ``(op, machine, plan.name)``; both are measured with the identical
    protocol ``config`` (its ``faults`` field is overridden), so any
    difference between the curves is the plan's doing.  ``node_counts``
    defaults to Figure 1's machine sizes (coarse under ``fast``).  A
    point the plan makes undeliverable raises
    :class:`~repro.bench.figures.CampaignError` naming its cell.
    """
    if node_counts is None:
        node_counts = machine_sizes_for(
            machine, campaign_grid(GRID_PRESETS["fig1"], fast).machine_sizes)
    cells = [startup_cell(machine, op, p) for p in node_counts]
    clean = campaign_times(cells, dataclasses.replace(config, faults=None))
    faulty = campaign_times(cells, dataclasses.replace(config, faults=plan))
    data = FigureData(
        "Degradation", f"startup latency T0(p) on {machine} {op}, "
                       f"clean vs fault plan {plan.name!r}", "us")
    for cell in cells:
        data.add((op, machine, "clean"), cell.p, clean[cell])
        data.add((op, machine, plan.name), cell.p, faulty[cell])
    return data


def fault_counters(world: MpiWorld) -> dict:
    """The injector's counters as a plain dict (all zero when the
    world runs without an injector)."""
    injector = world.machine.injector
    if injector is None:
        return {name: 0 for name in COUNTER_NAMES}
    return {name: getattr(injector, name) for name in COUNTER_NAMES}


@dataclass
class ChaosRun:
    """Clean-vs-faulty comparison of one collective under a plan."""

    machine: str
    op: str
    plan: FaultPlan
    nbytes: int
    num_nodes: int
    iterations: int
    seed: int
    clean_us: float
    faulty_us: float
    counters: Dict[str, int]
    #: Full metrics snapshot of the faulty run (``run_chaos`` with
    #: ``metrics=True``; empty otherwise).
    metrics_snapshot: Dict[str, dict] = field(default_factory=dict)

    @property
    def penalty_us(self) -> float:
        return self.faulty_us - self.clean_us

    @property
    def penalty_fraction(self) -> float:
        return self.penalty_us / self.clean_us if self.clean_us else 0.0

    def format(self) -> str:
        """The one-screen ``repro-bench chaos`` report."""
        lines = [
            f"chaos {self.machine} {self.op} ({self.nbytes} B, "
            f"{self.num_nodes} nodes, plan {self.plan.name!r}, "
            f"seed {self.seed})",
            f"  clean:  {format_us(self.clean_us)}",
            f"  faulty: {format_us(self.faulty_us)} "
            f"({self.penalty_us:+.1f} us, {self.penalty_fraction:+.1%})",
        ]
        shown = {name: count for name, count in self.counters.items()
                 if count}
        if shown:
            lines.append("  injector: " + ", ".join(
                f"{name}={count}" for name, count in shown.items()))
        else:
            lines.append("  injector: no faults fired")
        return "\n".join(lines)


def run_chaos(machine: str, op: str, plan: FaultPlan,
              nbytes: int = 4096, num_nodes: int = 16,
              iterations: int = 1, seed: int = 0,
              metrics: bool = False) -> ChaosRun:
    """Run ``op`` once clean and once under ``plan``.

    ``metrics=True`` attaches a metrics registry to the faulty run and
    keeps its full snapshot in the result (the clean run stays
    unmetered: the snapshot answers "what did the faults do?").
    """
    clean_world = MpiWorld(machine, num_nodes, seed=seed)
    clean_us = clean_world.run_collective(op, nbytes,
                                          iterations=iterations)
    clean_world.close()
    fault_world = MpiWorld(machine, num_nodes, seed=seed, faults=plan,
                           metrics=metrics)
    faulty_us = fault_world.run_collective(op, nbytes,
                                           iterations=iterations)
    snapshot = fault_world.env.metrics.snapshot() if metrics else {}
    counters = fault_counters(fault_world)
    fault_world.close()
    return ChaosRun(
        machine=machine, op=op, plan=plan, nbytes=nbytes,
        num_nodes=num_nodes, iterations=iterations, seed=seed,
        clean_us=clean_us, faulty_us=faulty_us, counters=counters,
        metrics_snapshot=snapshot)


def chaos_report(machine: str, op: str, plan: FaultPlan,
                 nbytes: int = 4096, num_nodes: int = 16,
                 iterations: int = 1, seed: int = 0) -> str:
    """One-string rendering of :func:`run_chaos` — the elapsed times,
    the latency penalty, and every nonzero injector counter."""
    return run_chaos(machine, op, plan, nbytes=nbytes,
                     num_nodes=num_nodes, iterations=iterations,
                     seed=seed).format()
