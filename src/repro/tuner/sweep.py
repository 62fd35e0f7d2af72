"""Driving candidate races through the sweep engine.

:func:`run_tune` is the tuner's engine room: it enumerates one
:class:`~repro.runner.SweepCell` per (machine, op, m, p, candidate),
pushes them all through :func:`repro.runner.run_sweep` — reusing its
content-addressed result cache, worker pool, and quarantine semantics
wholesale — then hands the per-cell times to the crossover fitter.
Candidate cells whose algorithm matches the machine's fixed choice
share cache fingerprints with plain sweep cells, so a tune after a
sweep (or vice versa) re-simulates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core import QUICK_CONFIG, MeasurementConfig
from ..machines import get_machine_spec
from ..runner import ResultCache, SweepCell, SweepConfig, SweepGrid, \
    run_sweep
from .candidates import candidate_algorithms, tune_grid
from .fit import fit_decision_table
from .table import DecisionTable, build_tuning_artifact

__all__ = ["TuneResult", "tune_cells", "run_tune"]

#: The sweep protocol tuning uses unless told otherwise — the same
#: quick protocol as the smoke sweeps, deterministic per cell.
DEFAULT_TUNE_CONFIG = QUICK_CONFIG


@dataclass
class TuneResult:
    """Everything one tuning run produced."""

    table: DecisionTable
    flips: List[Dict[str, object]]
    grid_name: str
    config: MeasurementConfig
    cells: int = 0
    evaluated: int = 0
    cache_hits: int = 0
    elapsed_s: float = 0.0
    quarantined: Dict[SweepCell, str] = field(default_factory=dict)

    def artifact(self) -> Dict[str, object]:
        """The canonical ``BENCH_tuning.json`` document."""
        return build_tuning_artifact(self.table, self.flips,
                                     self.grid_name, self.config,
                                     quarantined=len(self.quarantined))

    def summary(self) -> str:
        text = (f"{self.cells} cells, {self.evaluated} evaluated, "
                f"{self.cache_hits} cache hits, {len(self.flips)} "
                f"flips, {self.elapsed_s:.2f} s")
        if self.quarantined:
            text += f", {len(self.quarantined)} quarantined"
        return text


def tune_cells(machines: Sequence[str],
               grid: SweepGrid) -> Tuple[SweepCell, ...]:
    """The candidate-race cell list: every feasible candidate at every
    point of ``grid`` on ``machines``, in canonical sorted order."""
    specs = {machine: get_machine_spec(machine) for machine in machines}
    grid = replace(grid, machines=tuple(machines))
    return tuple(sorted({
        replace(cell, algorithm=name)
        for cell in grid.cells()
        for name in candidate_algorithms(specs[cell.machine], cell.op)}))


def run_tune(machines: Sequence[str],
             grid: Union[str, SweepGrid] = "paper",
             config: MeasurementConfig = DEFAULT_TUNE_CONFIG,
             workers: int = 1,
             cache_dir: Optional[str] = None,
             use_cache: bool = True,
             cache: Optional[ResultCache] = None,
             cell_timeout_s: Optional[float] = None) -> TuneResult:
    """Race candidates over the grid and fit the decision table.

    The result is a pure function of (machines, grid, config,
    SIM_VERSION): sweep results are deterministic per cell and the fit
    is integer arithmetic over sorted iteration, so two runs — any
    worker count, any cache state, any process — produce byte-identical
    artifacts.
    """
    if isinstance(grid, str):
        grid = tune_grid(grid)
    machines = tuple(sorted(set(machines)))
    cells = tune_cells(machines, grid)
    sweep_config = SweepConfig(mode="sim", workers=workers,
                               measurement=config, cache_dir=cache_dir,
                               use_cache=use_cache,
                               cell_timeout_s=cell_timeout_s)
    result = run_sweep(cells, sweep_config, cache=cache)

    times: Dict[Tuple[str, str, int, int], Dict[str, float]] = {}
    for cell in result.cells:
        if cell in result.quarantined:
            continue
        times.setdefault((cell.machine, cell.op, cell.nbytes, cell.p),
                         {})[cell.algorithm] = \
            float(result.results[cell]["time_us"])
    defaults = {}
    for machine in machines:
        spec = get_machine_spec(machine)
        for op in grid.ops:
            incumbent = spec.algorithms.get(op)
            if incumbent is not None:
                defaults[(machine, op)] = incumbent
    table, flips = fit_decision_table(times, defaults)
    return TuneResult(
        table=table,
        flips=flips,
        grid_name=grid.name,
        config=config,
        cells=len(result.cells),
        evaluated=result.evaluated,
        cache_hits=result.cache_hits,
        elapsed_s=result.elapsed_s,
        quarantined=dict(result.quarantined),
    )
