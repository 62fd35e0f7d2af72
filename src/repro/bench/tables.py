"""Regeneration of the paper's Table 3: fitted timing expressions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core import (
    MACHINES,
    MeasurementConfig,
    TimingExpression,
    fit_timing_expression,
    paper_expression,
)
from ..core.report import format_table
from ..runner import GRID_PRESETS
from .figures import campaign_grid, campaign_times, with_ops

__all__ = ["Table3Row", "table3", "format_table3"]

#: Table 3 covers all seven collectives.
TABLE3_OPS = ("barrier", "broadcast", "scan", "gather", "scatter",
              "reduce", "alltoall")


@dataclass(frozen=True)
class Table3Row:
    """One cell of Table 3: our fit next to the paper's."""

    machine: str
    op: str
    fitted: TimingExpression
    published: TimingExpression

    def startup_ratio(self, p: int = 32) -> float:
        """Fitted / published startup latency at ``p``."""
        published = self.published.startup_latency_us(p)
        if published <= 0:
            return float("nan")
        return self.fitted.startup_latency_us(p) / published

    def per_byte_ratio(self, p: int = 32) -> float:
        """Fitted / published per-byte transmission cost at ``p``."""
        published = self.published.per_byte.evaluate(p)
        if published <= 0:
            return float("nan")
        return self.fitted.per_byte.evaluate(p) / published

    def scaling_matches(self) -> bool:
        """Whether the startup scaling class (log vs linear) agrees.

        A fitted term whose p-dependence is negligible against its
        constant (the T3D's hardwired barrier: ~3 us at every machine
        size) is accepted as matching either class — log-vs-linear is
        not identifiable from an essentially flat curve.
        """
        if self.fitted.startup.form == self.published.startup.form:
            return True
        value_small = self.fitted.startup.evaluate(2)
        value_large = self.fitted.startup.evaluate(64)
        spread = abs(value_large - value_small)
        scale = max(abs(value_small), abs(value_large), 1e-9)
        return spread < 0.25 * scale


def table3(config: Optional[MeasurementConfig] = None,
           ops: Tuple[str, ...] = TABLE3_OPS,
           fast: bool = False) -> Dict[Tuple[str, str], Table3Row]:
    """Measure the full (m, p) grid and curve-fit every expression."""
    grid = campaign_grid(with_ops(GRID_PRESETS["full"], ops), fast)
    samples: Dict[Tuple[str, str], Dict[int, Dict[int, float]]] = {}
    for cell, time_us in campaign_times(grid.cells(), config,
                                        fast).items():
        samples.setdefault((cell.machine, cell.op), {}).setdefault(
            cell.p, {})[cell.nbytes] = time_us
    return {
        (machine, op): Table3Row(
            machine=machine, op=op,
            fitted=fit_timing_expression(machine, op,
                                         samples[(machine, op)]),
            published=paper_expression(machine, op))
        for machine in MACHINES for op in ops
    }


def format_table3(rows: Dict[Tuple[str, str], Table3Row],
                  reference_p: int = 32) -> str:
    """Render the fitted-vs-published comparison as text."""
    body = []
    for (machine, op), row in sorted(rows.items()):
        body.append([
            op,
            machine,
            row.fitted.format(),
            row.published.format(),
            "yes" if row.scaling_matches() else "NO",
            f"{row.startup_ratio(reference_p):.2f}",
            f"{row.per_byte_ratio(reference_p):.2f}"
            if row.op != "barrier" else "-",
        ])
    return format_table(
        ["op", "machine", "fitted T(m,p)", "published T(m,p)",
         "scaling", f"T0 ratio@{reference_p}",
         f"B ratio@{reference_p}"],
        body,
        title="Table 3: curve-fitted timing expressions (sim vs paper)")
