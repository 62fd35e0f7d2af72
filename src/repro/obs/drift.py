"""Continuous model-drift auditing against the paper's Table 3 forms.

A sweep artifact records the simulator's ``T(m, p)`` over a grid; the
paper records the machines' fitted closed forms (Table 3).  The drift
auditor compares the two cell by cell and turns the result into

* a human-readable table (``repro-bench audit``) with per-(machine, op)
  error statistics and the worst cells, and
* a canonical, byte-stable ``BENCH_drift.json`` trend artifact that can
  be checked in and diffed — the model-validation discipline of the
  performance-characterisation literature, run continuously.

Like :mod:`repro.obs.capture`, this module imports the model layer
(:mod:`repro.core.paper_model`), so it is deliberately *not*
re-exported from ``repro.obs``; import it explicitly::

    from repro.obs.drift import audit_artifact, DriftTolerance
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.canonical import round9
from ..core.paper_model import PAPER_TABLE3

__all__ = [
    "DRIFT_SCHEMA",
    "DriftTolerance",
    "CellDrift",
    "DriftReport",
    "audit_artifact",
    "build_drift_artifact",
    "format_drift_trend",
]

DRIFT_SCHEMA = "repro-drift/1"


@dataclass(frozen=True)
class DriftTolerance:
    """Acceptable |relative error| per cell, with per-op overrides."""

    max_rel_error: float = 0.25
    per_op: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_rel_error <= 0:
            raise ValueError(f"max_rel_error must be > 0, got "
                             f"{self.max_rel_error}")
        for op, limit in self.per_op.items():
            if limit <= 0:
                raise ValueError(f"tolerance for {op!r} must be > 0, "
                                 f"got {limit}")

    def limit_for(self, op: str) -> float:
        return self.per_op.get(op, self.max_rel_error)


@dataclass(frozen=True)
class CellDrift:
    """One audited cell: simulated vs Table 3 closed form."""

    machine: str
    op: str
    nbytes: int
    p: int
    actual_us: float
    model_us: float
    #: Signed ``(actual - model) / |model|``.
    rel_error: float
    within: bool

    def key(self) -> str:
        return f"{self.machine}/{self.op}/{self.nbytes}/{self.p}"


@dataclass
class DriftReport:
    """Outcome of auditing one sweep artifact."""

    source: Dict[str, Any]
    tolerance: DriftTolerance
    cells: List[CellDrift]
    #: ``(cell key, reason)`` for cells the model cannot judge.
    skipped: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def breaches(self) -> List[CellDrift]:
        return [cell for cell in self.cells if not cell.within]

    def passed(self) -> bool:
        return not self.breaches

    def worst(self, count: int = 5) -> List[CellDrift]:
        """Cells by |relative error|, worst first (stable order)."""
        return sorted(self.cells,
                      key=lambda c: (-abs(c.rel_error), c.key()))[:count]

    def group_stats(self) -> Dict[Tuple[str, str], Dict[str, Any]]:
        """Per-(machine, op) error statistics."""
        groups: Dict[Tuple[str, str], List[CellDrift]] = {}
        for cell in self.cells:
            groups.setdefault((cell.machine, cell.op), []).append(cell)
        stats: Dict[Tuple[str, str], Dict[str, Any]] = {}
        for key, members in sorted(groups.items()):
            errors = [abs(cell.rel_error) for cell in members]
            worst = max(members,
                        key=lambda c: (abs(c.rel_error), c.key()))
            stats[key] = {
                "cells": len(members),
                "max_abs_rel_error": max(errors),
                "mean_abs_rel_error": sum(errors) / len(errors),
                "breaches": sum(1 for cell in members
                                if not cell.within),
                "worst": worst,
            }
        return stats

    def format(self, top: int = 5) -> str:
        """The drift table ``repro-bench audit`` prints."""
        source = ", ".join(f"{name}={self.source[name]}"
                           for name in ("grid", "mode", "sim_version")
                           if name in self.source)
        lines = [
            f"drift audit vs Table 3 ({source}, tolerance "
            f"{self.tolerance.max_rel_error:.1%})",
            f"{'machine/op':<22} {'cells':>5} {'max|rel|':>10} "
            f"{'mean|rel|':>10}  worst cell",
        ]
        for (machine, op), stats in self.group_stats().items():
            worst = stats["worst"]
            lines.append(
                f"{machine + '/' + op:<22} {stats['cells']:>5} "
                f"{stats['max_abs_rel_error']:>10.3%} "
                f"{stats['mean_abs_rel_error']:>10.3%}  "
                f"m={worst.nbytes} p={worst.p} "
                f"({worst.rel_error:+.3%})")
        for cell in self.breaches[:top]:
            lines.append(f"BREACH {cell.key()}: {cell.actual_us:.6g} us "
                         f"vs model {cell.model_us:.6g} us "
                         f"({cell.rel_error:+.3%} > "
                         f"{self.tolerance.limit_for(cell.op):.1%})")
        if len(self.breaches) > top:
            lines.append(f"... ({len(self.breaches) - top} more "
                         f"breaches)")
        for key, reason in self.skipped[:top]:
            lines.append(f"skipped {key}: {reason}")
        if len(self.skipped) > top:
            lines.append(f"... ({len(self.skipped) - top} more skipped)")
        verdict = "PASS" if self.passed() else "FAIL"
        lines.append(f"{len(self.cells)} cells audited, "
                     f"{len(self.breaches)} breaches, "
                     f"{len(self.skipped)} skipped -> {verdict}")
        return "\n".join(lines)


def audit_artifact(artifact: Mapping[str, Any],
                   tolerance: Optional[DriftTolerance] = None
                   ) -> DriftReport:
    """Audit a sweep artifact's cells against Table 3's closed forms.

    Cells whose ``(machine, op)`` has no Table 3 row, or whose model
    prediction is non-positive (outside the fitted range), are skipped
    with a reason rather than judged.
    """
    tolerance = tolerance or DriftTolerance()
    source = {name: artifact.get(name)
              for name in ("grid", "mode", "sim_version")}
    cells: List[CellDrift] = []
    skipped: List[Tuple[str, str]] = []
    for entry in artifact.get("cells", []):
        machine = str(entry["machine"])
        op = str(entry["op"])
        nbytes = int(entry["nbytes"])
        p = int(entry["p"])
        key = f"{machine}/{op}/{nbytes}/{p}"
        expression = PAPER_TABLE3.get((machine, op))
        if expression is None:
            skipped.append((key, "no Table 3 model for this "
                                 "(machine, op)"))
            continue
        model_us = expression.evaluate(nbytes, p)
        if model_us <= 0:
            skipped.append((key, f"model predicts non-positive time "
                                 f"({model_us:.6g} us)"))
            continue
        actual_us = float(entry["result"]["time_us"])
        rel_error = (actual_us - model_us) / abs(model_us)
        cells.append(CellDrift(
            machine=machine, op=op, nbytes=nbytes, p=p,
            actual_us=actual_us, model_us=model_us,
            rel_error=rel_error,
            within=abs(rel_error) <= tolerance.limit_for(op)))
    cells.sort(key=lambda c: (c.machine, c.op, c.nbytes, c.p))
    skipped.sort()
    return DriftReport(source=source, tolerance=tolerance,
                       cells=cells, skipped=skipped)


def build_drift_artifact(report: DriftReport,
                         worst: int = 5) -> Dict[str, Any]:
    """Assemble the canonical ``BENCH_drift.json`` document.

    Deliberately free of timestamps, hostnames, and wall-clock numbers
    (floats are rounded to 9 significant digits), so auditing the same
    sweep artifact twice produces byte-identical trend files.
    """
    return {
        "schema": DRIFT_SCHEMA,
        "source": dict(report.source),
        "tolerance": {
            "max_rel_error": report.tolerance.max_rel_error,
            "per_op": {op: report.tolerance.per_op[op]
                       for op in sorted(report.tolerance.per_op)},
        },
        "pass": report.passed(),
        "breaches": len(report.breaches),
        "cells": [{
            "machine": cell.machine,
            "op": cell.op,
            "nbytes": cell.nbytes,
            "p": cell.p,
            "actual_us": round9(cell.actual_us),
            "model_us": round9(cell.model_us),
            "rel_error": round9(cell.rel_error),
            "within": cell.within,
        } for cell in report.cells],
        "summary": {
            f"{machine}/{op}": {
                "cells": stats["cells"],
                "breaches": stats["breaches"],
                "max_abs_rel_error": round9(
                    stats["max_abs_rel_error"]),
                "mean_abs_rel_error": round9(
                    stats["mean_abs_rel_error"]),
                "worst": {
                    "nbytes": stats["worst"].nbytes,
                    "p": stats["worst"].p,
                    "rel_error": round9(stats["worst"].rel_error),
                },
            }
            for (machine, op), stats in report.group_stats().items()
        },
        "worst_cells": [{
            "cell": cell.key(),
            "rel_error": round9(cell.rel_error),
        } for cell in report.worst(worst)],
        "skipped": [{"cell": key, "reason": reason}
                    for key, reason in report.skipped],
    }


def format_drift_trend(generations: List[Mapping[str, Any]]) -> str:
    """Terminal sparkline view of drift history.

    ``generations`` are drift artifacts oldest first (the newest is
    usually the audit that just ran).  One sparkline per machine/op
    shows ``max_abs_rel_error`` across the generations, scaled to the
    group's own worst error, plus the per-generation breach totals —
    the ASCII fallback of the dashboard's drift trend chart.
    """
    if not generations:
        raise ValueError("no drift generations to plot")
    # Lazy import: repro.bench sits above repro.obs in the layering.
    from ..bench.asciiplot import sparkline

    keys = sorted({key for generation in generations
                   for key in generation.get("summary", {})})
    count = len(generations)
    lines = [f"drift trend over {count} generation(s) "
             f"(oldest -> newest)",
             f"{'machine/op':<22} {'trend':<{max(count, 5)}} "
             f"{'max|rel|':>10}  breaches"]
    for key in keys:
        errors = []
        breaches = []
        for generation in generations:
            stats = generation.get("summary", {}).get(key, {})
            errors.append(float(stats.get("max_abs_rel_error", 0.0)))
            breaches.append(int(stats.get("breaches", 0)))
        lines.append(
            f"{key:<22} {sparkline(errors, lo=0.0):<{max(count, 5)}} "
            f"{errors[-1]:>10.3%}  "
            f"{' '.join(str(b) for b in breaches)}")
    totals = [int(generation.get("breaches", 0))
              for generation in generations]
    passes = ["P" if generation.get("pass") else "F"
              for generation in generations]
    lines.append(f"{'total breaches':<22} "
                 f"{sparkline(totals, lo=0):<{max(count, 5)}} "
                 f"{'':>10}  {' '.join(str(t) for t in totals)}")
    lines.append(f"verdicts: {''.join(passes)}")
    return "\n".join(lines)
