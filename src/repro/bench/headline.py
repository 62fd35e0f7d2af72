"""Checks of the paper's headline numeric claims against the simulator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core import (
    FIGURE_OPS,
    HEADLINE,
    MACHINES,
    MeasurementConfig,
    estimate_rinf_two_point,
)
from ..core.report import format_table
from ..runner import SweepCell
from .figures import campaign_times, startup_cell

__all__ = ["HeadlineCheck", "headline_checks", "format_headline"]


@dataclass(frozen=True)
class HeadlineCheck:
    """One headline claim: the paper's value vs the simulator's."""

    claim: str
    paper_value: float
    simulated_value: float
    unit: str

    @property
    def ratio(self) -> float:
        if self.paper_value == 0:
            return float("nan")
        return self.simulated_value / self.paper_value

    def within(self, factor: float) -> bool:
        """Whether sim and paper agree within a multiplicative factor."""
        if self.paper_value <= 0 or self.simulated_value <= 0:
            return False
        return 1.0 / factor <= self.ratio <= factor


def headline_checks(config: Optional[MeasurementConfig] = None,
                    fast: bool = False) -> List[HeadlineCheck]:
    """Pair every headline claim with the simulator's value.

    The claims share cells (the 64-KB total exchange at p=64 alone
    backs three of them); each distinct cell is simulated once.
    """
    barriers = [SweepCell(m, "barrier", 0, 64) for m in MACHINES]
    two_node = startup_cell("t3d", "broadcast", 2)
    startups = {op: startup_cell("t3d", op, 64)
                for op in HEADLINE["t3d_startup_64_us"]}
    exchanges = {m: {nbytes: SweepCell(m, "alltoall", nbytes, 64)
                     for nbytes in (16384, 65536)}
                 for m in HEADLINE["alltoall_rinf_64_gbs"]}
    long_64 = [SweepCell(m, op, 65536, 64)
               for m in MACHINES for op in FIGURE_OPS]
    times = campaign_times(
        [*barriers, two_node, *startups.values(),
         *(cell for cells in exchanges.values() for cell in cells.values()),
         *long_64], config, fast)
    checks: List[HeadlineCheck] = []

    # T3D hardwired barrier ~3 us, >= 30x faster than SP2/Paragon.
    barrier = {cell.machine: times[cell] for cell in barriers}
    checks.append(HeadlineCheck(
        "T3D 64-node barrier", HEADLINE["t3d_barrier_us"],
        barrier["t3d"], "us"))
    checks.append(HeadlineCheck(
        "barrier speedup T3D vs best of SP2/Paragon (min 30x)",
        HEADLINE["t3d_barrier_speedup_min"],
        min(barrier["sp2"], barrier["paragon"]) / barrier["t3d"], "x"))

    # T3D broadcast to two nodes ~35 us.
    checks.append(HeadlineCheck(
        "T3D 2-node broadcast latency",
        HEADLINE["t3d_broadcast_2node_us"], times[two_node], "us"))

    # T3D 64-node startup latencies for six collectives.
    for op, value in HEADLINE["t3d_startup_64_us"].items():
        checks.append(HeadlineCheck(
            f"T3D 64-node {op} startup", value, times[startups[op]],
            "us"))

    # 64-node total exchange aggregated bandwidths (GB/s).
    for machine, gbs in HEADLINE["alltoall_rinf_64_gbs"].items():
        samples = {nbytes: times[cell]
                   for nbytes, cell in exchanges[machine].items()}
        rinf = estimate_rinf_two_point("alltoall", 64, samples) / 1024.0
        checks.append(HeadlineCheck(
            f"{machine} 64-node alltoall Rinf", gbs, rinf, "GB/s"))

    # SP2 64-node 64-KB total exchange ~317 ms.
    checks.append(HeadlineCheck(
        "SP2 64-node 64KB alltoall", HEADLINE["sp2_alltoall_64x64k_ms"],
        times[SweepCell("sp2", "alltoall", 65536, 64)] / 1000.0, "ms"))

    # All 64-KB 64-node collectives complete within (5.12 ms, 675 ms).
    lo, hi = HEADLINE["range_64x64k_ms"]
    times_ms = [times[cell] / 1000.0 for cell in long_64]
    checks.append(HeadlineCheck("fastest 64-node 64KB collective", lo,
                                min(times_ms), "ms"))
    checks.append(HeadlineCheck("slowest 64-node 64KB collective", hi,
                                max(times_ms), "ms"))
    return checks


def format_headline(checks: List[HeadlineCheck]) -> str:
    rows = [[c.claim, f"{c.paper_value:.4g} {c.unit}",
             f"{c.simulated_value:.4g} {c.unit}", f"{c.ratio:.2f}x"]
            for c in checks]
    return format_table(["claim", "paper", "simulated", "ratio"], rows,
                        title="Headline claims (paper vs simulator)")
