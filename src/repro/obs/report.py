"""Text report: link utilization.

The utilization report is the simulator-side view of the paper's
aggregated-bandwidth story: ``Rinf(p)`` saturates when the busiest
links approach busy fraction 1.0, and the top-contended list names the
links whose serialization produced the network-contention component of
``D(m, p)``.
"""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = ["link_stats", "format_utilization_report"]


def link_stats(fabric) -> List[Dict[str, Any]]:
    """Per-link occupancy statistics, one dict per fabric link."""
    stats = []
    for link_id, link in fabric._links.items():
        stats.append({
            "link": link_id,
            "transfers": link.transfers,
            "bytes": link.bytes_carried,
            "busy_us": link.busy_us,
            "wait_us": link.wait_us,
            "contended_transfers": link.contended_transfers,
        })
    return stats


def format_utilization_report(machine, elapsed_us: float,
                              top: int = 8) -> str:
    """Per-link busy fractions and top-k contended links.

    ``elapsed_us`` is the window the fractions are computed over
    (normally the simulated time spent in the traced operation).
    """
    stats = link_stats(machine.fabric)
    used = [s for s in stats if s["transfers"]]
    lines = [f"link utilization over {elapsed_us:.1f} us "
             f"({len(used)}/{len(stats)} links carried traffic):"]
    if not used or elapsed_us <= 0:
        lines.append("  (no link traffic recorded)")
        return "\n".join(lines)
    for s in stats:
        s["busy_frac"] = s["busy_us"] / elapsed_us if elapsed_us else 0.0
    total_bytes = sum(s["bytes"] for s in used)
    total_busy = sum(s["busy_us"] for s in used)
    mean_frac = total_busy / (elapsed_us * len(stats))
    aggregate_mbs = (total_bytes / elapsed_us) / 1.048576
    lines.append(f"  bytes on wire: {total_bytes}   achieved aggregate "
                 f"bandwidth: {aggregate_mbs:.1f} MB/s")
    lines.append(f"  mean busy fraction (all links): {mean_frac:.3f}")
    busiest = sorted(used, key=lambda s: s["busy_us"],
                     reverse=True)[:top]
    lines.append(f"  top {len(busiest)} busiest links:")
    for s in busiest:
        lines.append(
            f"    {str(s['link']):<22s} busy={s['busy_frac']:6.1%} "
            f"transfers={s['transfers']:<5d} bytes={s['bytes']}")
    contended = [s for s in used if s["wait_us"] > 0]
    contended.sort(key=lambda s: s["wait_us"], reverse=True)
    if contended:
        lines.append(f"  top {min(top, len(contended))} contended links "
                     f"(by queueing delay imposed):")
        for s in contended[:top]:
            lines.append(
                f"    {str(s['link']):<22s} waited={s['wait_us']:.1f} us "
                f"over {s['contended_transfers']} stalled transfers")
    else:
        lines.append("  no link contention observed")
    return "\n".join(lines)

