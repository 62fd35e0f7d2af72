"""Shape comparison helpers: who wins, crossovers, scaling classes.

The reproduction's success criterion is *shape*, not absolute numbers:
the machine that wins each regime, the rough factors, and where
short/long-message crossovers fall.  These helpers extract those
qualitative facts from figure data so benches and tests can assert
them.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["ranking", "winner", "crossover_message_size",
           "monotonically_increasing", "document_diff_paths"]


def ranking(values: Dict[str, float]) -> List[str]:
    """Keys ordered fastest (smallest value) first."""
    return sorted(values, key=values.__getitem__)


def winner(values: Dict[str, float]) -> str:
    """The key with the smallest value."""
    if not values:
        raise ValueError("no values to rank")
    return ranking(values)[0]


def crossover_message_size(series_a: Dict[int, float],
                           series_b: Dict[int, float]
                           ) -> Optional[int]:
    """Smallest shared x where series a stops being faster than b.

    Returns ``None`` when no sign change occurs over the shared domain
    (one series dominates throughout).
    """
    shared = sorted(set(series_a) & set(series_b))
    if not shared:
        raise ValueError("series share no x values")
    sign = None
    for x in shared:
        diff = series_a[x] - series_b[x]
        if diff == 0:
            continue
        current = diff > 0
        if sign is None:
            sign = current
        elif current != sign:
            return x
    return None


def monotonically_increasing(series: Dict[int, float],
                             tolerance: float = 0.0) -> bool:
    """Whether values never decrease (beyond ``tolerance``) as x grows."""
    xs = sorted(series)
    return all(series[b] >= series[a] * (1.0 - tolerance)
               for a, b in zip(xs, xs[1:]))


def document_diff_paths(a, b, prefix: str = "") -> List[str]:
    """JSON paths at which two documents differ, sorted.

    Walks dicts and lists recursively; a leaf mismatch (or a
    missing/extra key, or a type change) contributes its
    slash-separated path.  The regression tests use this to assert
    that two runs of a benchmark differ *only* in designated volatile
    paths (e.g. everything under ``throughput/`` in
    ``BENCH_engine.json``) — any other divergence is nondeterminism.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        paths: List[str] = []
        for key in sorted(set(a) | set(b)):
            child = f"{prefix}{key}"
            if key not in a or key not in b:
                paths.append(child)
            else:
                paths.extend(document_diff_paths(a[key], b[key],
                                                 child + "/"))
        return paths
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{prefix}length"]
        paths = []
        for index, (left, right) in enumerate(zip(a, b)):
            paths.extend(document_diff_paths(left, right,
                                             f"{prefix}{index}/"))
        return paths
    if type(a) is not type(b) and not (
            isinstance(a, (int, float)) and isinstance(b, (int, float))
            and not isinstance(a, bool) and not isinstance(b, bool)):
        return [prefix.rstrip("/") or "<root>"]
    if a != b:
        return [prefix.rstrip("/") or "<root>"]
    return []
