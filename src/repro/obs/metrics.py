"""Metrics registry: counters and log2-bucket histograms.

A registry is attached to the environment it observes: ``env.metrics``
is ``None`` by default, and every instrumented site guards its updates
with ``metrics is not None``, so an unmeasured run pays one branch per
site.

Instruments are identified by dotted names (``fabric.transfers``,
``nic.tx.wait_us``) and created on first use, so layers never need
to pre-register what they record.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["Counter", "Histogram", "MetricsRegistry"]

#: Histogram buckets are powers of two: bucket ``i`` (i >= 1) counts
#: observations in ``[2**(i-1), 2**i)``; bucket 0 counts values < 1.
HISTOGRAM_BUCKETS = 32


class Counter:
    """A monotonically increasing count (events, bytes, stalls)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Histogram:
    """Distribution sketch over fixed log2 buckets.

    Bucket 0 holds observations below 1; bucket ``i`` holds
    ``[2**(i-1), 2**i)``.  Fixed bucket bounds keep ``observe`` O(1)
    and make histograms from different runs directly comparable.
    """

    __slots__ = ("name", "counts", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.counts: List[int] = [0] * HISTOGRAM_BUCKETS
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"negative observation {value} for "
                             f"{self.name}")
        index = min(int(value).bit_length(), HISTOGRAM_BUCKETS - 1)
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def nonzero_buckets(self) -> List[tuple]:
        """``(upper_bound, count)`` for populated buckets, ascending."""
        return [(2 ** index if index else 1, count)
                for index, count in enumerate(self.counts) if count]

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "histogram", "count": self.count,
                "sum": self.total, "mean": self.mean,
                "min": self.min, "max": self.max,
                "buckets": self.nonzero_buckets()}


class MetricsRegistry:
    """Named instruments, created on first use, snapshot on demand."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}

    def _get(self, name: str, kind: type) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name)
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}")
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def clear(self) -> None:
        self._instruments.clear()

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All instruments as plain dicts (JSON-serializable)."""
        return {name: self._instruments[name].snapshot()
                for name in self.names()}

    def format_report(self) -> str:
        """Human-readable dump of every instrument."""
        if not self._instruments:
            return "metrics: (none recorded)"
        lines = ["metrics:"]
        for name in self.names():
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                lines.append(f"  {name:<34s} {instrument.value}")
            else:
                lines.append(
                    f"  {name:<34s} n={instrument.count} "
                    f"mean={instrument.mean:.2f} "
                    f"max={0.0 if instrument.max is None else instrument.max:.2f}")
        return "\n".join(lines)
