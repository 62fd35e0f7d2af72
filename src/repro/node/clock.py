"""Per-node wall clocks.

The paper's Section 2 stresses that allocated nodes "are often not time
synchronized, each having its own clock", which is why its measurement
procedure only ever differences timestamps taken on the *same* node and
combines nodes with a max-reduce.  We model that: each node's clock has
a random constant offset (so absolute times are incomparable across
nodes), a small rate drift, and a finite tick resolution.
"""

from __future__ import annotations

from typing import Optional

from ..sim import Environment

__all__ = ["NodeClock"]


class NodeClock:
    """A skewed, finite-resolution wall clock attached to one node."""

    def __init__(self, env: Environment, offset_us: float = 0.0,
                 drift: float = 0.0, resolution_us: float = 0.0):
        if resolution_us < 0:
            raise ValueError(f"negative resolution {resolution_us}")
        self.env = env
        self.offset_us = offset_us
        self.drift = drift
        self.resolution_us = resolution_us

    def read(self, at: Optional[float] = None) -> float:
        """Local wall-clock time in microseconds, now or at global time
        ``at``.

        Equals ``(1 + drift) * t + offset``, rounded down to the
        clock's tick.  Only differences of two reads from the *same*
        clock are physically meaningful.
        """
        now = self.env.now if at is None else at
        raw = (1.0 + self.drift) * now + self.offset_us
        if self.resolution_us > 0:
            ticks = int(raw / self.resolution_us)
            return ticks * self.resolution_us
        return raw

    def elapsed(self, start_reading: float) -> float:
        """Local elapsed time since a previous :meth:`read` value."""
        return self.read() - start_reading
