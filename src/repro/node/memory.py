"""Node memory system: shared memory bus and warm-up behaviour.

Two effects matter for the paper's methodology:

* **Copy bandwidth.**  Message payloads are copied between user buffers
  and system buffers by the host CPU; send-side copies and
  unexpected-receive copies contend for the single memory bus.  This is
  the mechanism behind the higher per-byte cost of bidirectional
  collectives (total exchange) relative to one-way forwarding
  (broadcast) on the same machine.
* **Warm-up.**  The paper discards the first two timing iterations
  because cold runs are "sometimes 10 times higher" — code and buffers
  must be faulted in.  We charge a one-time penalty the first time a
  node touches a given working set (collective x message size).
"""

from __future__ import annotations

from typing import Generator, Hashable, Set

from ..sim import Environment, Event, Resource

__all__ = ["MemorySystem"]


class MemorySystem:
    """Memory bus (a capacity-1 resource) plus first-touch accounting."""

    def __init__(self, env: Environment, copy_us_per_byte: float,
                 warmup_us: float = 0.0, warmup_us_per_byte: float = 0.0):
        if copy_us_per_byte < 0:
            raise ValueError(f"negative copy cost {copy_us_per_byte}")
        self.env = env
        self.copy_us_per_byte = copy_us_per_byte
        self.warmup_us = warmup_us
        self.warmup_us_per_byte = warmup_us_per_byte
        self.bus = Resource(env, capacity=1)
        self._touched: Set[Hashable] = set()
        self.bytes_copied = 0

    def copy(self, nbytes: int) -> Generator[Event, None, None]:
        """Process generator: copy ``nbytes`` through the memory bus."""
        if nbytes < 0:
            raise ValueError(f"negative copy size {nbytes}")
        env = self.env
        duration = nbytes * self.copy_us_per_byte
        # Bus idle or contiguously booked: book the interval and sleep
        # to its end instead of request/grant/release.
        booking = self.bus.try_occupy(duration)
        if booking is not None:
            self.record_booked(nbytes, booking[0] - env._now)
            yield env.sleep_until(booking[0] + duration)
            return
        metrics = env.metrics
        if metrics is not None:
            metrics.counter("mem.copies").inc()
            metrics.counter("mem.bytes_copied").inc(nbytes)
        requested = env._now
        request = self.bus.request()
        yield request
        if metrics is not None and env._now > requested:
            metrics.histogram("mem.bus.wait_us").observe(
                env._now - requested)
        yield env.sleep(duration)
        self.bytes_copied += nbytes
        self.bus.release(request)

    def record_booked(self, nbytes: int, wait: float) -> None:
        """Account one copy that timestamp-booked the bus after waiting
        ``wait`` for it (committed when the booking is made)."""
        self.bytes_copied += nbytes
        work = self.env.work
        if work is not None:
            work.resource_occupancies += 1
        metrics = self.env.metrics
        if metrics is not None:
            metrics.counter("mem.copies").inc()
            metrics.counter("mem.bytes_copied").inc(nbytes)
            if wait > 0:
                metrics.histogram("mem.bus.wait_us").observe(wait)

    def first_touch_penalty(self, key: Hashable, nbytes: int) -> float:
        """Cold-start cost for working set ``key``; zero once warm."""
        penalty = self.first_touch_cost(key, nbytes)
        self._touched.add(key)
        return penalty

    def first_touch_cost(self, key: Hashable, nbytes: int) -> float:
        """What :meth:`first_touch_penalty` would charge for ``key``
        now, without touching it."""
        if key in self._touched:
            return 0.0
        return self.warmup_us + nbytes * self.warmup_us_per_byte

    def is_warm(self, key: Hashable) -> bool:
        """Whether ``key`` has been touched before."""
        return key in self._touched
