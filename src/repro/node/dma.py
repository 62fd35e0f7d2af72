"""Payload-movement engines and transfer modes.

Three ways a message payload can get from the user buffer to the NIC
(and back), matching the three machines' documented mechanisms:

* ``HOST`` — the host CPU copies through the memory bus (SP2 MPL/MPICH
  path; T3D CRI/EPCC MPI's default shared-memory copy path).
* ``BLT`` — the Cray T3D's block transfer engine streams large payloads
  with a fixed setup cost and minimal host involvement
  [Adams 1993; Koeninger et al. 1994].
* ``COPROC`` — the Intel Paragon's dedicated i860 message processor
  streams payloads so the host pays no copy [Dunigan 1995].

A :class:`DmaEngine` is a capacity-1 resource: back-to-back transfers
through the same engine serialize, which bounds how fast a Paragon node
can push a scatter or a T3D node can feed a gather.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Generator

from ..sim import Environment, Event, Resource

__all__ = ["TransferMode", "DmaParameters", "DmaEngine"]


class TransferMode(enum.Enum):
    """How a message's payload is moved on the sending/receiving node."""

    HOST = "host"
    BLT = "blt"
    COPROC = "coproc"


@dataclass(frozen=True)
class DmaParameters:
    """Timing parameters of a block-transfer/coprocessor engine.

    ``min_message_bytes`` gates use of the engine: below the threshold
    the setup cost is not worth paying and the host path is used (zero
    threshold means always used, as for the Paragon coprocessor which
    *is* the messaging path).
    """

    kind: TransferMode
    setup_us: float
    us_per_byte: float
    min_message_bytes: int = 0

    def __post_init__(self) -> None:
        if self.setup_us < 0 or self.us_per_byte < 0:
            raise ValueError("DMA costs must be non-negative")
        if self.min_message_bytes < 0:
            raise ValueError("negative DMA threshold")


class DmaEngine:
    """A payload-streaming engine attached to one node."""

    def __init__(self, env: Environment, params: DmaParameters):
        self.env = env
        self.params = params
        self.engine = Resource(env, capacity=1)
        self.bytes_streamed = 0

    def applicable(self, nbytes: int) -> bool:
        """Whether the engine would be used for a ``nbytes`` payload."""
        return nbytes >= self.params.min_message_bytes

    def stream(self, nbytes: int) -> Generator[Event, None, None]:
        """Process generator: move ``nbytes`` through the engine."""
        if nbytes < 0:
            raise ValueError(f"negative stream size {nbytes}")
        env = self.env
        duration = self.duration_us(nbytes)
        # Engine idle or contiguously booked: one booking + one
        # completion event instead of request/grant/release churn.
        booking = self.engine.try_occupy(duration)
        if booking is not None:
            self.record_stream(nbytes)
            self.observe_booked(nbytes, booking[0] - env._now)
            yield env.sleep_until(booking[0] + duration)
            return
        metrics = env.metrics
        if metrics is not None:
            metrics.counter("dma.streams").inc()
            metrics.counter("dma.bytes").inc(nbytes)
        requested = env._now
        request = self.engine.request()
        yield request
        if metrics is not None and env._now > requested:
            metrics.histogram("dma.wait_us").observe(env._now - requested)
        yield env.sleep(duration)
        self.record_stream(nbytes)
        self.engine.release(request)

    def duration_us(self, nbytes: int) -> float:
        """Engine busy time for one ``nbytes`` stream."""
        return self.params.setup_us + nbytes * self.params.us_per_byte

    def record_stream(self, nbytes: int) -> None:
        """Account one ``nbytes`` stream in the engine's byte count, on
        every path that streams one."""
        self.bytes_streamed += nbytes

    def observe_booked(self, nbytes: int, wait: float) -> None:
        """Observe one stream that timestamp-booked the engine after
        waiting ``wait`` for it: the occupancy work counter and the
        stream metrics.  Its state is :meth:`record_stream`."""
        work = self.env.work
        if work is not None:
            work.resource_occupancies += 1
        metrics = self.env.metrics
        if metrics is not None:
            metrics.counter("dma.streams").inc()
            metrics.counter("dma.bytes").inc(nbytes)
            if wait > 0:
                metrics.histogram("dma.wait_us").observe(wait)
