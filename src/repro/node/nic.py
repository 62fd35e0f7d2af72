"""Network interface model.

A NIC has a transmit engine and a receive engine, each a capacity-1
resource with a per-message cost and a serialization bandwidth.  The
SP2's communication adapter is modelled *half duplex*: one engine is
shared between transmit and receive, which is part of why the SP2
struggles with the bidirectional traffic of a total exchange
[Stunkel et al. 1994].  The T3D and Paragon NICs are full duplex.

Engine occupancy is what creates root-side serialization in gather
(the root's receive engine handles p-1 messages one after another) and
source-side serialization in scatter.
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from ..sim import Environment, Event, Resource

__all__ = ["Nic"]

#: A fast-path engine booking: ``(end, engine, previous_busy_until,
#: start)``.
Booking = Tuple[float, Resource, float, float]


class Nic:
    """Transmit/receive engines of one node's network adapter."""

    def __init__(self, env: Environment, per_message_us: float,
                 bandwidth_mbs: float, half_duplex: bool = False,
                 fast_bandwidth_mbs: Optional[float] = None,
                 node_index: int = -1,
                 injector: Optional[object] = None):
        if bandwidth_mbs <= 0:
            raise ValueError(f"bandwidth must be positive, got "
                             f"{bandwidth_mbs}")
        if per_message_us < 0:
            raise ValueError(f"negative per-message cost {per_message_us}")
        self.env = env
        self.per_message_us = per_message_us
        self.us_per_byte = 1.0 / (bandwidth_mbs * 1.048576)
        if fast_bandwidth_mbs is None:
            self.fast_us_per_byte = self.us_per_byte
        elif fast_bandwidth_mbs <= 0:
            raise ValueError(f"fast bandwidth must be positive, got "
                             f"{fast_bandwidth_mbs}")
        else:
            self.fast_us_per_byte = 1.0 / (fast_bandwidth_mbs * 1.048576)
        self.half_duplex = half_duplex
        #: Which node this adapter belongs to, and the optional
        #: :class:`~repro.faults.FaultInjector` that can stall it.
        self.node_index = node_index
        self.injector = injector
        #: The transmit and receive engines (one shared engine on a
        #: half-duplex adapter).
        self.tx_engine = Resource(env, capacity=1)
        self.rx_engine = self.tx_engine if half_duplex \
            else Resource(env, capacity=1)
        self.messages_sent = 0
        self.messages_received = 0

    def occupancy_us(self, nbytes: int, fast: bool = False) -> float:
        """Engine busy time for one message of ``nbytes``.

        ``fast`` selects the DMA-fed rate (a block-transfer engine or
        message coprocessor feeds the port at link speed, bypassing the
        slower host-driven path).
        """
        per_byte = self.fast_us_per_byte if fast else self.us_per_byte
        return self.per_message_us + nbytes * per_byte

    # -- synchronous booking fast path ------------------------------------
    def try_book_transmit(self, nbytes: int, fast: bool = False
                          ) -> Optional[Booking]:
        """Timestamp-book the transmit engine for one message.

        Returns ``(end_time, engine, previous_busy_until, start_time)``
        — the middle two so the caller can roll back with
        ``engine.undo_occupy(previous)`` — or ``None`` when the engine
        has queued/granted requests and the protocol path must be used.
        The booking may start at the end of an earlier booking (the
        engine stays contiguously busy), exactly where a queued request
        would have been granted, so the end time is unchanged from full
        simulation.  Under a fault injector, a booking whose start falls
        in a NIC stall window is refused too.  Commit with
        :meth:`commit_transmit`.
        """
        return self._try_book(self.tx_engine, nbytes, fast)

    def try_book_receive(self, nbytes: int, fast: bool = False
                         ) -> Optional[Booking]:
        """Timestamp-book the receive engine (see :meth:`try_book_transmit`).

        On a half-duplex adapter this is the *same* engine as transmit,
        so a transmit booked first pushes the receive booking after it
        — the FIFO order the concurrent wire legs would have produced.
        """
        return self._try_book(self.rx_engine, nbytes, fast)

    def _try_book(self, engine: Resource, nbytes: int, fast: bool
                  ) -> Optional[Booking]:
        if nbytes < 0:
            raise ValueError(f"negative message size {nbytes}")
        duration = self.occupancy_us(nbytes, fast)
        booking = engine.try_occupy(duration)
        if booking is None:
            return None
        start, previous = booking
        injector = self.injector
        if injector is not None and \
                injector.nic_stall(self.node_index, start) > 0:
            # A grant at ``start`` would stall first: only the protocol
            # path (:meth:`_occupy`) holds the engine over the stall.
            engine.undo_occupy(previous)
            return None
        return start + duration, engine, previous, start

    def commit_transmit(self, nbytes: int, fast: bool, start: float,
                        at: Optional[float] = None) -> None:
        """Account one fast-booked transmit starting at ``start``,
        booked at time ``at`` (default: now)."""
        self.messages_sent += 1
        self._commit("nic.tx", nbytes, fast, start, at)

    def commit_receive(self, nbytes: int, fast: bool, start: float,
                       at: Optional[float] = None) -> None:
        """Account one fast-booked receive (see :meth:`commit_transmit`)."""
        self.messages_received += 1
        self._commit("nic.rx", nbytes, fast, start, at)

    def _commit(self, label: str, nbytes: int, fast: bool, start: float,
                at: Optional[float]) -> None:
        env = self.env
        work = env.work
        if work is not None:
            work.resource_occupancies += 1
        metrics = env.metrics
        if metrics is not None:
            if at is None:
                at = env._now
            self._record(metrics, label, self.occupancy_us(nbytes, fast),
                         start - at)

    def transmit(self, nbytes: int,
                 fast: bool = False) -> Generator[Event, None, None]:
        """Process generator: occupy the transmit engine for one message."""
        yield from self._occupy(self.tx_engine, nbytes, fast, "nic.tx")
        self.messages_sent += 1

    def receive(self, nbytes: int,
                fast: bool = False) -> Generator[Event, None, None]:
        """Process generator: occupy the receive engine for one message."""
        yield from self._occupy(self.rx_engine, nbytes, fast, "nic.rx")
        self.messages_received += 1

    @staticmethod
    def _record(metrics: MetricsRegistry, label: str, duration: float,
                wait: float) -> None:
        """Metrics of one engine occupancy, shared by the booking and
        the protocol path: ``wait`` is how long the message sat behind
        the engine (booking start, or grant, minus now)."""
        metrics.counter(f"{label}.messages").inc()
        metrics.histogram(f"{label}.busy_us").observe(duration)
        if wait > 0:
            metrics.histogram(f"{label}.wait_us").observe(wait)

    def _occupy(self, engine: Resource, nbytes: int, fast: bool,
                label: str) -> Generator[Event, None, None]:
        if nbytes < 0:
            raise ValueError(f"negative message size {nbytes}")
        env = self.env
        duration = self.occupancy_us(nbytes, fast)
        if self.injector is None:
            # Engine idle or contiguously booked: one booking + one
            # completion event instead of request/grant/release churn.
            booking = engine.try_occupy(duration)
            if booking is not None:
                metrics = env.metrics
                if metrics is not None:
                    self._record(metrics, label, duration,
                                 booking[0] - env._now)
                work = env.work
                if work is not None:
                    work.resource_occupancies += 1
                yield env.sleep_until(booking[0] + duration)
                return
        requested = env._now
        request = engine.request()
        yield request
        metrics = env.metrics
        if metrics is not None:
            self._record(metrics, label, duration, env._now - requested)
        if self.injector is not None:
            # The injector records faults.nic_stall* metrics itself.
            stall = self.injector.nic_delay(self.node_index, self.env.now)
            if stall > 0:
                yield env.sleep(stall)
        yield env.sleep(duration)
        engine.release(request)
