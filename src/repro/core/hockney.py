"""Hockney's point-to-point model: r_inf and n_half.

The paper's conclusions contrast its aggregated-bandwidth metric with
Hockney's classic characterization [Hockney 1994], which fits
point-to-point time as

    t(m) = t0 + m / r_inf

and summarizes a machine by ``r_inf`` (asymptotic bandwidth, MB/s) and
``n_half`` (the message length achieving half of it — equal to
``t0 * r_inf``).  "The asymptotic bandwidth by Hockney is only
effective in characterizing point-to-point communications"; this
module measures ping-pong on the simulator, fits the Hockney
parameters, and lets the benches demonstrate exactly that
point — per-machine p2p rankings do not predict collective rankings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

from ..machines import MachineSpec
from ..mpi import MpiWorld, RankContext
from .fitting import fit_line

__all__ = ["HockneyFit", "measure_pingpong", "fit_hockney"]

#: Default message lengths for the ping-pong sweep.
PINGPONG_SIZES: Tuple[int, ...] = (4, 64, 1024, 8192, 65536, 262144)


@dataclass(frozen=True)
class HockneyFit:
    """Fitted Hockney parameters of one machine."""

    machine: str
    latency_us: float        # t0
    r_inf_mbs: float         # asymptotic bandwidth
    r_squared: float

    @property
    def n_half_bytes(self) -> float:
        """Message length reaching half the asymptotic bandwidth."""
        return self.latency_us * self.r_inf_mbs * 1.048576

    def time_us(self, nbytes: float) -> float:
        """Predicted one-way time for ``nbytes``."""
        return self.latency_us + nbytes / (self.r_inf_mbs * 1.048576)

    def bandwidth_mbs(self, nbytes: float) -> float:
        """Effective bandwidth at a finite message length."""
        return (nbytes / self.time_us(nbytes)) / 1.048576


def measure_pingpong(machine: Union[str, MachineSpec], nbytes: int,
                     repetitions: int = 8, seed: int = 7) -> float:
    """One-way point-to-point time (us) from a timed ping-pong.

    Standard methodology: time ``repetitions`` round trips between two
    neighbouring ranks on rank 0's clock and halve.
    """
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    world = MpiWorld(machine, 2, seed=seed)

    def program(ctx: RankContext):
        if ctx.rank == 0:
            # One unmeasured warm-up round trip.
            yield from ctx.send(1, nbytes, tag="ping")
            yield from ctx.recv(1, tag="pong")
            start = ctx.wtime()
            for _ in range(repetitions):
                yield from ctx.send(1, nbytes, tag="ping")
                yield from ctx.recv(1, tag="pong")
            return (ctx.wtime() - start) / (2 * repetitions)
        for _ in range(repetitions + 1):
            yield from ctx.recv(0, tag="ping")
            yield from ctx.send(0, nbytes, tag="pong")
        return None

    one_way = world.run(program)[0]
    world.close()
    return one_way


def fit_hockney(machine: Union[str, MachineSpec],
                sizes: Sequence[int] = PINGPONG_SIZES,
                repetitions: int = 8, seed: int = 7) -> HockneyFit:
    """Fit ``t(m) = t0 + m / r_inf`` over a ping-pong sweep."""
    if len(sizes) < 2:
        raise ValueError("need at least two message lengths")
    times = {m: measure_pingpong(machine, m, repetitions, seed)
             for m in sizes}
    slope, intercept, r_squared = fit_line(
        [float(m) for m in sorted(times)],
        [times[m] for m in sorted(times)])
    if slope <= 0:
        raise ValueError("ping-pong time did not grow with size")
    name = machine if isinstance(machine, str) else machine.name
    return HockneyFit(machine=name, latency_us=max(intercept, 0.0),
                      r_inf_mbs=(1.0 / slope) / 1.048576,
                      r_squared=r_squared)
