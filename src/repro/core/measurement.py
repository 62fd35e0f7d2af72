"""The paper's timing procedure (Section 2), run on the simulator.

Pseudocode from the paper::

    barrier synchronization
    get start-time
    for (i = 0; i < k; i++)
        the-collective-routine-being-measured
    get end-time
    local-time = (end-time - start-time) / k
    communication-time = maximum reduce(local-time)

plus its framing rules: results of the first iterations are discarded
(warm-up), each node times itself on its *own* (unsynchronized) clock,
the max over processes is the operation's time "because it reflects the
condition that all processes involved have finished the operation", and
the whole program is executed several times per configuration, with
min/mean/max collected.

Each rank runs the pseudocode, warm-up included, as one
:meth:`RankContext.time_block <repro.mpi.context.RankContext.time_block>`
call.  That hands the communicator's episode evaluator
(:mod:`repro.mpi.episode`) the whole block, so every call of it, from
the first warm-up call to the last timed one, is evaluated off the
event loop in one fold, with the simulated times and counters the
plain calls give.  The runs of one point make the same calls, so each
run hands its episode tapes on to the next: the first run records one
tape per call shape, and the later runs play from them.

:func:`predict_collective` answers the question Table 3 exists for,
the time of one call at a given point, from the same simulator: one
warm, fenced call with the software jitter off.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, replace
from typing import Optional, Union

from ..faults import FaultPlan
from ..machines import MachineSpec, get_machine_spec
from ..mpi import MpiWorld
from ..mpi.episode import Shelf
from .metrics import STARTUP_PROBE_BYTES, CollectiveSample

__all__ = ["MeasurementConfig", "PAPER_CONFIG", "QUICK_CONFIG",
           "measure_collective", "measure_startup_latency",
           "predict_collective"]


@dataclass(frozen=True)
class MeasurementConfig:
    """Knobs of the paper's procedure.

    ``iterations`` is the paper's ``k`` (20); ``warmup_iterations`` the
    discarded leading executions (2); ``runs`` how many times the whole
    program is re-executed (5).  ``QUICK_CONFIG`` trims these for the
    benchmark harness, where simulating 22 iterations of a 128-node
    total exchange would dominate wall time without changing the
    reported shape.
    """

    iterations: int = 20
    warmup_iterations: int = 2
    runs: int = 5
    seed: int = 1997
    contention: bool = True
    #: Fault plan injected into every run (``None`` = no faults).  The
    #: plan is part of the config, so sweep-cell cache fingerprints
    #: cover every one of its fields.
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.warmup_iterations < 0:
            raise ValueError("warmup_iterations must be >= 0")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.faults is not None and \
                not isinstance(self.faults, FaultPlan):
            raise TypeError(
                f"faults must be a FaultPlan, got {self.faults!r}")


#: Exactly the paper's parameters.
PAPER_CONFIG = MeasurementConfig()

#: Reduced-cost configuration for sweeps and benches.
QUICK_CONFIG = MeasurementConfig(iterations=3, warmup_iterations=1, runs=2)


def _run_seed(config: MeasurementConfig, op: str, nbytes: int,
              num_nodes: int, run: int) -> int:
    """Stable per-run master seed so every point is reproducible."""
    text = f"{config.seed}:{op}:{nbytes}:{num_nodes}:{run}"
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _timing_program(op: str, nbytes: int, config: MeasurementConfig):
    """Build the per-rank timing program (the paper's pseudocode)."""
    return lambda ctx: ctx.time_block(op, nbytes, config.iterations,
                                      config.warmup_iterations)


def measure_collective(machine: Union[str, MachineSpec], op: str,
                       nbytes: int, num_nodes: int,
                       config: MeasurementConfig = PAPER_CONFIG
                       ) -> CollectiveSample:
    """Measure ``T(m, p)`` for one (machine, op, m, p) point."""
    spec = get_machine_spec(machine) if isinstance(machine, str) \
        else machine
    run_times = []
    local_times = []
    # Every run makes the same calls: each hands its tapes to the next.
    shelf = Shelf()
    for run in range(config.runs):
        world = MpiWorld(spec, num_nodes,
                         seed=_run_seed(config, op, nbytes, num_nodes, run),
                         contention=config.contention,
                         faults=config.faults)
        world.comm.episodes.share(shelf, later=run + 1 < config.runs)
        local_times = world.run(_timing_program(op, nbytes, config))
        world.close()
        del world  # freed before the next run builds its own
        run_times.append(max(local_times))  # the paper's max-reduce
    return CollectiveSample(
        op=op,
        machine=spec.name,
        nbytes=nbytes,
        num_nodes=num_nodes,
        time_us=statistics.median(run_times),
        run_times_us=tuple(run_times),
        process_min_us=min(local_times),
        process_mean_us=statistics.fmean(local_times),
        process_max_us=max(local_times),
    )


def predict_collective(machine: Union[str, MachineSpec], op: str,
                       nbytes: int, num_nodes: int) -> float:
    """The simulator's time for one warm, fenced call of ``op``.

    Every rank calls the collective twice on a machine without software
    jitter.  The completion fence releases the second call when the
    last rank finishes the first, so the answer is the last rank's
    finish of the second call minus that instant.  The first call pays
    the cold working set.  With jitter off, no result depends on the
    world's seed.  A decision table attached to ``machine`` still
    picks the algorithms.
    """
    spec = get_machine_spec(machine) if isinstance(machine, str) \
        else machine
    still = replace(spec, software=replace(spec.software, jitter_sigma=0.0))
    world = MpiWorld(still, num_nodes, decision_table=spec.decision_table)

    def program(ctx):
        yield from ctx.collective(op, nbytes)
        released = ctx.env.now
        yield from ctx.collective(op, nbytes)
        return released, ctx.env.now

    finishes = world.run(program)
    world.close()
    return max(end for _, end in finishes) - \
        max(released for released, _ in finishes)


def measure_startup_latency(machine: Union[str, MachineSpec], op: str,
                            num_nodes: int,
                            config: MeasurementConfig = PAPER_CONFIG
                            ) -> CollectiveSample:
    """Estimate ``T0(p)``: time a short (4-byte) message, per Section 3.

    The barrier carries no payload, so its probe size is zero.
    """
    probe = 0 if op == "barrier" else STARTUP_PROBE_BYTES
    return measure_collective(machine, op, probe, num_nodes, config)
