"""MpiWorld: the package's top-level entry point.

An :class:`MpiWorld` bundles a simulation environment, a machine built
from a spec, and a communicator, and runs SPMD programs on it.  A
program is a function taking a :class:`~repro.mpi.context.RankContext`
and returning a generator — the per-rank process body::

    def program(ctx):
        yield from ctx.barrier()
        start = ctx.wtime()
        yield from ctx.bcast(1024)
        return ctx.wtime() - start

    world = MpiWorld("t3d", num_nodes=8)
    per_rank_times = world.run(program)
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Union

from ..faults import FaultPlan
from ..machines import Machine, MachineSpec, get_machine_spec
from ..obs.metrics import MetricsRegistry
from ..sim import Environment, RandomStreams, Tracer
from ..sim.engine import URGENT
from .communicator import Communicator
from .context import RankContext
from .errors import MpiError

__all__ = ["MpiWorld", "Program"]

Program = Callable[[RankContext], Generator]


class MpiWorld:
    """A simulated machine plus a world communicator, ready to run.

    ``trace``/``metrics`` attach a fresh :class:`~repro.sim.Tracer` /
    :class:`~repro.obs.MetricsRegistry` to :attr:`env`; observers can
    also be attached or detached later by assigning ``env.tracer``,
    ``env.metrics`` or ``env.work`` (``None`` detaches).
    """

    def __init__(self, machine: Union[str, MachineSpec], num_nodes: int,
                 seed: int = 0, contention: bool = True,
                 trace: bool = False, metrics: bool = False,
                 cpu_slowdown: Optional[dict] = None,
                 faults: Optional[FaultPlan] = None,
                 fast_wire: bool = True,
                 decision_table: Optional[Any] = None):
        spec = get_machine_spec(machine) if isinstance(machine, str) \
            else machine
        if decision_table is not None:
            spec = spec.with_decision_table(decision_table)
        self.env = Environment()
        if trace:
            self.env.tracer = Tracer()
        if metrics:
            self.env.metrics = MetricsRegistry()
        self.streams = RandomStreams(seed)
        self.machine = Machine(self.env, spec, num_nodes,
                               streams=self.streams, contention=contention,
                               cpu_slowdown=cpu_slowdown, faults=faults,
                               fast_wire=fast_wire)
        self.comm = Communicator(self.machine)

    @property
    def spec(self) -> MachineSpec:
        return self.machine.spec

    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def now(self) -> float:
        """Global simulated time in microseconds (omniscient view)."""
        return self.env.now

    def run(self, program: Program,
            until: Optional[float] = None) -> List[Any]:
        """Run ``program`` on every rank; return per-rank results.

        Raises :class:`MpiError` if any rank's process failed or (when
        ``until`` is given) did not finish in time.
        """
        env = self.env
        # Every rank takes its first step in one dispatch, so that the
        # episode evaluator sees whether all of them enter their first
        # collective call there.
        start = env.event()
        processes = [
            env.process(program(ctx), name=f"rank-{ctx.rank}", start=start)
            for ctx in self.comm.contexts
        ]
        for process in processes:
            # A rank failure must be reported as MpiError after the
            # run, not abort the event loop mid-flight.
            process.defused()
        if self.comm.episodes is not None:
            self.comm.episodes.open(start)
        start.succeed(priority=URGENT)
        env.run(until=until)
        for rank, process in enumerate(processes):
            if process.triggered and not process.ok:
                raise MpiError(
                    f"rank {rank} failed: {process.value!r}") from \
                    process.value
        for rank, process in enumerate(processes):
            if not process.triggered:
                raise MpiError(
                    f"rank {rank} did not finish (deadlock or until= too "
                    f"small at t={self.env.now:.1f} us)")
        return [process.value for process in processes]

    def close(self) -> None:
        """Release the world once nothing is to run on it: break the
        reference cycles from the communicator to its rank contexts and
        its episode evaluator, so that the world is freed as soon as
        nothing refers to it, not at the cyclic garbage collector's next
        full pass."""
        self.comm.contexts = []
        self.comm.episodes = None

    def run_collective(self, op: str, nbytes: int = 0, root: int = 0,
                       iterations: int = 1) -> float:
        """Convenience: run ``op`` ``iterations`` times, return the
        elapsed simulated wall time in microseconds (global clock)."""
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        start = self.env.now

        def body(ctx: RankContext):
            yield from ctx.repeat(op, nbytes, iterations, root)
            return self.env.now

        finished = self.run(body)
        if self.machine.injector is not None:
            # Draining the queue also fires fault watchdog timers that
            # may sit far past the last rank's completion; measure to
            # the last rank, not to the drained clock.
            return max(finished) - start
        return self.env.now - start
