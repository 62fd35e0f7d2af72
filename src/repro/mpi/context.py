"""Per-rank execution context: the API user programs are written against.

A :class:`RankContext` is handed to each per-rank program generator.
It exposes point-to-point operations (``send``/``recv``/``irecv``/
``wait``), the seven collectives the paper evaluates (plus the
allreduce/allgather extensions), and the local wall clock — mirroring
how an MPI program sees the world: *my* rank, *my* clock, shared
communicator.

All blocking operations are generators and must be driven with
``yield from`` inside a simulation process.
"""

from __future__ import annotations

import math
from typing import Callable, Generator, Optional, TYPE_CHECKING

from ..sim import Event
from .errors import MpiError, RankError
from .transport import PostedReceive, Transport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .communicator import Communicator

__all__ = ["RankContext", "COLLECTIVE_OPS"]

#: The collective operations the paper evaluates (Table 1) plus the
#: composed extensions suggested as further work.
COLLECTIVE_OPS = (
    "barrier",
    "broadcast",
    "gather",
    "scatter",
    "reduce",
    "scan",
    "alltoall",
    "allreduce",
    "allgather",
    "reduce_scatter",
)


def call_setup_us(software, op: str) -> float:
    """The entry cost of one call of collective ``op`` before jitter."""
    if op == "barrier" and software.barrier_call_setup_us is not None:
        return software.barrier_call_setup_us
    return software.call_setup_us


def entry_cost(machine, node: int, op: str, nbytes: int) -> float:
    """Draw node ``node``'s entry cost of a call of collective ``op``:
    the jittered call setup plus the first-touch penalty of a cold
    working set."""
    cost = call_setup_us(machine.spec.software, op) * machine.jitter(node)
    return cost + machine.nodes[node].memory.first_touch_penalty(
        (op, nbytes), nbytes)


class RankContext:
    """One process's view of the communicator."""

    def __init__(self, comm: "Communicator", rank: int):
        self.comm = comm
        self.rank = rank
        self._collective_seq = 0
        # A communicator's membership never changes after construction,
        # so everything derived from it is bound once here rather than
        # re-derived through property chains on every message.
        machine = comm.machine
        #: Number of processes in the communicator.
        self.size = comm.size
        #: The communicator's local-rank -> node-index table.
        self.world_ranks = comm.world_ranks
        #: The node index this rank runs on.
        self.world_rank = comm.world_ranks[rank]
        #: The hardware machine this communicator runs on.
        self.machine = machine
        self.env = machine.env
        self.transport: Transport = comm.transport
        #: The hardware node this rank runs on (one process per node).
        self.node = machine.nodes[self.world_rank]

    def _world_rank_of(self, rank: int) -> int:
        """Node index of communicator-local ``rank``.

        The explicit range check matters: a bare list index would
        silently wrap a negative rank onto the end of the group.
        """
        if not 0 <= rank < self.size:
            raise RankError(rank, self.size)
        return self.world_ranks[rank]

    def wtime(self) -> float:
        """``MPI_Wtime``: this node's local wall clock, microseconds."""
        return self.node.clock.read()

    def log2_size(self) -> int:
        """Number of tree levels for this communicator size."""
        return max(1, math.ceil(math.log2(self.size)))

    # -- point-to-point ----------------------------------------------------
    def send(self, dst: int, nbytes: int, tag: object = 0,
             **kwargs) -> Generator[Event, None, None]:
        """Blocking standard-mode send (locally blocking, like
        ``MPI_Send`` with an eager protocol)."""
        yield from self.transport._send(
            self.world_rank, self._world_rank_of(dst), nbytes,
            ("u", self.comm.comm_id, tag), **kwargs)

    def irecv(self, src: int, tag: object = 0) -> PostedReceive:
        """Post a nonblocking receive; complete it with :meth:`wait`."""
        return self.transport._post(
            self.world_rank, self._world_rank_of(src),
            ("u", self.comm.comm_id, tag))

    def wait(self, receive: PostedReceive,
             **kwargs) -> Generator[Event, None, object]:
        """Complete a posted receive, paying the receive-side costs."""
        envelope = yield from self.transport.complete_receive(
            self.world_rank, receive, **kwargs)
        return envelope

    def recv(self, src: int, tag: object = 0,
             **kwargs) -> Generator[Event, None, object]:
        """Blocking receive."""
        receive = self.irecv(src, tag)
        envelope = yield from self.wait(receive, **kwargs)
        return envelope

    # -- collective plumbing (used by algorithm implementations) -----------
    def coll_send(self, seq: int, phase: int, dst: int, nbytes: int,
                  op: str, **kwargs) -> Generator[Event, None, None]:
        """Send within collective ``seq``, phase ``phase``."""
        phase_span = self.comm.obs.phase(seq, phase, self.env.now)
        yield from self.transport._send(
            self.world_rank, self._world_rank_of(dst), nbytes,
            ("c", self.comm.comm_id, seq, phase), op=op,
            parent_span=phase_span, **kwargs)

    def coll_post(self, seq: int, phase: int, src: int) -> PostedReceive:
        """Post a receive within collective ``seq``, phase ``phase``."""
        self.comm.obs.phase(seq, phase, self.env.now)
        return self.transport._post(
            self.world_rank, self._world_rank_of(src),
            ("c", self.comm.comm_id, seq, phase))

    def coll_wait(self, receive: PostedReceive, op: str,
                  **kwargs) -> Generator[Event, None, object]:
        """Complete a collective-phase receive."""
        envelope = yield from self.transport.complete_receive(
            self.world_rank, receive, op=op, **kwargs)
        return envelope

    def coll_recv(self, seq: int, phase: int, src: int, op: str,
                  **kwargs) -> Generator[Event, None, object]:
        """Blocking receive within a collective phase."""
        receive = self.coll_post(seq, phase, src)
        envelope = yield from self.coll_wait(receive, op, **kwargs)
        return envelope

    def combine(self, nbytes: int) -> Generator[Event, None, None]:
        """Apply the reduction operator to one received operand."""
        software = self.machine.spec.software
        cost = software.reduce_round_us + \
            nbytes * software.reduce_us_per_byte
        yield self.env.timeout(cost * self.machine.jitter(self.world_rank))

    def delay(self, base_us: float) -> Generator[Event, None, None]:
        """Jittered software delay on this rank's CPU."""
        yield self.env.timeout(base_us * self.machine.jitter(self.world_rank))

    def _algorithm(self, op: str, nbytes: int, root: int) -> Callable:
        """Validate one collective call; return its algorithm."""
        if op not in COLLECTIVE_OPS:
            raise MpiError(f"unknown collective {op!r}")
        if not 0 <= root < self.size:
            raise RankError(root, self.size)
        if nbytes < 0:
            raise ValueError(f"negative message size {nbytes}")
        return self.comm.algorithm(op, nbytes)

    def _call(self, shape: tuple, rest: Optional[tuple]
              ) -> Generator[Event, None, tuple]:
        """One collective call of ``shape`` = ``(op, algorithm, root,
        nbytes)``: wait on the previous call's completion fence, pay the
        entry cost, run the algorithm, report completion.

        All ranks must invoke collectives in the same order (an MPI
        requirement); the per-rank counter then agrees across ranks and
        serves as the tag namespace for the operation's messages.
        ``rest`` is ``None`` when the rank may do anything after this
        call; otherwise it holds the shapes of the calls the rank makes
        next, back to back, and nothing but a fenced call on this
        communicator follows them.  When every rank's call comes with
        the same ``rest``, the communicator's
        :class:`~repro.mpi.episode.EpisodeEvaluator` may evaluate this
        call and a prefix of ``rest`` off the event loop.  Returns this
        rank's finish time of each call made, resuming at the last one:
        of this call alone when the engine ran it.
        """
        comm = self.comm
        seq = self._collective_seq
        self._collective_seq += 1
        if seq > 0 and self.machine.spec.serialize_collectives:
            yield comm.fence(seq - 1)
        op, algorithm, root, nbytes = shape
        gate = comm.episodes.register(self.rank, seq, shape, rest)
        if gate is None:
            yield self.env.timeout(entry_cost(self.machine, self.world_rank,
                                              op, nbytes))
        else:
            finishes = yield gate
            if finishes:
                self._collective_seq += len(finishes) - 1
                comm.report_completion(self._collective_seq - 1)
                return finishes
        comm.obs.enter(seq, op, nbytes, self.env.now)
        yield from algorithm(self, seq, nbytes, root)
        comm.report_completion(seq)
        return (self.env.now,)

    # -- collectives ----------------------------------------------------------
    def collective(self, op: str, nbytes: int = 0,
                   root: int = 0) -> Generator[Event, None, None]:
        """Run collective ``op`` by name (dispatch used by the bench)."""
        shape = (op, self._algorithm(op, nbytes, root), root, nbytes)
        yield from self._call(shape, None)

    def _block(self, calls: tuple) -> Generator[Event, None, list]:
        """Make ``calls``, each an ``(op, algorithm, root, nbytes)``
        shape, back to back, with nothing but a fenced call on this
        communicator after them, which lets the evaluator fold them;
        return this rank's finish time of each."""
        finishes: list = []
        while len(finishes) < len(calls):
            index = len(finishes)
            finishes += yield from self._call(calls[index],
                                              calls[index + 1:])
        return finishes

    def repeat(self, op: str, nbytes: int, count: int,
               root: int = 0) -> Generator[Event, None, None]:
        """Run collective ``op`` ``count`` times back to back: the
        paper's timing loop (Section 2) as one call.

        Same simulated behaviour as ``count`` calls of
        :meth:`collective`; every iteration but the last is followed by
        the next one's fence on this communicator, which is what lets
        those iterations be evaluated off the event loop, in one fold.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        shape = (op, self._algorithm(op, nbytes, root), root, nbytes)
        yield from self._block((shape,) * (count - 1))
        yield from self._call(shape, None)

    def time_block(self, op: str, nbytes: int, iterations: int,
                   warmup: int, root: int = 0
                   ) -> Generator[Event, None, float]:
        """The paper's timing block (Section 2) as one call: ``warmup``
        discarded calls of ``op``, a barrier, then ``iterations`` calls
        read between two clock reads.  Returns this rank's local time
        per timed call.

        Same simulated behaviour and result as the plain program::

            if warmup:
                yield from ctx.repeat(op, nbytes, warmup, root)
            yield from ctx.barrier()
            start = ctx.wtime()
            yield from ctx.repeat(op, nbytes, iterations, root)
            return (ctx.wtime() - start) / iterations

        The block must end the rank's communication, unless another
        collective call on this communicator follows it (whose fence
        waits for every rank): the evaluator may take every fenced call
        of the block, the last one included, from the first eligible
        call on (see :mod:`repro.mpi.episode`).
        """
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        if warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {warmup}")
        call = (op, self._algorithm(op, nbytes, root), root, nbytes)
        barrier = ("barrier", self._algorithm("barrier", 0, 0), 0, 0)
        finishes = yield from self._block(
            (call,) * warmup + (barrier,) + (call,) * iterations)
        clock = self.node.clock
        return (clock.read() - clock.read(at=finishes[warmup])) / iterations

    def barrier(self) -> Generator[Event, None, None]:
        """``MPI_Barrier``: block until all ranks have entered."""
        yield from self.collective("barrier")

    def bcast(self, nbytes: int,
              root: int = 0) -> Generator[Event, None, None]:
        """``MPI_Bcast``: ``nbytes`` from ``root`` to every rank."""
        yield from self.collective("broadcast", nbytes, root)

    def gather(self, nbytes: int,
               root: int = 0) -> Generator[Event, None, None]:
        """``MPI_Gather``: ``nbytes`` from every rank to ``root``."""
        yield from self.collective("gather", nbytes, root)

    def scatter(self, nbytes: int,
                root: int = 0) -> Generator[Event, None, None]:
        """``MPI_Scatter``: distinct ``nbytes`` from ``root`` to each."""
        yield from self.collective("scatter", nbytes, root)

    def reduce(self, nbytes: int,
               root: int = 0) -> Generator[Event, None, None]:
        """``MPI_Reduce``: combine ``nbytes`` operands onto ``root``."""
        yield from self.collective("reduce", nbytes, root)

    def scan(self, nbytes: int) -> Generator[Event, None, None]:
        """``MPI_Scan``: prefix reduction over ranks."""
        yield from self.collective("scan", nbytes)

    def alltoall(self, nbytes: int) -> Generator[Event, None, None]:
        """``MPI_Alltoall``: distinct ``nbytes`` between every pair."""
        yield from self.collective("alltoall", nbytes)

    def allreduce(self, nbytes: int) -> Generator[Event, None, None]:
        """``MPI_Allreduce`` (extension beyond the paper's set)."""
        yield from self.collective("allreduce", nbytes)

    def allgather(self, nbytes: int) -> Generator[Event, None, None]:
        """``MPI_Allgather`` (extension beyond the paper's set)."""
        yield from self.collective("allgather", nbytes)

    def reduce_scatter(self, nbytes: int) -> Generator[Event, None,
                                                       None]:
        """``MPI_Reduce_scatter`` with equal ``nbytes`` blocks
        (extension beyond the paper's set)."""
        yield from self.collective("reduce_scatter", nbytes)

    # -- communicator management -------------------------------------------
    def comm_split(self, color: Optional[int], key: int = 0
                   ) -> Generator[Event, None, Optional["RankContext"]]:
        """``MPI_Comm_split``: derive a sub-communicator.

        Collective over this communicator: every rank must call it.
        Ranks passing the same ``color`` form a new communicator,
        ordered by ``(key, parent rank)``; ``color=None`` (MPI's
        ``MPI_UNDEFINED``) yields ``None``.  Returns this rank's
        context in its new communicator.
        """
        software = self.machine.spec.software
        yield from self.delay(software.call_setup_us)
        gate = self.comm.register_split(self.rank, color, key)
        assignment = yield gate
        return assignment[self.rank]
