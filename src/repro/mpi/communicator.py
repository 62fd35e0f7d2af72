"""The communicator: one context per rank over a shared transport.

Besides rank bookkeeping, the communicator enforces the era's
*collective serialization*: implementations of the time (MPICH's
collective context, EPCC MPI's shmem buffers) reused fixed internal
buffers and tags per communicator, so consecutive collective calls on
one communicator could not overlap in the network.  We model this as a
zero-cost completion fence — collective ``seq`` may not start
transmitting on any rank before every rank has finished collective
``seq - 1``.  Without the fence, back-to-back timed iterations would
pipeline and the measured per-iteration time would collapse to the
per-node throughput bound instead of the critical-path latency the
paper reports.

The fence is also what lets a repeated collective call be evaluated
off the event loop (see :mod:`repro.mpi.episode`): a call whose ranks
were all released by one fence, on an otherwise idle machine, and that
every rank follows with the next fence (or with nothing, at the end of
the paper's timing block), cannot interact with anything else.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..machines import Machine
from ..obs.spans import CollectiveObserver
from ..sim import Event
from .collectives import get_algorithm
from .context import RankContext
from .episode import EpisodeEvaluator
from .errors import MpiError, RankError
from .transport import Transport

__all__ = ["Communicator"]

#: Process-wide source of unique communicator ids (they only need to be
#: unique within one machine's transport, but global uniqueness is
#: simplest and harmless).
_COMM_IDS = itertools.count()


class Communicator:
    """A communicator: an ordered group of processes over one machine.

    The world communicator spans every node (one process per node);
    :meth:`split` derives sub-communicators the way ``MPI_Comm_split``
    does.  Each communicator has its own collective sequence space and
    serialization fence, so collectives on *disjoint* communicators
    proceed concurrently while collectives on the same one serialize.
    """

    def __init__(self, machine: Machine,
                 world_ranks: Optional[Sequence[int]] = None,
                 transport: Optional[Transport] = None):
        self.machine = machine
        self.comm_id = next(_COMM_IDS)
        self.world_ranks: List[int] = list(
            range(machine.num_nodes) if world_ranks is None
            else world_ranks)
        if len(set(self.world_ranks)) != len(self.world_ranks):
            raise MpiError("duplicate node in communicator group")
        self.transport = transport if transport is not None \
            else Transport(machine)
        self.obs = CollectiveObserver(machine.env, self.comm_id)
        self._algorithms: Dict[Tuple[str, int], Callable] = {}
        self.episodes = EpisodeEvaluator(self)
        self.contexts: List[RankContext] = [
            RankContext(self, rank)
            for rank in range(len(self.world_ranks))]
        self._completions: Dict[int, Event] = {}
        self._completion_counts: Dict[int, int] = {}
        self._fence_waiters: Dict[int, int] = {}
        self._split_calls: Dict[int, list] = {}
        self._split_events: Dict[int, Event] = {}
        self._split_seq = 0

    # -- collective serialization fence ------------------------------------
    def completion_event(self, seq: int) -> Event:
        """Event that fires when all ranks finished collective ``seq``."""
        if seq not in self._completions:
            self._completions[seq] = self.machine.env.event()
            self._completion_counts[seq] = 0
            self._fence_waiters[seq] = 0
        return self._completions[seq]

    def fence(self, seq: int) -> Event:
        """:meth:`completion_event` for a rank about to wait on it,
        counted in :meth:`fence_waiters` while the fence has not fired
        yet (a rank arriving later resumes on its own, not with the
        others)."""
        event = self.completion_event(seq)
        if event.callbacks is not None:
            self._fence_waiters[seq] += 1
        return event

    def fence_waiters(self, seq: int) -> int:
        """How many ranks waited on the fence of collective ``seq``
        before it fired."""
        return self._fence_waiters.get(seq, 0)

    def report_completion(self, seq: int) -> None:
        """Record one rank's completion of collective ``seq``."""
        event = self.completion_event(seq)
        self._completion_counts[seq] += 1
        if self._completion_counts[seq] == self.size:
            self.completed(seq, self.machine.env.now)
            event.succeed()

    def completed(self, seq: int, at: float) -> None:
        """Close collective ``seq``, which every rank finished by
        ``at``.  The episode evaluator calls this directly for a call it
        folded into the next one, whose fence no rank waits on."""
        self.obs.complete(seq, at, self.size)
        # The fence is only ever awaited for seq-1, and every rank has
        # passed it by now; seq-2 went when seq-1 completed.
        self._completions.pop(seq - 1, None)
        self._completion_counts.pop(seq - 1, None)
        self._fence_waiters.pop(seq - 1, None)

    def algorithm(self, op: str, nbytes: int) -> Callable:
        """The algorithm this communicator runs for ``op`` at ``nbytes``.

        Resolved through :meth:`MachineSpec.algorithm_for` once per
        ``(op, nbytes)``: the spec, its decision table and the
        communicator size are fixed for the communicator's lifetime,
        and the table lookup is pure.
        """
        key = (op, nbytes)
        try:
            return self._algorithms[key]
        except KeyError:
            algorithm = get_algorithm(self.spec.algorithm_for(
                op, nbytes=nbytes, p=self.size))
            self._algorithms[key] = algorithm
            return algorithm

    @property
    def size(self) -> int:
        """Number of processes in this communicator."""
        return len(self.world_ranks)

    @property
    def spec(self):
        """The machine specification this communicator runs on."""
        return self.machine.spec

    @property
    def is_world(self) -> bool:
        """Whether this communicator spans every node of the machine."""
        return self.size == self.machine.num_nodes

    def context(self, rank: int) -> RankContext:
        """The :class:`RankContext` for local ``rank``."""
        if not 0 <= rank < self.size:
            raise RankError(rank, self.size)
        return self.contexts[rank]

    # -- MPI_Comm_split -----------------------------------------------------
    def register_split(self, rank: int, color: Optional[int],
                       key: int) -> Event:
        """Record one rank's split call; fires for all when complete.

        The returned event's value maps each parent rank to its child
        :class:`RankContext` (or ``None`` for ``color=None``, MPI's
        ``MPI_UNDEFINED``).  All ranks of the communicator must call
        split the same number of times (it is a collective).
        """
        seq = self._split_seq
        calls = self._split_calls.setdefault(seq, [])
        if any(existing_rank == rank for existing_rank, _, _ in calls):
            raise MpiError(f"rank {rank} called split twice in one "
                           f"collective round")
        calls.append((rank, color, key))
        event = self._split_events.get(seq)
        if event is None:
            event = self._split_events[seq] = self.machine.env.event()
        if len(calls) == self.size:
            self._split_seq += 1
            event.succeed(self._build_children(calls))
            del self._split_calls[seq]
            del self._split_events[seq]
        return event

    def _build_children(self, calls: list) -> Dict[int, Optional[
            RankContext]]:
        by_color: Dict[int, list] = {}
        for rank, color, key in calls:
            if color is not None:
                by_color.setdefault(color, []).append((key, rank))
        assignment: Dict[int, Optional[RankContext]] = {
            rank: None for rank, _, _ in calls}
        for color in sorted(by_color):
            members = sorted(by_color[color])  # by (key, parent rank)
            group = [self.world_ranks[rank] for _, rank in members]
            child = Communicator(self.machine, world_ranks=group,
                                 transport=self.transport)
            for local_rank, (_, parent_rank) in enumerate(members):
                assignment[parent_rank] = child.contexts[local_rank]
        return assignment
