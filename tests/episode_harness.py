"""Helpers shared by the episode tests (``tests/mpi/test_episode.py``)
and the short-circuit equivalence harness
(``tests/sim/test_shortcircuit_equivalence.py``).

A plain module, with no tests in it: importing it from inside a running
hypothesis test runs no ``@given`` decorator.
"""

import contextlib
from collections import Counter
from dataclasses import replace

from repro.machines import get_machine_spec
from repro.mpi.episode import EpisodeEvaluator


def record_pops(env):
    """Log every entry ``env`` pops from its event queue.

    The log is the complete observable behaviour of the queue: two runs
    that pop the same ``(time, priority, eid, type)`` sequence cannot be
    told apart by the simulation.
    """
    log = []
    pop = env._pop

    def logged_pop():
        entry = pop()
        log.append((entry[0], entry[1], entry[2],
                    type(entry[3]).__name__))
        return entry

    env._pop = logged_pop
    return log


def spy_deliveries(world):
    """The list every message ``world`` delivers is appended to, as a
    ``(src, dst, nbytes, sent_at, delivered_at)`` tuple."""
    transport = world.comm.transport
    record_delivery = transport.record_delivery
    deliveries = []

    def spy(envelope, unexpected):
        deliveries.append((envelope.src, envelope.dst, envelope.nbytes,
                           envelope.sent_at, envelope.delivered_at))
        record_delivery(envelope, unexpected)

    transport.record_delivery = spy
    return deliveries


def still(machine, **algorithms):
    """``machine``'s spec without software jitter, running the given
    ``op=algorithm`` overrides: at sigma 0 equal times are everywhere,
    so only a mirrored event order survives."""
    spec = get_machine_spec(machine)
    return replace(spec, software=replace(spec.software, jitter_sigma=0.0),
                   algorithms={**dict(spec.algorithms), **algorithms})


#: Without jitter, messages sent at one instant tie everywhere.  Each
#: case below once delivered in another order on the short-circuits:
#: a contended wire's wait for its NIC engines was ordered among
#: same-time events by when its fabric leg finished, where the full
#: pipeline orders it by when the engine legs started.
STILL_TIE_CASES = [
    *[(still("sp2", allgather="ring_allgather"), "allgather", nbytes, p)
      for nbytes in (4, 65536) for p in (6, 20)],
    *[(still("sp2", reduce_scatter="ring_reduce_scatter"),
       "reduce_scatter", nbytes, p)
      for nbytes in (4, 65536) for p in (6, 20)],
    *[(still("sp2", broadcast="scatter_allgather_broadcast"), "broadcast",
       65536, p) for p in (6, 12)],
    (still("sp2", alltoall="pairwise_exchange_alltoall"), "alltoall",
     65536, 20),
    (still("sp2", reduce="binary_tree_reduce"), "reduce", 4, 20),
    *[(still("t3d"), "allreduce", nbytes, p)
      for nbytes in (4, 65536) for p in (12, 20)],
]


def _message_fields(message):
    """What the commit reads of a replayed message."""
    fields = [message.src, message.send, message.issued, message.sent_at,
              message.tx_start, message.rx_start, message.delivered_at,
              message.unexpected, message.queued_at]
    if message.send.dma is not None:
        fields += [message.dma_asked, message.dma_start]
    if message.queued_at is not None:
        fields += [message.waits, message.granted_at, message.released_at]
    return fields


def _outcome_fields(outcome):
    return (outcome.entered, outcome.finished, outcome.phases,
            outcome.copies, outcome.horizons,
            [(act, _message_fields(message)) for act, message in outcome.log])


@contextlib.contextmanager
def taped():
    """Count the calls played from a tape, and replay each one the tape
    took in the heap as well: the two outcomes, field by field, must be
    equal.  Yields the counts ``plays``, ``hits``, ``carried`` (plays of
    a tape another world recorded), ``recorded`` (tapes recorded) and
    ``tied`` (recordings with a tie).
    """
    counts = Counter()
    play = EpisodeEvaluator._play
    replay = EpisodeEvaluator._replay
    replay_call = EpisodeEvaluator._replay_call
    #: tape -> the id of the communicator that recorded it.
    recorders = {}

    def counted_play(self, tape, *args):
        outcome = play(self, tape, *args)
        counts["plays"] += 1
        counts["hits"] += outcome is not None
        counts["carried"] += recorders[tape] != self.comm.comm_id
        return outcome

    def counted_replay(self, *args):
        replayed = replay(self, *args)
        if args[5:] == (True,) and replayed is not None:
            counts["recorded"] += 1
            counts["tied"] += replayed[1] is None
            if replayed[1] is not None:
                recorders[replayed[1]] = self.comm.comm_id
        return replayed

    def checked_call(self, shape, seq, order, start, again=False):
        hits = counts["hits"]
        result = replay_call(self, shape, seq, order, start, again)
        if counts["hits"] > hits:
            op, algorithm, root, nbytes = shape
            schedule = self._schedules[(algorithm, root, nbytes)]
            heap, _ = replay(self, schedule, order, start, op, nbytes)
            assert _outcome_fields(result[0]) == _outcome_fields(heap)
        return result

    patched = {"_play": counted_play, "_replay": counted_replay,
               "_replay_call": checked_call}
    originals = {name: getattr(EpisodeEvaluator, name) for name in patched}
    for name, method in patched.items():
        setattr(EpisodeEvaluator, name, method)
    try:
        yield counts
    finally:
        for name, method in originals.items():
            setattr(EpisodeEvaluator, name, method)
