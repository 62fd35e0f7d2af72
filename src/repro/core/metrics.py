"""Performance metrics of collective communication (paper Table 2).

The paper's model (Section 3, generalized from Xu and Hwang):

=========================  =====================================
startup latency            ``T0(p)``
transmission delay         ``D(m, p) = T(m, p) - T0(p)``
collective messaging time  ``T(m, p) = T0(p) + D(m, p)``
aggregated bandwidth       ``Rinf(p) = lim_{m->inf} f(m, p) / D(m, p)``
=========================  =====================================

``f(m, p)`` is the *aggregated message length*: the sum of all message
bytes transmitted among all node pairs in one collective operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "STARTUP_PROBE_BYTES",
    "PAPER_MESSAGE_SIZES",
    "PAPER_MACHINE_SIZES",
    "PAPER_OPS",
    "MACHINES",
    "FIGURE_OPS",
    "T3D_MAX_NODES",
    "machine_sizes_for",
    "aggregated_message_length",
    "aggregated_length_factor",
    "CollectiveSample",
]

#: The paper approximates T0(p) by timing a short message; its smallest
#: message length is 4 bytes (one MPI_FLOAT).
STARTUP_PROBE_BYTES = 4

#: "The message length m varies from 4, 16, ..., to 64 KBytes."
PAPER_MESSAGE_SIZES: Tuple[int, ...] = (
    4, 16, 64, 256, 1024, 4096, 16384, 65536)

#: "The number of nodes (processes) used ranges from 2, 4, ..., to 128."
PAPER_MACHINE_SIZES: Tuple[int, ...] = (2, 4, 8, 16, 32, 64, 128)

#: The seven operations of Table 1, in the paper's figure order.
PAPER_OPS: Tuple[str, ...] = (
    "broadcast", "alltoall", "scatter", "gather", "scan", "reduce",
    "barrier")

#: The three machines, in the paper's presentation order.
MACHINES: Tuple[str, ...] = ("sp2", "t3d", "paragon")

#: The six operations shown in Figures 1, 2, 4, and 5 (the barrier is
#: added as a seventh panel in Figure 3).
FIGURE_OPS: Tuple[str, ...] = PAPER_OPS[:6]

#: "We were allocated with at most 64 T3D nodes" (Section 2).
T3D_MAX_NODES = 64


def machine_sizes_for(machine: str,
                      sizes: Tuple[int, ...] = PAPER_MACHINE_SIZES
                      ) -> Tuple[int, ...]:
    """The machine-size sweep ``sizes``, honouring the T3D's 64-node
    cap."""
    if machine == "t3d":
        return tuple(p for p in sizes if p <= T3D_MAX_NODES)
    return tuple(sizes)


def aggregated_length_factor(op: str, num_nodes: int) -> int:
    """``f(m, p) / m``: how many pairwise messages the operation moves.

    Per Section 3: ``m (p-1)`` for broadcast, scatter, gather, reduce,
    and scan; ``m p (p-1)`` for total exchange; zero for barrier.  The
    allgather/allreduce extensions follow from their compositions.
    """
    p = num_nodes
    if p < 1:
        raise ValueError(f"need at least one node, got {p}")
    if op in ("broadcast", "scatter", "gather", "reduce", "scan"):
        return p - 1
    if op == "alltoall":
        return p * (p - 1)
    if op == "barrier":
        return 0
    if op == "allreduce":
        return 2 * (p - 1)  # reduce up + broadcast down
    if op == "allgather":
        return (p - 1) + p * (p - 1)  # gather + broadcast of p blocks
    if op == "reduce_scatter":
        return p * (p - 1) + (p - 1)  # reduce of p blocks + scatter
    raise ValueError(f"unknown collective {op!r}")


def aggregated_message_length(op: str, nbytes: int, num_nodes: int) -> int:
    """``f(m, p)`` in bytes for one collective operation."""
    if nbytes < 0:
        raise ValueError(f"negative message size {nbytes}")
    return nbytes * aggregated_length_factor(op, num_nodes)


@dataclass(frozen=True)
class CollectiveSample:
    """One measured point ``T(m, p)`` for an (op, machine) pair.

    ``time_us`` is the paper's headline number (the max-reduce over
    per-process averages, aggregated over runs); ``run_times_us`` keeps
    each run's value; ``process_min/mean/max_us`` are the per-process
    statistics of the last run, as the paper collects.
    """

    op: str
    machine: str
    nbytes: int
    num_nodes: int
    time_us: float
    run_times_us: Tuple[float, ...]
    process_min_us: float
    process_mean_us: float
    process_max_us: float

    @property
    def aggregated_bytes(self) -> int:
        """``f(m, p)`` for this sample."""
        return aggregated_message_length(self.op, self.nbytes,
                                          self.num_nodes)

    def aggregated_bandwidth_mbs(self, startup_us: float) -> float:
        """``R(m, p) = f(m, p) / D(m, p)`` in MByte/s.

        ``startup_us`` is the estimated ``T0(p)`` to subtract; a
        non-positive transmission delay yields ``inf`` (the probe was
        too short to expose any transmission time).
        """
        delay = self.time_us - startup_us
        if delay <= 0:
            return float("inf")
        return (self.aggregated_bytes / delay) / 1.048576
