"""IBM SP2 machine model (MHPCC configuration).

Calibration sources: the paper's Section 4 (one-way MPI latency around
50 us, 125 ns per switch hop, 40 MB/s network), Table 3's per-node
marginal costs (scatter ~3.7 us per extra destination, gather ~5.8 us
per extra source), and Stunkel et al.'s description of the Vulcan
switch fabric and the communication adapter, whose single
microprocessor-driven DMA engine we model as a half-duplex NIC.

The SP2 at MHPCC ran MPICH, so its collective algorithms are the MPICH
1994-era choices: binomial trees for broadcast/reduce/barrier,
recursive doubling for scan, linear (root-sequential) gather/scatter,
and a pairwise exchange for total exchange.
"""

from __future__ import annotations

from .base import (
    MachineSpec,
    MemoryCosts,
    NetworkSpec,
    NicCosts,
    SoftwareCosts,
)

__all__ = ["SP2"]

SP2 = MachineSpec(
    name="sp2",
    full_name="IBM SP2",
    site="Maui High-Performance Computing Center",
    # The MHPCC installation's full size; the paper measured up to 64
    # nodes, but the engine perf suite simulates p=256 configurations.
    max_nodes=512,
    software=SoftwareCosts(
        call_setup_us=30.0,
        send_msg_us=3.7,
        recv_msg_us=4.5,
        deliver_us=40.0,
        unexpected_us=10.0,
        buffered_msg_us=6.0,
        reduce_round_us=10.0,
        reduce_us_per_byte=0.010,  # POWER2 FPU combines fast
    ),
    memory=MemoryCosts(copy_us_per_byte=0.019),
    nic=NicCosts(per_message_us=1.0, bandwidth_mbs=40.0, half_duplex=True),
    network=NetworkSpec(kind="omega", link_bandwidth_mbs=40.0,
                        hop_latency_us=0.125, radix=4),
    algorithms={
        "barrier": "tree_barrier",
        "broadcast": "binomial_broadcast",
        "reduce": "binomial_reduce",
        "scan": "recursive_doubling_scan",
        "gather": "linear_gather",
        "scatter": "linear_scatter",
        "alltoall": "posted_alltoall",
        "allreduce": "reduce_broadcast_allreduce",
        "allgather": "gather_broadcast_allgather",
        "reduce_scatter": "reduce_scatter_composite",
    },
    clock_skew_us=500.0,
    timer_resolution_us=0.1,
)
