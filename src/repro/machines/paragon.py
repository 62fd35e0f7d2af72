"""Intel Paragon machine model (SDSC configuration).

Calibration sources: the paper's Section 4 (longest startup latencies,
blamed on "the longer NX messaging overhead and the routing delays in
the 2-D mesh network", 40 ns per hop, 175 MB/s links), Table 3's
marginal costs (scatter ~48 us per destination — the NX per-message
kernel cost — and gather ~18 us per source), and Dunigan's Paragon
measurements: each node carries a dedicated i860 message coprocessor
that streams payloads so the host pays no copy for one-way traffic,
while bidirectional traffic (total exchange) goes through NX system
buffers on the host.

The paper singles out two Paragon quirks we reproduce through algorithm
selection: the "least efficient schemes" used for total exchange and
gather through the NX messaging subsystem (we give it a naive
sequential total exchange), and a *scan* that is faster than everyone
else's, which the paper attributes to "different collective algorithms
used" — modelled as an offloaded combining tree on the coprocessor.
"""

from __future__ import annotations

from ..node import DmaParameters, TransferMode
from .base import (
    MachineSpec,
    MemoryCosts,
    NetworkSpec,
    NicCosts,
    SoftwareCosts,
)

__all__ = ["PARAGON"]

PARAGON = MachineSpec(
    name="paragon",
    full_name="Intel Paragon",
    site="San Diego Supercomputer Center",
    # The SDSC installation had 416 nodes (ORNL's XP/S-150 had 3072);
    # the engine perf suite simulates p=256 configurations.
    max_nodes=416,
    software=SoftwareCosts(
        call_setup_us=15.0,
        send_msg_us=40.0,
        recv_msg_us=16.0,
        deliver_us=4.0,
        unexpected_us=20.0,
        buffered_msg_us=20.0,
        reduce_round_us=20.0,
        reduce_us_per_byte=0.12,  # i860 combine loop is slow
        offload_round_us=12.0,
        offload_us_per_byte=0.075,
        offload_setup_us=40.0,
    ),
    memory=MemoryCosts(copy_us_per_byte=0.012),
    nic=NicCosts(per_message_us=1.0, bandwidth_mbs=175.0,
                 half_duplex=False),
    network=NetworkSpec(kind="mesh2d", link_bandwidth_mbs=175.0,
                        hop_latency_us=0.04),
    dma=DmaParameters(kind=TransferMode.COPROC, setup_us=2.0,
                      us_per_byte=0.012, min_message_bytes=0),
    dma_collectives=("broadcast", "scatter", "gather", "reduce", "scan"),
    algorithms={
        "barrier": "tree_barrier",
        "broadcast": "binomial_broadcast",
        "reduce": "binomial_reduce",
        "scan": "offloaded_scan",
        "gather": "linear_gather",
        "scatter": "linear_scatter",
        "alltoall": "sequential_alltoall",
        "allreduce": "reduce_broadcast_allreduce",
        "allgather": "gather_broadcast_allgather",
        "reduce_scatter": "reduce_scatter_composite",
    },
    clock_skew_us=500.0,
    timer_resolution_us=0.1,
)
