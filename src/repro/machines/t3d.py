"""Cray T3D machine model (Cray Eagan Center configuration).

Calibration sources: the paper's Section 4 (lowest startup latencies of
the three machines, 20 ns per hop, 300 MB/s links, hardwired barrier of
about 3 us fitting ``0.011 log p + 3``), Table 3's marginal costs
(scatter ~5.3 us per destination, gather ~4.3 us per source, broadcast
round ~23 us), and the T3D system documentation: prefetch queues and
remote processor stores for fast small messages, and the block transfer
engine (BLT) for streaming large payloads with little host involvement
[Adams 1993; Koeninger et al. 1994].

The T3D ran the CRI/EPCC MPI port, which the paper reports used
unbalanced (binomial) trees for barrier-equivalent software paths and
broadcast, and a binary tree for reduce [Cameron et al. 1995] — but its
barrier maps straight onto the hardwired barrier network.
"""

from __future__ import annotations

from ..node import DmaParameters, TransferMode
from .base import (
    BarrierWire,
    MachineSpec,
    MemoryCosts,
    NetworkSpec,
    NicCosts,
    SoftwareCosts,
)

__all__ = ["T3D"]

T3D = MachineSpec(
    name="t3d",
    full_name="Cray T3D",
    site="Cray Research Eagan Center",
    # The largest T3D ever shipped; the paper's allocation capped at 64
    # nodes (see core.metrics.T3D_MAX_NODES), but the engine perf
    # suite simulates p=256 configurations.
    max_nodes=2048,
    software=SoftwareCosts(
        call_setup_us=12.0,
        send_msg_us=5.3,
        recv_msg_us=4.3,
        deliver_us=11.0,
        unexpected_us=8.0,
        buffered_msg_us=8.0,
        barrier_call_setup_us=0.3,
        reduce_round_us=12.0,
        reduce_us_per_byte=0.028,  # 150 MHz Alpha EV4 combine loop
    ),
    memory=MemoryCosts(copy_us_per_byte=0.009),
    # The host-driven send/receive path moves data through E-register
    # shared-memory copies at ~100 MB/s; only the BLT reaches the raw
    # 300 MB/s channel rate.
    nic=NicCosts(per_message_us=0.5, bandwidth_mbs=100.0,
                 half_duplex=False, fast_bandwidth_mbs=300.0),
    network=NetworkSpec(kind="torus3d", link_bandwidth_mbs=300.0,
                        hop_latency_us=0.02),
    dma=DmaParameters(kind=TransferMode.BLT, setup_us=25.0,
                      us_per_byte=0.0047, min_message_bytes=4096),
    # The BLT pays off where one node streams many large blocks from a
    # contiguous buffer (scatter root).  Gather stays on the host path:
    # the root must place each arriving block, and the measured gather
    # per-byte cost matches host-copy speed, not BLT speed.
    dma_collectives=("scatter",),
    barrier_wire=BarrierWire(base_us=3.0, per_level_us=0.011),
    algorithms={
        "barrier": "hardware_barrier",
        "broadcast": "binomial_broadcast",
        "reduce": "binary_tree_reduce",
        "scan": "recursive_doubling_scan",
        "gather": "linear_gather",
        "scatter": "linear_scatter",
        "alltoall": "posted_alltoall",
        "allreduce": "reduce_broadcast_allreduce",
        "allgather": "gather_broadcast_allgather",
        "reduce_scatter": "reduce_scatter_composite",
    },
    clock_skew_us=200.0,
    timer_resolution_us=0.02,
)
