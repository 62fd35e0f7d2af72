"""Machine specifications and the runtime machine builder.

A :class:`MachineSpec` is a frozen, declarative description of one
multicomputer: software overheads of its message-passing kernel, node
hardware parameters, interconnect, special hardware (barrier wire, DMA
engines), and which collective algorithm its MPI port uses for each
operation.  :class:`Machine` instantiates a spec at a given node count
inside a simulation environment.

All times are microseconds, bandwidths MByte/s, sizes bytes — the
paper's units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..faults import FaultInjector, FaultPlan
from ..network import (
    LinkParameters,
    Mesh2D,
    NetworkFabric,
    OmegaNetwork,
    Topology,
    Torus3D,
)
from ..node import (
    DmaEngine,
    DmaParameters,
    HardwareBarrier,
    MemorySystem,
    Nic,
    Node,
    NodeClock,
)
from ..sim import Environment, RandomStreams

__all__ = [
    "SoftwareCosts",
    "MemoryCosts",
    "NicCosts",
    "NetworkSpec",
    "BarrierWire",
    "MachineSpec",
    "Machine",
]

#: Normals drawn per refill of a node's ``sw.<i>`` jitter stream.
#: ``Generator.normal`` fills an array by drawing in sequence from the
#: same bit generator, so a block yields exactly the values, in order,
#: that one scalar draw per call would.
_JITTER_BLOCK = 64


@dataclass(frozen=True)
class SoftwareCosts:
    """Per-call and per-message software overheads of the MPI kernel.

    ``call_setup_us``
        Paid once per process per collective invocation (argument
        checking, communicator lookup, buffer registration).
    ``send_msg_us`` / ``recv_msg_us``
        Host CPU time to issue one send / complete one matched receive.
    ``deliver_us``
        Latency (not occupancy) from NIC ejection to the message being
        matchable — interrupt/dispatch cost of the messaging kernel.
    ``unexpected_us``
        Extra receive cost when the message arrived before the receive
        was posted (unexpected-queue handling plus the extra copy cost
        charged separately through the memory system).
    ``buffered_msg_us``
        Extra per-message cost when the transport must manage system
        buffers for simultaneously outstanding sends and receives, as
        in a total exchange (NX/MPL buffer management).
    ``reduce_round_us`` / ``reduce_us_per_byte``
        Fixed and per-byte cost of combining two operands on the host
        CPU (used by reduce/scan).
    ``offload_round_us`` / ``offload_us_per_byte``
        Per-round costs of collectives whose combining runs on the
        message coprocessor instead of through the host send/receive
        path (the Paragon's NX native scan).  ``None`` means the
        machine has no such offloaded path.
    ``jitter_sigma``
        Relative standard deviation applied to software overheads so
        repeated runs differ, as on real (non-real-time) node kernels.
    """

    call_setup_us: float
    send_msg_us: float
    recv_msg_us: float
    deliver_us: float
    unexpected_us: float
    buffered_msg_us: float
    reduce_round_us: float
    reduce_us_per_byte: float
    offload_round_us: Optional[float] = None
    offload_us_per_byte: Optional[float] = None
    #: One-time cost of engaging the coprocessor for an offloaded
    #: collective (doorbell + descriptor setup).
    offload_setup_us: float = 0.0
    #: Barrier entry cost override; a hardwired barrier instruction
    #: needs almost no software wrapping (T3D).  None -> call_setup_us.
    barrier_call_setup_us: Optional[float] = None
    jitter_sigma: float = 0.03


@dataclass(frozen=True)
class MemoryCosts:
    """Host memory-bus parameters (see :class:`repro.node.MemorySystem`)."""

    copy_us_per_byte: float
    warmup_us: float = 250.0
    warmup_us_per_byte: float = 0.02


@dataclass(frozen=True)
class NicCosts:
    """Network-adapter parameters (see :class:`repro.node.Nic`).

    ``bandwidth_mbs`` is the host-driven injection/ejection rate (on
    the T3D this is the E-register copy pipeline, well below link
    speed); ``fast_bandwidth_mbs`` is the rate when a DMA engine feeds
    the port directly (defaults to ``bandwidth_mbs``).
    """

    per_message_us: float
    bandwidth_mbs: float
    half_duplex: bool = False
    fast_bandwidth_mbs: Optional[float] = None


@dataclass(frozen=True)
class NetworkSpec:
    """Interconnect family and link parameters."""

    kind: str  # "mesh2d" | "torus3d" | "omega"
    link_bandwidth_mbs: float
    hop_latency_us: float
    radix: int = 4  # omega only

    def build_topology(self, num_nodes: int) -> Topology:
        """Instantiate the topology for ``num_nodes`` nodes."""
        if self.kind == "mesh2d":
            return Mesh2D.for_nodes(num_nodes)
        if self.kind == "torus3d":
            return Torus3D.for_nodes(num_nodes)
        if self.kind == "omega":
            return OmegaNetwork(num_nodes, radix=self.radix)
        raise ValueError(f"unknown network kind {self.kind!r}")

    @property
    def link_parameters(self) -> LinkParameters:
        return LinkParameters(hop_latency_us=self.hop_latency_us,
                              bandwidth_mbs=self.link_bandwidth_mbs)


@dataclass(frozen=True)
class BarrierWire:
    """Parameters of a hardwired barrier network (T3D)."""

    base_us: float
    per_level_us: float


@dataclass(frozen=True)
class MachineSpec:
    """Complete declarative description of one multicomputer."""

    name: str
    full_name: str
    site: str
    max_nodes: int
    software: SoftwareCosts
    memory: MemoryCosts
    nic: NicCosts
    network: NetworkSpec
    dma: Optional[DmaParameters] = None
    #: Collectives whose bulk payload moves may use the DMA engine.
    dma_collectives: Tuple[str, ...] = ()
    barrier_wire: Optional[BarrierWire] = None
    #: op name -> algorithm name registered in repro.mpi.collectives.
    algorithms: Mapping[str, str] = field(default_factory=dict)
    clock_skew_us: float = 500.0
    clock_drift_sigma: float = 1e-6
    timer_resolution_us: float = 0.1
    #: Whether consecutive collectives on one communicator serialize
    #: (the era's implementations reused internal buffers/tags, so they
    #: could not overlap).  Ablation knob — turning this off lets
    #: back-to-back timed iterations pipeline, collapsing measured
    #: times toward the per-node throughput bound.
    serialize_collectives: bool = True

    def __post_init__(self) -> None:
        if self.max_nodes < 2:
            raise ValueError("a multicomputer needs at least 2 nodes")
        object.__setattr__(self, "algorithms",
                           MappingProxyType(dict(self.algorithms)))

    def algorithm_for(self, op: str, nbytes: Optional[int] = None,
                      p: Optional[int] = None) -> str:
        """Algorithm name this machine's MPI port uses for ``op``.

        Resolution order: a loaded decision table (see
        :meth:`with_decision_table`) consulted with the message size
        and communicator size when both are known, then the spec's
        fixed ``algorithms`` map.  With no table attached — the
        default — the answer is exactly the paper's fixed 1996 choice,
        so simulated times, fingerprints, and goldens are unchanged.
        """
        table = getattr(self, "_decision_table", None)
        if table is not None and nbytes is not None and p is not None:
            choice = table.lookup(self.name, op, nbytes, p)
            if choice is not None:
                return choice
        try:
            return self.algorithms[op]
        except KeyError:
            raise KeyError(
                f"{self.name} defines no algorithm for {op!r}") from None

    def with_decision_table(self, table: Optional[Any]) -> "MachineSpec":
        """Copy of this spec consulting ``table`` (any object with a
        ``lookup(machine, op, nbytes, p) -> Optional[str]`` method,
        e.g. :class:`repro.tuner.DecisionTable`) before the fixed
        algorithm map.

        The table is deliberately *not* a dataclass field: spec
        fingerprints hash only the declarative 1996 description, and a
        tuned run must re-simulate rather than reuse cached
        fixed-algorithm results keyed by the same spec.
        """
        clone = replace(self)
        object.__setattr__(clone, "_decision_table", table)
        return clone

    def uses_dma_for(self, op: str) -> bool:
        """Whether payload moves of ``op`` may use the DMA engine."""
        return self.dma is not None and op in self.dma_collectives


class Machine:
    """A spec instantiated at ``num_nodes`` inside an environment."""

    def __init__(self, env: Environment, spec: MachineSpec, num_nodes: int,
                 streams: Optional[RandomStreams] = None,
                 contention: bool = True,
                 cpu_slowdown: Optional[Mapping[int, float]] = None,
                 faults: Optional[FaultPlan] = None,
                 fast_wire: bool = True):
        if not 2 <= num_nodes <= spec.max_nodes:
            raise ValueError(
                f"{spec.name} supports 2..{spec.max_nodes} nodes, "
                f"got {num_nodes}")
        self.env = env
        self.spec = spec
        self.num_nodes = num_nodes
        self.streams = streams if streams is not None else RandomStreams(0)
        # Interference model (the paper's accuracy factor: "the
        # interference from other users in the multicomputer
        # environment"): per-node software-cost multipliers.  The paper
        # ran in dedicated mode, i.e. all factors 1.0 — the default.
        self.cpu_slowdown: Dict[int, float] = dict(cpu_slowdown or {})
        for node, factor in self.cpu_slowdown.items():
            if not 0 <= node < num_nodes:
                raise ValueError(f"slowdown for unknown node {node}")
            if factor < 1.0:
                raise ValueError(
                    f"slowdown factor must be >= 1.0, got {factor}")
        #: Allow the transport's analytic short-circuit (see
        #: :meth:`repro.mpi.transport.Transport._wire_fast`) and the
        #: whole-collective one built on it (:mod:`repro.mpi.episode`).
        #: Both additionally require no fault injector; tracing and
        #: metrics do not affect them.  ``False`` forces full
        #: simulation of every message (the equivalence suite runs both
        #: ways and asserts identical times, spans and metrics).
        self.fast_wire = fast_wire
        self.topology = spec.network.build_topology(num_nodes)
        # A fault-free plan builds no injector at all, which keeps the
        # fabric/NIC/jitter hot paths — and therefore every simulated
        # time — identical to a run with no plan.
        self.faults = faults
        self.injector: Optional[FaultInjector] = None
        if faults is not None and not faults.is_fault_free():
            self.injector = FaultInjector(env, faults, self.streams,
                                          self.topology)
        self.fabric = NetworkFabric(env, self.topology,
                                    spec.network.link_parameters,
                                    contention=contention,
                                    injector=self.injector)
        self.nodes = [self._build_node(i) for i in range(num_nodes)]
        # Per-node pools of pre-drawn ``sw.<i>`` normals, stored
        # reversed so ``pop()`` yields them in draw order.  jitter()
        # runs several times per message, and a scalar numpy draw
        # costs several times a list pop.
        self._jitter_sigma = spec.software.jitter_sigma
        self._jitter_pools: List[List[float]] = [
            [] for _ in range(num_nodes)]
        self.hardware_barrier: Optional[HardwareBarrier] = None
        if spec.barrier_wire is not None:
            self.hardware_barrier = HardwareBarrier(
                env, num_nodes,
                base_us=spec.barrier_wire.base_us,
                per_level_us=spec.barrier_wire.per_level_us)

    def _build_node(self, index: int) -> Node:
        spec = self.spec
        clock_stream = f"clock.{index}"
        offset = self.streams.uniform(clock_stream, 0.0, spec.clock_skew_us)
        drift = self.streams.stream(clock_stream).normal(
            0.0, spec.clock_drift_sigma)
        clock = NodeClock(self.env, offset_us=offset, drift=float(drift),
                          resolution_us=spec.timer_resolution_us)
        costs = spec.memory
        memory = MemorySystem(self.env, costs.copy_us_per_byte,
                              warmup_us=costs.warmup_us,
                              warmup_us_per_byte=costs.warmup_us_per_byte)
        nic = Nic(self.env, spec.nic.per_message_us, spec.nic.bandwidth_mbs,
                  half_duplex=spec.nic.half_duplex,
                  fast_bandwidth_mbs=spec.nic.fast_bandwidth_mbs,
                  node_index=index, injector=self.injector)
        dma = DmaEngine(self.env, spec.dma) if spec.dma is not None else None
        return Node(self.env, index, clock, memory, nic, dma)

    def jitter(self, node_index: int) -> float:
        """One software-cost multiplier for ``node_index``.

        Combines the random run-to-run jitter with the node's
        interference slowdown (1.0 in dedicated mode) and, under a
        fault plan, the injector's CPU factor.  The random part is
        ``max(normal(1.0, sigma), 1e-3)`` from the node's ``sw.<node>``
        stream, the same sequence one scalar draw per call gives; the
        stream is only created once a draw is needed (never when
        ``jitter_sigma`` is 0).
        """
        sigma = self._jitter_sigma
        if sigma <= 0.0:
            factor = 1.0
        else:
            pool = self._jitter_pools[node_index]
            if not pool:
                pool.extend(self.streams.stream(f"sw.{node_index}")
                            .normal(1.0, sigma, _JITTER_BLOCK).tolist())
                pool.reverse()
            draw = pool.pop()
            factor = draw if draw > 1e-3 else 1e-3
        if self.cpu_slowdown:
            factor = factor * self.cpu_slowdown.get(node_index, 1.0)
        if self.injector is not None:
            factor *= self.injector.cpu_factor(node_index, self.env.now)
        return factor

    def peek_jitter(self, node_index: int, count: int) -> List[float]:
        """The next ``count`` factors :meth:`jitter` will return for
        ``node_index``, in order, without consuming any draw.

        Only valid with no fault injector (whose CPU factor depends on
        the time of the call).  Peeking may draw further blocks into
        the node's pool; that is harmless, because ``sw.<node>`` has no
        other consumer and the pool hands the values out in order.
        """
        slowdown = self.cpu_slowdown.get(node_index, 1.0) \
            if self.cpu_slowdown else None
        if self._jitter_sigma <= 0.0:
            draws = [1.0] * count
        else:
            pool = self._jitter_pools[node_index]
            while len(pool) < count:
                block = self.streams.stream(f"sw.{node_index}").normal(
                    1.0, self._jitter_sigma, _JITTER_BLOCK).tolist()
                block.reverse()
                pool[:0] = block
            draws = [draw if draw > 1e-3 else 1e-3
                     for draw in reversed(pool[len(pool) - count:])]
        if slowdown is None:
            return draws
        return [factor * slowdown for factor in draws]

    def skip_jitter(self, node_index: int, count: int) -> None:
        """Consume ``count`` draws of ``node_index`` that were already
        used through :meth:`peek_jitter`."""
        if count and self._jitter_sigma > 0.0:
            pool = self._jitter_pools[node_index]
            del pool[len(pool) - count:]

    def log2_nodes(self) -> float:
        """log2 of the machine size (0 for a single node)."""
        return math.log2(self.num_nodes)
