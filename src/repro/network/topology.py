"""Abstract interconnect topology.

A topology is a static description of the machine's wiring: a set of
nodes, a set of directed links, and a deterministic route (sequence of
links) between any ordered pair of nodes.  The dynamic behaviour —
occupancy, queueing, transfer timing — lives in
:mod:`repro.network.fabric`; keeping the two separate lets the tests
verify routing properties (minimality, deadlock-freedom of the
acquisition order, dimension order) without running a simulation.

Links are identified by hashable ids; the conventional id is a tuple
``(kind, endpoint_a, endpoint_b)``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import deque
from typing import (
    AbstractSet,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = ["Topology", "LinkId", "validate_route_endpoints"]

LinkId = Hashable


class Topology(ABC):
    """Static wiring of an interconnection network."""

    def __init__(self, num_nodes: int):
        if num_nodes < 1:
            raise ValueError(f"need at least one node, got {num_nodes}")
        self._num_nodes = num_nodes

    @property
    def num_nodes(self) -> int:
        """Number of compute nodes attached to the network."""
        return self._num_nodes

    @abstractmethod
    def links(self) -> Sequence[LinkId]:
        """All directed link ids in the network (stable order)."""

    @abstractmethod
    def route(self, src: int, dst: int) -> List[LinkId]:
        """Ordered links a message from ``src`` to ``dst`` traverses.

        Must be deterministic and return ``[]`` when ``src == dst``.
        """

    def distance(self, src: int, dst: int) -> int:
        """Hop count between two nodes (length of the route)."""
        return len(self.route(src, dst))

    # -- fault-aware routing ------------------------------------------------
    def neighbors(self, node: int) -> List[Tuple[int, LinkId]]:
        """``(neighbour, link)`` pairs out of ``node``, in stable order.

        Direct topologies (mesh, torus) implement this to enable the
        generic BFS :meth:`reroute`; indirect topologies (multistage)
        have no node-to-node links and override :meth:`reroute`
        directly instead.
        """
        raise NotImplementedError

    def reroute(self, src: int, dst: int,
                dead: AbstractSet[LinkId]) -> Optional[List[LinkId]]:
        """Shortest detour around ``dead``, or ``None`` if disconnected.

        The default is a breadth-first search over :meth:`neighbors`;
        expansion order is the (stable) neighbour order, so the detour
        chosen is deterministic.  Topologies that provide neither
        ``neighbors`` nor their own ``reroute`` have no alternate
        paths.
        """
        try:
            self.neighbors(src)
        except NotImplementedError:
            return None
        parents = {src: None}
        frontier = deque([src])
        while frontier:
            node = frontier.popleft()
            if node == dst:
                break
            for neighbour, link in self.neighbors(node):
                if neighbour not in parents and link not in dead:
                    parents[neighbour] = (node, link)
                    frontier.append(neighbour)
        if dst not in parents:
            return None
        hops: List[LinkId] = []
        node = dst
        while parents[node] is not None:
            node, link = parents[node]
            hops.append(link)
        hops.reverse()
        return hops

    # -- visual layout ------------------------------------------------------
    def layout_positions(self) -> Dict[int, Tuple[float, float]]:
        """Deterministic 2-D positions for every node, in the unit
        square, for visual replay (see :mod:`repro.dash`).

        The default places nodes on a circle in node-id order starting
        at twelve o'clock — the natural drawing for indirect fabrics
        like the Omega network, whose internal stages have no spatial
        node arrangement.  Direct topologies override this with their
        physical geometry.  Coordinates are rounded to 6 decimals so
        serialized layouts are byte-stable across platforms.
        """
        p = self._num_nodes
        if p == 1:
            return {0: (0.5, 0.5)}
        out: Dict[int, Tuple[float, float]] = {}
        for node in range(p):
            angle = 2.0 * math.pi * node / p - math.pi / 2.0
            out[node] = (round(0.5 + 0.44 * math.cos(angle), 6),
                         round(0.5 + 0.44 * math.sin(angle), 6))
        return out

    def check_node(self, node: int) -> None:
        """Raise ``ValueError`` for out-of-range node ids."""
        if not 0 <= node < self._num_nodes:
            raise ValueError(
                f"node {node} out of range [0, {self._num_nodes})")

    def average_distance(self) -> float:
        """Mean hop count over all ordered pairs of distinct nodes."""
        p = self._num_nodes
        if p < 2:
            return 0.0
        total = sum(self.distance(s, d)
                    for s in range(p) for d in range(p) if s != d)
        return total / (p * (p - 1))

    def diameter(self) -> int:
        """Maximum hop count over all ordered pairs."""
        p = self._num_nodes
        return max((self.distance(s, d)
                    for s in range(p) for d in range(p)), default=0)


def validate_route_endpoints(topology: Topology, src: int, dst: int) -> None:
    """Shared argument validation used by all concrete topologies."""
    topology.check_node(src)
    topology.check_node(dst)
