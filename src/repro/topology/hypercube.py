"""Hypercube topology.

The paper's system model names hypercubes alongside meshes as target
interconnects; e-cube (dimension-ordered) routing on a hypercube is the
classical deadlock-free deterministic routing function, so the feasibility
analysis applies unchanged.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from ..errors import TopologyError
from .base import Topology

__all__ = ["Hypercube"]


class Hypercube(Topology):
    """An n-dimensional binary hypercube with ``2**n`` nodes.

    A node's coordinates are its address bits, LSB first, so coordinate ``i``
    is bit ``i`` of the node id. Two nodes are adjacent iff their ids differ
    in exactly one bit.
    """

    def __init__(self, dimension: int):
        dimension = int(dimension)
        if dimension < 0:
            raise TopologyError(f"hypercube dimension must be >= 0, got {dimension}")
        if dimension > 20:
            raise TopologyError(
                f"hypercube dimension {dimension} is unreasonably large (>2^20 nodes)"
            )
        self.dimension = dimension
        self.num_nodes = 1 << dimension

    def neighbors(self, node: int) -> Tuple[int, ...]:
        self.validate_node(node)
        return tuple(node ^ (1 << i) for i in range(self.dimension))

    def coords(self, node: int) -> Tuple[int, ...]:
        self.validate_node(node)
        return tuple((node >> i) & 1 for i in range(self.dimension))

    def node_at(self, coords: Iterable[int]) -> int:
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.dimension:
            raise TopologyError(
                f"expected {self.dimension} coordinates, got {len(coords)}"
            )
        node = 0
        for i, bit in enumerate(coords):
            if bit not in (0, 1):
                raise TopologyError(f"hypercube coordinates are bits, got {bit}")
            node |= bit << i
        return node
