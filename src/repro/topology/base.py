"""Abstract interconnection-network topologies.

The paper targets "general point-to-point real-time multicomputer systems"
(Fig. 1): a set of processing nodes joined by *directed* physical channels.
The evaluation uses a 10x10 two-dimensional mesh, but the model section also
names hypercubes, so the topology layer is kept generic.

A topology here is a static directed graph:

* **nodes** are dense integer identifiers ``0 .. num_nodes-1``;
* **channels** are ordered pairs ``(u, v)`` of adjacent nodes, one per
  direction of each physical link (wormhole channels are unidirectional —
  each direction is arbitrated independently);
* concrete subclasses additionally expose a coordinate system
  (:meth:`Topology.coords` / :meth:`Topology.node_at`) used by
  dimension-ordered routing algorithms.

The class is deliberately small: routing lives in
:mod:`repro.topology.routing` and the cycle-accurate channel model lives in
:mod:`repro.sim.router` — the topology only answers *what exists and what is
adjacent to what*.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator, Sequence, Tuple

from ..errors import TopologyError

__all__ = ["Channel", "Topology"]

#: A directed physical channel, identified by its (upstream, downstream) nodes.
Channel = Tuple[int, int]


class Topology(ABC):
    """Base class for static point-to-point interconnection topologies.

    Subclasses must populate :attr:`num_nodes` and implement
    :meth:`neighbors`, :meth:`coords` and :meth:`node_at`.
    """

    #: Total number of processing nodes in the network.
    num_nodes: int

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    def nodes(self) -> range:
        """Return the node identifiers as a :class:`range`."""
        return range(self.num_nodes)

    @abstractmethod
    def neighbors(self, node: int) -> Sequence[int]:
        """Return the nodes adjacent to ``node`` (order is deterministic)."""

    def signature(self) -> Tuple:
        """Return a structural identity key for the topology.

        Two topologies with equal signatures have identical node sets,
        channel sets and coordinate systems, so any deterministic routing
        function of the same class produces identical routes on them —
        the key the shared route table of
        :mod:`repro.topology.route_table` memoises under. The default
        ``(class name, num_nodes)`` is sufficient for topologies fully
        determined by their node count (e.g. hypercubes); subclasses
        with extra shape parameters must override (meshes key on their
        dimension extents).
        """
        return (type(self).__name__, self.num_nodes)

    def channels(self) -> Iterator[Channel]:
        """Yield every directed channel ``(u, v)`` in the network."""
        for u in self.nodes():
            for v in self.neighbors(u):
                yield (u, v)

    def num_channels(self) -> int:
        """Return the number of directed channels."""
        return sum(1 for _ in self.channels())

    def has_channel(self, u: int, v: int) -> bool:
        """Return ``True`` iff a directed channel ``u -> v`` exists."""
        self.validate_node(u)
        return v in self.neighbors(u)

    # ------------------------------------------------------------------ #
    # Coordinates
    # ------------------------------------------------------------------ #

    @abstractmethod
    def coords(self, node: int) -> Tuple[int, ...]:
        """Return the coordinate tuple of ``node``."""

    @abstractmethod
    def node_at(self, coords: Iterable[int]) -> int:
        """Return the node id at coordinate tuple ``coords``."""

    # ------------------------------------------------------------------ #
    # Validation and conversion
    # ------------------------------------------------------------------ #

    def validate_node(self, node: int) -> int:
        """Return ``node`` if valid, else raise :class:`TopologyError`."""
        if not isinstance(node, (int,)) or isinstance(node, bool):
            raise TopologyError(f"node id must be an int, got {node!r}")
        if not 0 <= node < self.num_nodes:
            raise TopologyError(
                f"node {node} out of range [0, {self.num_nodes})"
            )
        return node

    def __contains__(self, node: object) -> bool:
        return isinstance(node, int) and 0 <= node < self.num_nodes

    def __len__(self) -> int:
        return self.num_nodes
