"""k-ary n-dimensional mesh topologies.

The paper's evaluation network is a 10x10 two-dimensional mesh with X-Y
routing (deadlock-free dimension-ordered routing). :class:`Mesh` implements
the general k-ary n-mesh; :class:`Mesh2D` is the convenience subclass used
throughout the reproduction and by the paper's worked example in section 4.4.

Coordinate convention
---------------------
A node's coordinate tuple is ``(x0, x1, ..., x_{n-1})`` with ``x0`` the
fastest-varying ("x") dimension, matching the paper's ``(x, y)`` pairs: node
``(x, y)`` of a ``width x height`` mesh has id ``y * width + x``. Channels
connect nodes that differ by exactly one in exactly one coordinate; meshes
have no wrap-around links (see :mod:`repro.topology.torus` for those).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..errors import TopologyError
from .base import Topology

__all__ = ["Mesh", "Mesh2D"]


class Mesh(Topology):
    """A k-ary n-dimensional mesh with per-dimension extents.

    Parameters
    ----------
    dims:
        Extent of each dimension, e.g. ``(10, 10)`` for the paper's network.
        Every extent must be a positive integer and the mesh must contain at
        least one node.
    """

    def __init__(self, dims: Sequence[int]):
        dims = tuple(int(d) for d in dims)
        if len(dims) == 0:
            raise TopologyError("mesh needs at least one dimension")
        if any(d <= 0 for d in dims):
            raise TopologyError(f"all mesh extents must be positive, got {dims}")
        self.dims: Tuple[int, ...] = dims
        self.num_nodes = 1
        for d in dims:
            self.num_nodes *= d
        # Strides for mixed-radix node-id <-> coordinate conversion.
        self._strides: Tuple[int, ...] = tuple(
            self._stride(i) for i in range(len(dims))
        )
        self._neighbor_cache: Dict[int, Tuple[int, ...]] = {}

    def _stride(self, dim: int) -> int:
        s = 1
        for d in self.dims[:dim]:
            s *= d
        return s

    def signature(self) -> Tuple:
        # num_nodes alone is ambiguous for meshes (3x4 vs 4x3): key on
        # the ordered extents. Torus inherits this — the class name in
        # the key separates wrap-around from plain meshes.
        return (type(self).__name__, self.dims)

    # ------------------------------------------------------------------ #
    # Coordinates
    # ------------------------------------------------------------------ #

    def coords(self, node: int) -> Tuple[int, ...]:
        self.validate_node(node)
        out: List[int] = []
        for extent in self.dims:
            out.append(node % extent)
            node //= extent
        return tuple(out)

    def node_at(self, coords: Iterable[int]) -> int:
        coords = tuple(int(c) for c in coords)
        if len(coords) != len(self.dims):
            raise TopologyError(
                f"expected {len(self.dims)} coordinates, got {len(coords)}"
            )
        node = 0
        for c, extent, stride in zip(coords, self.dims, self._strides):
            if not 0 <= c < extent:
                raise TopologyError(
                    f"coordinate {c} out of range [0, {extent}) in {coords}"
                )
            node += c * stride
        return node

    # ------------------------------------------------------------------ #
    # Adjacency
    # ------------------------------------------------------------------ #

    def neighbors(self, node: int) -> Tuple[int, ...]:
        cached = self._neighbor_cache.get(node)
        if cached is not None:
            return cached
        self.validate_node(node)
        coords = self.coords(node)
        result: List[int] = []
        for dim, (c, extent, stride) in enumerate(
            zip(coords, self.dims, self._strides)
        ):
            if c > 0:
                result.append(node - stride)
            if c < extent - 1:
                result.append(node + stride)
        out = tuple(result)
        self._neighbor_cache[node] = out
        return out


class Mesh2D(Mesh):
    """Two-dimensional mesh, the topology of the paper's evaluation.

    ``Mesh2D(10, 10)`` reproduces the paper's 10x10 network; ``node_xy`` /
    ``xy`` translate between the paper's ``(x, y)`` pairs and node ids.
    """

    def __init__(self, width: int, height: int | None = None):
        if height is None:
            height = width
        super().__init__((width, height))

    @property
    def width(self) -> int:
        """Extent of the x dimension."""
        return self.dims[0]

    @property
    def height(self) -> int:
        """Extent of the y dimension."""
        return self.dims[1]

    def node_xy(self, x: int, y: int) -> int:
        """Return the node id at ``(x, y)`` (paper coordinate order)."""
        return self.node_at((x, y))

    def xy(self, node: int) -> Tuple[int, int]:
        """Return the ``(x, y)`` coordinates of ``node``."""
        c = self.coords(node)
        return (c[0], c[1])
