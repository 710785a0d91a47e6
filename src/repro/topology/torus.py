"""k-ary n-cube (torus) topology.

The paper's scheme is not tied to meshes: any topology with a deterministic
deadlock-free routing function works, because the analysis only consumes the
set of directed channels each stream's route occupies. The torus is provided
as the most common alternative substrate; with it we use dimension-ordered
routing over *dateline-split* virtual channel classes in hardware — in this
reproduction the simulator models one flat VC set per priority, so torus
routing is restricted to the minimal direction and the deadlock check in
:mod:`repro.topology.routing` reports whether the combination is safe.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..errors import TopologyError
from .mesh import Mesh

__all__ = ["Torus"]


class Torus(Mesh):
    """A k-ary n-cube: a mesh with wrap-around channels in every dimension.

    Dimensions of extent 1 or 2 do not receive duplicate wrap links (in a
    2-extent dimension the "wrap" would coincide with the mesh link).
    """

    def __init__(self, dims: Sequence[int]):
        super().__init__(dims)
        self._neighbor_cache: Dict[int, Tuple[int, ...]] = {}

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
            if extent == 1:
                continue
            down = node - stride if c > 0 else node + (extent - 1) * stride
            up = node + stride if c < extent - 1 else node - (extent - 1) * stride
            if down not in result:
                result.append(down)
            if up not in result and up != down:
                result.append(up)
        out = tuple(result)
        self._neighbor_cache[node] = out
        return out
