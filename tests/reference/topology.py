"""Fewest hops between two nodes: what a minimal route is checked against.

A mesh's distance is Manhattan, a torus's is Manhattan with the shorter
way round each ring, and a hypercube's is the Hamming distance of the two
addresses.
"""

from repro.topology import Hypercube, Mesh, Torus


def hop_distance(topology, src: int, dst: int) -> int:
    """The minimal hop count from ``src`` to ``dst`` on ``topology``."""
    topology.validate_node(src)
    topology.validate_node(dst)
    if isinstance(topology, Hypercube):
        return (src ^ dst).bit_count()
    if not isinstance(topology, Mesh):
        raise TypeError(f"no hop distance for {type(topology).__name__}")
    total = 0
    for a, b, extent in zip(topology.coords(src), topology.coords(dst),
                            topology.dims):
        d = abs(a - b)
        total += min(d, extent - d) if isinstance(topology, Torus) else d
    return total
