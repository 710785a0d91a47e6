"""A topology view with a set of failed physical links removed.

Link faults are modelled at the *physical link* granularity: failing the
link between ``u`` and ``v`` removes both directed channels ``(u, v)``
and ``(v, u)`` (wormhole channels are unidirectional, but a cut cable
takes both directions with it). :class:`DegradedTopology` wraps a base
topology and filters its adjacency, so every consumer — routing,
deadlock checking, the simulator's channel inventory — sees the degraded
network through the ordinary :class:`~repro.topology.base.Topology`
interface without the base object changing underneath it.

The view is immutable: failing or restoring another link builds a *new*
``DegradedTopology``. That keeps route caches and shared route tables
honest (they key on :meth:`signature`, which covers the failed-link
set) and makes the reroute-and-readmit path in the service layer a pure
function of (base network, failed links).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..errors import TopologyError
from .base import Topology

__all__ = ["DegradedTopology", "links", "normalize_link"]

#: An undirected physical link, normalised as ``(min(u, v), max(u, v))``.
Link = Tuple[int, int]


def normalize_link(u: int, v: int) -> Link:
    """Return the canonical undirected form of the link ``u -- v``."""
    u, v = int(u), int(v)
    if u == v:
        raise TopologyError(f"link endpoints must differ, got ({u}, {v})")
    return (u, v) if u < v else (v, u)


def links(topology: Topology) -> List[Link]:
    """Every undirected physical link of ``topology``, canonical, sorted."""
    return sorted({normalize_link(u, v) for u, v in topology.channels()})


class DegradedTopology(Topology):
    """``base`` minus a set of failed (undirected) physical links.

    Parameters
    ----------
    base:
        The intact topology. Never mutated.
    failed_links:
        Undirected links to remove, each an ``(u, v)`` pair in either
        order. Every link must exist in ``base``; failing a link twice
        is a caller bug and raises.
    """

    def __init__(
        self, base: Topology, failed_links: Iterable[Sequence[int]] = ()
    ):
        if isinstance(base, DegradedTopology):
            # Flatten: a degraded view of a degraded view keys its
            # signature on the *union*, so equality stays structural.
            failed_links = list(failed_links) + [
                list(link) for link in base.failed_links
            ]
            base = base.base
        self.base = base
        self.num_nodes = base.num_nodes
        failed = set()
        for link in failed_links:
            u, v = link
            norm = normalize_link(u, v)
            if norm in failed:
                raise TopologyError(
                    f"link {norm} listed as failed more than once"
                )
            if not base.has_channel(norm[0], norm[1]):
                raise TopologyError(
                    f"cannot fail nonexistent link {norm} "
                    f"on {type(base).__name__}"
                )
            failed.add(norm)
        self.failed_links: frozenset = frozenset(failed)
        self._neighbors: Dict[int, Tuple[int, ...]] = {}

    # ------------------------------------------------------------------ #

    def neighbors(self, node: int) -> Sequence[int]:
        cached = self._neighbors.get(node)
        if cached is None:
            cached = tuple(
                v for v in self.base.neighbors(node)
                if normalize_link(node, v) not in self.failed_links
            )
            self._neighbors[node] = cached
        return cached

    def coords(self, node: int) -> Tuple[int, ...]:
        return self.base.coords(node)

    def node_at(self, coords: Iterable[int]) -> int:
        return self.base.node_at(coords)

    def signature(self) -> Tuple:
        return (
            "DegradedTopology",
            self.base.signature(),
            tuple(sorted(self.failed_links)),
        )

    # ------------------------------------------------------------------ #

    def link_alive(self, u: int, v: int) -> bool:
        """``True`` iff the physical link ``u -- v`` is not failed."""
        return normalize_link(u, v) not in self.failed_links
