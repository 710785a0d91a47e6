"""Blocking dependency graphs (the paper's BDG, Figs. 5 and 8).

For a stream ``M_j`` with indirect elements in its HP set, the paper draws a
*blocking dependency graph* whose nodes are ``M_j`` and the members of
``HP_j`` and whose edges encode direct blocking. ``Modify_Diagram`` walks
this graph breadth-first from ``M_j`` so that an indirect element is handled
only after every chain leading to it has been accounted for (the pseudocode's
in-degree counter).

Edge direction here: ``u -> v`` means "``u`` is directly blocked by ``v``"
(``v`` is in the direct part of ``HP_u``). Chains from ``M_j`` to an
indirect blocker are then directed paths, and the BFS layers used by
:mod:`repro.core.modify` are distances from ``M_j``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Mapping, Tuple

from ..errors import AnalysisError
from .backends import KIM98
from .hpset import HPSet, VerdictPlan
from .streams import StreamSet

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["build_bdg", "bfs_layers", "indirect_processing_order"]


def build_bdg(
    hp: HPSet,
    blockers: Mapping[int, Tuple[int, ...]],
) -> "nx.DiGraph":
    """Build the blocking dependency graph for one analysed stream.

    Parameters
    ----------
    hp:
        The HP set of the analysed stream (self-entry optional; ignored).
    blockers:
        The global direct-blocking relation (stream id -> ids that directly
        block it), as kept by :class:`repro.core.hpset.BlockingIndex`.

    Returns
    -------
    networkx.DiGraph
        Nodes: the analysed stream and all HP members. Edge ``u -> v``:
        ``u`` is directly blocked by ``v``. Node attribute ``mode`` is
        ``"owner"``, ``"DIRECT"`` or ``"INDIRECT"``.
    """
    import networkx as nx

    j = hp.owner_id
    g = nx.DiGraph()
    g.add_node(j, mode="owner")
    for e in hp:
        if e.stream_id != j:
            g.add_node(e.stream_id, mode=e.mode.value)
    for u in g.nodes:
        if u not in blockers:
            raise AnalysisError(f"no blocking info for stream {u}")
        for v in blockers[u]:
            if v in g and v != u:
                g.add_edge(u, v)
    return g


def bfs_layers(g: "nx.DiGraph", source: int) -> List[Tuple[int, ...]]:
    """Return BFS layers of ``g`` from ``source`` (deterministic order).

    Layer 0 is ``(source,)``; layer ``k`` holds nodes whose shortest blocking
    chain from the owner has ``k`` edges. Nodes unreachable from ``source``
    (possible only for malformed inputs) are appended as a final layer so
    callers never silently drop them.
    """
    if source not in g:
        raise AnalysisError(f"BDG has no node {source}")
    seen = {source}
    layers: List[Tuple[int, ...]] = [(source,)]
    frontier = [source]
    while frontier:
        nxt = sorted(
            {v for u in frontier for v in g.successors(u)} - seen
        )
        if not nxt:
            break
        seen.update(nxt)
        layers.append(tuple(nxt))
        frontier = nxt
    rest = sorted(set(g.nodes) - seen)
    if rest:
        layers.append(tuple(rest))
    return layers


def indirect_processing_order(
    hp: HPSet,
    blockers: Mapping[int, Tuple[int, ...]],
    streams: StreamSet,
) -> Tuple[int, ...]:
    """Return the ids of ``hp``'s indirect elements in the order
    ``Modify_Diagram`` handles them (:meth:`VerdictPlan.link`)."""
    plan = VerdictPlan.of_hp_set(streams[hp.owner_id], hp, streams,
                                 blockers, {}, {}, KIM98)
    return tuple(plan.rows[r].stream_id for r, _ in plan.release)
