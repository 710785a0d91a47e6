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

from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence, Tuple

from ..errors import AnalysisError
from ..obs.trace import active as _trace_active
from .hpset import HPSet
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
        block it), as produced by :func:`repro.core.hpset.direct_blockers`.

    Returns
    -------
    networkx.DiGraph
        Nodes: the analysed stream and all HP members. Edge ``u -> v``:
        ``u`` is directly blocked by ``v``. Node attribute ``mode`` is
        ``"owner"``, ``"DIRECT"`` or ``"INDIRECT"``.
    """
    import networkx as nx

    j = hp.owner_id
    members = {e.stream_id for e in hp if e.stream_id != j}
    # Hot path (once per Cal_U with indirect members): guard the span
    # explicitly so the disabled cost is one call and a None test.
    tr = _trace_active()
    if tr is not None:
        tr.begin("build_bdg", "analysis", owner=j, members=len(members))
    try:
        g = nx.DiGraph()
        g.add_node(j, mode="owner")
        for e in hp:
            if e.stream_id == j:
                continue
            g.add_node(e.stream_id, mode=e.mode.value)
        node_set = members | {j}
        for u in node_set:
            if u not in blockers:
                raise AnalysisError(f"no blocking info for stream {u}")
            for v in blockers[u]:
                if v in node_set and v != u:
                    g.add_edge(u, v)
    finally:
        if tr is not None:
            tr.end("build_bdg", "analysis")
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
    """Return the order in which ``Modify_Diagram`` handles indirect elements.

    Elements are processed by increasing BFS distance from the owner
    (nearest chains first), ties broken by descending priority then id —
    mirroring the paper's BFS walk with in-degree counting, which guarantees
    an element is reached only via already-examined chains.
    """
    indirect = set(hp.indirect_ids())
    if not indirect:
        return ()
    if _trace_active() is not None:
        # Cold path: build the real graph so the build_bdg span fires.
        g = build_bdg(hp, blockers)
        order: List[int] = []
        for layer in bfs_layers(g, hp.owner_id):
            layer_ids = [i for i in layer if i in indirect]
            layer_ids.sort(key=lambda i: (-streams[i].priority, i))
            order.extend(layer_ids)
        missing = indirect - set(order)
        if missing:  # pragma: no cover - defensive
            order.extend(sorted(missing))
        return tuple(order)
    # Hot path (once per Cal_U with indirect members): the BFS only needs
    # the blocked-by edges restricted to the closure — walk `blockers`
    # directly instead of materialising a DiGraph.
    j = hp.owner_id
    node_set = {e.stream_id for e in hp if e.stream_id != j}
    node_set.add(j)
    for u in node_set:
        if u not in blockers:
            raise AnalysisError(f"no blocking info for stream {u}")
    order = []
    seen = {j}
    frontier = [j]
    while frontier:
        nxt = {
            v
            for u in frontier
            for v in blockers[u]
            if v in node_set and v != u and v not in seen
        }
        if not nxt:
            break
        seen.update(nxt)
        frontier = sorted(nxt)
        layer_ids = [i for i in frontier if i in indirect]
        layer_ids.sort(key=lambda i: (-streams[i].priority, i))
        order.extend(layer_ids)
    missing = indirect - seen
    if missing:  # pragma: no cover - defensive
        rest = sorted(missing, key=lambda i: (-streams[i].priority, i))
        order.extend(rest)
    return tuple(order)
