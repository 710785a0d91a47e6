"""Deterministic routing algorithms and deadlock-freedom checking.

The feasibility analysis requires that "the routing path of each message
stream is statically determined by using a deterministic routing algorithm
such as X-Y routing for meshes" and that "deadlock situations never occur".
This module supplies:

* :class:`XYRouting` — the paper's X-Y routing for 2-D meshes (correct the x
  coordinate first, then y);
* :class:`DimensionOrderRouting` — the n-dimensional generalisation for
  meshes (X-Y is the 2-D case);
* :class:`ECubeRouting` — dimension-ordered routing for hypercubes;
* :class:`TorusDimensionOrderRouting` — minimal dimension-ordered routing on
  tori (chooses the shorter wrap direction; *not* deadlock-free without
  dateline VCs — the checker reports this);
* :class:`UpDownRouting` — BFS-rooted up*/down* routing on *arbitrary*
  connected graphs (the classical fault-tolerant scheme: every legal path
  is a sequence of "up" channels followed by "down" channels, which rules
  out dependency cycles on any topology, including irregular degraded
  ones);
* :class:`FaultAwareRouting` — a composite that keeps the base routing's
  route wherever it avoids a set of failed links and falls back to
  up*/down* detours on the degraded graph elsewhere, spending one extra
  VC class so the combined channel-dependency graph stays acyclic;
* :func:`channel_dependency_graph` / :func:`is_deadlock_free` — Dally &
  Seitz's channel-dependency-cycle test, used to validate that a
  topology/routing pair admits no wormhole deadlock.

Routes are node paths; :meth:`RoutingAlgorithm.route_channels` converts a
path into the sequence of *directed* channels it occupies, which is what the
HP-set construction in :mod:`repro.core.hpset` intersects.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import RoutingError
from .base import Channel, Topology
from .degraded import DegradedTopology
from .hypercube import Hypercube
from .mesh import Mesh, Mesh2D
from .torus import Torus

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "RoutingAlgorithm",
    "DimensionOrderRouting",
    "XYRouting",
    "ECubeRouting",
    "TorusDimensionOrderRouting",
    "UpDownRouting",
    "FaultAwareRouting",
    "channel_dependency_graph",
    "is_deadlock_free",
]


class RoutingAlgorithm(ABC):
    """A deterministic (oblivious, single-path) routing function.

    Instances are bound to a :class:`~repro.topology.base.Topology` and map a
    (source, destination) pair to a unique node path. Results are memoised:
    the analysis and the simulator both ask for the same routes repeatedly.

    Routing functions additionally assign each channel use a **virtual
    channel class** (:meth:`route_classes`). Mesh and hypercube routing
    need only one class (their channel-dependency graphs are already
    acyclic); torus routing uses two *dateline* classes per dimension to
    break the wrap-around cycles. The simulator provisions
    ``priorities x num_vc_classes`` VCs per port, and the deadlock check
    runs on (channel, class) pairs.
    """

    #: Number of VC classes the routing function needs (1 = none).
    num_vc_classes: int = 1

    def __init__(self, topology: Topology):
        self.topology = topology
        #: The path memo, ``(src, dst) -> path``, filled by :meth:`route`.
        #: Derived data: clearing it is always safe.
        self.route_memo: Dict[Tuple[int, int], Tuple[int, ...]] = {}

    # ------------------------------------------------------------------ #

    @abstractmethod
    def _compute_route(self, src: int, dst: int) -> Tuple[int, ...]:
        """Return the node path from ``src`` to ``dst`` (inclusive)."""

    def route(self, src: int, dst: int) -> Tuple[int, ...]:
        """Return the node path ``(src, ..., dst)`` for the pair.

        The path always starts at ``src`` and ends at ``dst``; for
        ``src == dst`` it is the single-node path ``(src,)``.
        """
        key = (src, dst)
        cached = self.route_memo.get(key)
        if cached is not None:
            return cached
        self.topology.validate_node(src)
        self.topology.validate_node(dst)
        path = self._compute_route(src, dst)
        self._validate_path(src, dst, path)
        self.route_memo[key] = path
        return path

    def route_channels(self, src: int, dst: int) -> Tuple[Channel, ...]:
        """Return the directed channels occupied by the route."""
        path = self.route(src, dst)
        return tuple(zip(path[:-1], path[1:]))

    def route_classes(self, src: int, dst: int) -> Tuple[int, ...]:
        """Return the VC class of each channel use on the route.

        Aligned with :meth:`route_channels`; every class is in
        ``[0, num_vc_classes)``. The default (single-class) implementation
        returns all zeros.
        """
        return (0,) * self.hop_count(src, dst)

    def hop_count(self, src: int, dst: int) -> int:
        """Return the number of channels (hops) on the route."""
        return len(self.route(src, dst)) - 1

    def signature(self) -> Tuple:
        """Return an identity key for the routing *function*.

        Two routing instances with equal signatures bound to topologies
        with equal signatures produce identical routes and VC classes
        for every pair — so the admission engine's verdict memo names a
        routing by ``(signature(), topology.signature())``. The default
        (the class name) is correct for parameter-free algorithms;
        parameterised routings (a chosen up/down root, a loaded table, a
        failed-link set) must fold their parameters in.
        """
        return (type(self).__name__,)

    # ------------------------------------------------------------------ #

    def _validate_path(
        self, src: int, dst: int, path: Sequence[int]
    ) -> None:
        if len(path) == 0 or path[0] != src or path[-1] != dst:
            raise RoutingError(
                f"route for ({src}, {dst}) has bad endpoints: {path!r}"
            )
        for u, v in zip(path[:-1], path[1:]):
            if not self.topology.has_channel(u, v):
                raise RoutingError(
                    f"route for ({src}, {dst}) uses nonexistent channel "
                    f"({u}, {v})"
                )


class DimensionOrderRouting(RoutingAlgorithm):
    """Dimension-ordered routing on a mesh: correct dimension 0 fully, then
    dimension 1, and so on. Deadlock-free on meshes (the classical result
    proved via the acyclic channel-dependency graph, which
    :func:`is_deadlock_free` verifies mechanically)."""

    def __init__(self, topology: Mesh):
        if not isinstance(topology, Mesh):
            raise RoutingError(
                "DimensionOrderRouting requires a Mesh topology, got "
                f"{type(topology).__name__}"
            )
        if isinstance(topology, Torus):
            raise RoutingError(
                "use TorusDimensionOrderRouting for torus topologies"
            )
        super().__init__(topology)

    def _compute_route(self, src: int, dst: int) -> Tuple[int, ...]:
        mesh: Mesh = self.topology  # type: ignore[assignment]
        cur = list(mesh.coords(src))
        target = mesh.coords(dst)
        path = [src]
        for dim in range(len(mesh.dims)):
            step = 1 if target[dim] > cur[dim] else -1
            while cur[dim] != target[dim]:
                cur[dim] += step
                path.append(mesh.node_at(cur))
        return tuple(path)


class XYRouting(DimensionOrderRouting):
    """X-Y routing on a 2-D mesh: the paper's routing function.

    A message first travels along the x dimension to the destination column,
    then along y. This is exactly 2-D dimension-ordered routing; the subclass
    exists to match the paper's terminology and to insist on a 2-D mesh.
    """

    def __init__(self, topology: Mesh2D):
        if not isinstance(topology, Mesh2D):
            raise RoutingError(
                f"XYRouting requires a Mesh2D, got {type(topology).__name__}"
            )
        super().__init__(topology)


class ECubeRouting(RoutingAlgorithm):
    """E-cube routing on a hypercube: resolve differing address bits from the
    least significant to the most significant. Deadlock-free."""

    def __init__(self, topology: Hypercube):
        if not isinstance(topology, Hypercube):
            raise RoutingError(
                f"ECubeRouting requires a Hypercube, got {type(topology).__name__}"
            )
        super().__init__(topology)

    def _compute_route(self, src: int, dst: int) -> Tuple[int, ...]:
        path = [src]
        cur = src
        diff = src ^ dst
        bit = 0
        while diff:
            if diff & 1:
                cur ^= 1 << bit
                path.append(cur)
            diff >>= 1
            bit += 1
        return tuple(path)


class TorusDimensionOrderRouting(RoutingAlgorithm):
    """Minimal dimension-ordered routing on a torus with dateline VCs.

    In each dimension the shorter of the two directions is taken (ties go
    to the positive direction). Wrap-around channels create cyclic raw
    channel dependencies, so the routing function assigns two **dateline**
    VC classes per dimension: a route travels in class 0 until it crosses
    the dimension's wrap link, then switches to class 1 for the rest of
    that dimension (and resets on entering the next dimension). The
    (channel, class) dependency graph is acyclic — verified mechanically by
    :func:`is_deadlock_free` — and the simulator provisions the extra VCs
    automatically from :attr:`num_vc_classes`.
    """

    num_vc_classes = 2

    def __init__(self, topology: Torus):
        if not isinstance(topology, Torus):
            raise RoutingError(
                f"TorusDimensionOrderRouting requires a Torus, got "
                f"{type(topology).__name__}"
            )
        super().__init__(topology)
        self._class_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}

    def _steps(self, src: int, dst: int):
        """Yield (dim, step, hops) per dimension needing correction."""
        torus: Torus = self.topology  # type: ignore[assignment]
        cur = list(torus.coords(src))
        target = torus.coords(dst)
        for dim, extent in enumerate(torus.dims):
            delta = (target[dim] - cur[dim]) % extent
            if delta == 0:
                continue
            if delta <= extent - delta:
                yield dim, 1, delta, cur[dim]
            else:
                yield dim, -1, extent - delta, cur[dim]
            cur[dim] = target[dim]

    def _compute_route(self, src: int, dst: int) -> Tuple[int, ...]:
        torus: Torus = self.topology  # type: ignore[assignment]
        cur = list(torus.coords(src))
        path = [src]
        for dim, step, hops, _start in self._steps(src, dst):
            extent = torus.dims[dim]
            for _ in range(hops):
                cur[dim] = (cur[dim] + step) % extent
                path.append(torus.node_at(cur))
        return tuple(path)

    def route_classes(self, src: int, dst: int) -> Tuple[int, ...]:
        key = (src, dst)
        cached = self._class_cache.get(key)
        if cached is not None:
            return cached
        torus: Torus = self.topology  # type: ignore[assignment]
        classes: List[int] = []
        for dim, step, hops, start in self._steps(src, dst):
            extent = torus.dims[dim]
            coord = start
            crossed = False
            for _ in range(hops):
                nxt = (coord + step) % extent
                # The wrap link: extent-1 -> 0 going +, or 0 -> extent-1
                # going -.
                if (step == 1 and coord == extent - 1) or (
                    step == -1 and coord == 0
                ):
                    crossed = True
                classes.append(1 if crossed else 0)
                coord = nxt
        out = tuple(classes)
        if len(out) != self.hop_count(src, dst):  # pragma: no cover
            raise RoutingError("class/route length mismatch")
        self._class_cache[key] = out
        return out


class UpDownRouting(RoutingAlgorithm):
    """BFS-rooted up*/down* routing on arbitrary (possibly irregular)
    topologies.

    A BFS forest from a deterministic root assigns every node the rank
    ``(BFS level, node id)`` — unique, so every channel is strictly "up"
    (towards a lower rank) or "down". A legal route is zero or more up
    channels followed by zero or more down channels; the route chosen is
    the *shortest* legal one, tie-broken by expanding neighbours in
    ascending id order, so routes are deterministic. The classical
    argument applies on any graph: a dependency from a down channel to an
    up channel is impossible, and within each class the rank strictly
    orders the channels, so the channel-dependency graph is acyclic
    (verified mechanically by :func:`is_deadlock_free`). This is the
    detour routing used after link failures, where the degraded graph is
    irregular and dimension-ordered schemes no longer apply.

    Parameters
    ----------
    topology:
        Any topology with symmetric links (every concrete topology in
        this package, including :class:`~repro.topology.degraded.
        DegradedTopology` views).
    root:
        BFS root node. Defaults to the smallest node id of each
        connected component (so forests on disconnected graphs are still
        deterministic); a given root applies to its own component only.
    """

    def __init__(self, topology: Topology, root: Optional[int] = None):
        super().__init__(topology)
        if root is not None:
            topology.validate_node(root)
        self.root = root
        self._level: Dict[int, int] = {}
        self._build_forest()

    def _build_forest(self) -> None:
        """BFS levels per connected component, smallest-id roots first."""
        seen = self._level
        roots = []
        if self.root is not None:
            roots.append(self.root)
        roots.extend(self.topology.nodes())
        for start in roots:
            if start in seen:
                continue
            seen[start] = 0
            frontier = deque([start])
            while frontier:
                node = frontier.popleft()
                for nbr in sorted(self.topology.neighbors(node)):
                    if nbr not in seen:
                        seen[nbr] = seen[node] + 1
                        frontier.append(nbr)

    def rank(self, node: int) -> Tuple[int, int]:
        """The node's (BFS level, id) rank; lower ranks are nearer roots."""
        return (self._level[node], node)

    def is_up(self, u: int, v: int) -> bool:
        """``True`` iff the channel ``u -> v`` heads towards lower rank."""
        return self.rank(v) < self.rank(u)

    def _compute_route(self, src: int, dst: int) -> Tuple[int, ...]:
        if src == dst:
            return (src,)
        # BFS over (node, down_started): up channels are only legal
        # before the first down channel. FIFO order + sorted neighbour
        # expansion makes the first arrival the deterministic shortest
        # legal path.
        start = (src, False)
        parents: Dict[Tuple[int, bool], Tuple[int, bool]] = {start: start}
        frontier = deque([start])
        goal: Optional[Tuple[int, bool]] = None
        while frontier and goal is None:
            state = frontier.popleft()
            node, down_started = state
            for nbr in sorted(self.topology.neighbors(node)):
                if self.is_up(node, nbr):
                    if down_started:
                        continue
                    nxt = (nbr, False)
                else:
                    nxt = (nbr, True)
                if nxt in parents:
                    continue
                parents[nxt] = state
                if nbr == dst:
                    goal = nxt
                    break
                frontier.append(nxt)
        if goal is None:
            raise RoutingError(
                f"no up/down route from {src} to {dst} "
                f"(nodes disconnected on {type(self.topology).__name__})"
            )
        path = []
        state = goal
        while parents[state] != state:
            path.append(state[0])
            state = parents[state]
        path.append(src)
        return tuple(reversed(path))

    def signature(self) -> Tuple:
        return ("UpDownRouting", self.root)


class FaultAwareRouting(RoutingAlgorithm):
    """Preserve-the-base-route routing over a set of failed links.

    The composite the reroute-and-readmit protocol runs on: every pair
    whose *base* route survives the failed links keeps it unchanged
    (streams not touching a dead link keep their exact channel sets and
    VC classes, which is what makes incremental re-admission equal a
    from-scratch analysis bit for bit), and every other pair detours via
    :class:`UpDownRouting` on the degraded graph.

    Deadlock freedom is by construction *and* checked mechanically:
    detoured routes live entirely in one extra VC class
    (``base.num_vc_classes``), so the (channel, class) dependency graph
    is the disjoint union of the base routing's graph (acyclic, on the
    surviving subset of its routes) and the up/down graph (acyclic on
    any topology) — no edge ever crosses the two layers because each
    route uses exactly one scheme.
    """

    def __init__(
        self,
        base: RoutingAlgorithm,
        failed_links: Iterable[Sequence[int]] = (),
    ):
        if isinstance(base, FaultAwareRouting):
            raise RoutingError(
                "FaultAwareRouting wraps a concrete base routing; build "
                "a new instance from the base instead of nesting"
            )
        degraded = DegradedTopology(base.topology, failed_links)
        super().__init__(degraded)
        self.base = base
        self.detour = UpDownRouting(degraded)
        self.num_vc_classes = base.num_vc_classes + 1

    @property
    def failed_links(self) -> frozenset:
        return self.topology.failed_links  # type: ignore[attr-defined]

    def uses_base(self, src: int, dst: int) -> bool:
        """``True`` iff the pair keeps its base route (no dead links)."""
        try:
            path = self.base.route(src, dst)
        except RoutingError:
            return False
        alive = self.topology.link_alive  # type: ignore
        return all(alive(u, v) for u, v in zip(path[:-1], path[1:]))

    def _compute_route(self, src: int, dst: int) -> Tuple[int, ...]:
        if src == dst:
            return (src,)
        if self.uses_base(src, dst):
            return self.base.route(src, dst)
        try:
            return self.detour.route(src, dst)
        except RoutingError:
            raise RoutingError(
                f"no route from {src} to {dst}: the failed links "
                f"{sorted(self.failed_links)} disconnect the pair"
            ) from None

    def route_classes(self, src: int, dst: int) -> Tuple[int, ...]:
        if self.uses_base(src, dst):
            return self.base.route_classes(src, dst)
        return (self.base.num_vc_classes,) * self.hop_count(src, dst)

    def signature(self) -> Tuple:
        return (
            "FaultAwareRouting",
            self.base.signature(),
            tuple(sorted(self.failed_links)),
        )


# ---------------------------------------------------------------------- #
# Deadlock-freedom (channel dependency graph)
# ---------------------------------------------------------------------- #


def channel_dependency_graph(
    routing: RoutingAlgorithm, *, use_classes: bool = False
) -> "nx.DiGraph":
    """Build the channel-dependency graph of a routing function.

    With ``use_classes=False`` nodes are directed channels and there is an
    edge ``c1 -> c2`` iff some route uses ``c2`` immediately after ``c1``
    (Dally & Seitz's raw graph). With ``use_classes=True`` nodes are
    ``(channel, vc_class)`` pairs — the graph a VC-class scheme such as
    torus datelines must render acyclic. The construction enumerates all
    source/destination pairs, which is exact for deterministic routing;
    pairs the routing cannot serve at all (partial tables, pairs
    disconnected by failed links) contribute no dependencies and are
    skipped.
    """
    import networkx as nx

    g = nx.DiGraph()
    if not use_classes:
        g.add_nodes_from(routing.topology.channels())
    n = routing.topology.num_nodes
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            try:
                chans = routing.route_channels(src, dst)
            except RoutingError:
                continue
            if use_classes:
                classes = routing.route_classes(src, dst)
                nodes = list(zip(chans, classes))
            else:
                nodes = list(chans)
            g.add_nodes_from(nodes)
            for c1, c2 in zip(nodes[:-1], nodes[1:]):
                g.add_edge(c1, c2)
    return g


def is_deadlock_free(routing: RoutingAlgorithm) -> bool:
    """Return ``True`` iff the routing function admits no dependency cycle
    over (channel, VC class) pairs — and therefore no wormhole deadlock
    given one buffer class per VC class (the simulator's provisioning)."""
    import networkx as nx

    return nx.is_directed_acyclic_graph(
        channel_dependency_graph(routing, use_classes=True)
    )
