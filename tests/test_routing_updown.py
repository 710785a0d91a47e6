"""Fuzzed validation of up*/down* routing.

Up/down routing is the repo's fault-tolerance workhorse: it must produce
valid, loop-free, deadlock-free routes on *arbitrary* connected graphs,
including the irregular ones left behind by link failures. These tests
fuzz random connected subgraphs of every stock topology and check the
full contract.
"""

import random

import pytest

from repro.errors import RoutingError
from repro.topology import (
    DegradedTopology,
    Hypercube,
    Mesh2D,
    Torus,
    UpDownRouting,
    is_deadlock_free,
    links,
    normalize_link,
)


def _connected(topo, *, skip=frozenset()):
    """Is the topology connected, ignoring links in ``skip``?"""
    seen = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for nbr in topo.neighbors(node):
            if normalize_link(node, nbr) in skip:
                continue
            if nbr not in seen:
                seen.add(nbr)
                frontier.append(nbr)
    return len(seen) == topo.num_nodes


def random_connected_subgraph(topo, rng, *, drop_fraction=0.3):
    """A DegradedTopology that stays connected: shuffle the links and
    greedily fail each one that does not disconnect the graph."""
    pool = links(topo)
    rng.shuffle(pool)
    failed = set()
    budget = int(len(pool) * drop_fraction)
    for link in pool:
        if len(failed) >= budget:
            break
        if _connected(topo, skip=failed | {link}):
            failed.add(link)
    return DegradedTopology(topo, sorted(failed))


def assert_updown_contract(routing):
    """Every pair routes, every route is simple and legal up*/down*."""
    topo = routing.topology
    n = topo.num_nodes
    for src in range(n):
        for dst in range(n):
            path = routing.route(src, dst)
            assert path[0] == src and path[-1] == dst
            assert len(set(path)) == len(path), f"loop in {path}"
            down_started = False
            for u, v in zip(path[:-1], path[1:]):
                assert v in topo.neighbors(u), f"dead hop {u}->{v}"
                if routing.is_up(u, v):
                    assert not down_started, (
                        f"up channel after down in {path}"
                    )
                else:
                    down_started = True


BASES = [
    lambda: Mesh2D(4, 4),
    lambda: Torus((4, 3)),
    lambda: Hypercube(4),
]


class TestUpDownFuzz:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("base", BASES,
                             ids=["mesh", "torus", "hypercube"])
    def test_random_connected_subgraphs(self, base, seed):
        rng = random.Random(seed)
        topo = random_connected_subgraph(base(), rng)
        routing = UpDownRouting(topo)
        assert_updown_contract(routing)
        assert is_deadlock_free(routing)

    @pytest.mark.parametrize("base", BASES,
                             ids=["mesh", "torus", "hypercube"])
    def test_intact_topologies(self, base):
        routing = UpDownRouting(base())
        assert_updown_contract(routing)
        assert is_deadlock_free(routing)

    def test_deterministic_across_instances(self):
        topo = DegradedTopology(Mesh2D(4, 4), [(0, 1), (5, 6)])
        a, b = UpDownRouting(topo), UpDownRouting(topo)
        for src in range(topo.num_nodes):
            for dst in range(topo.num_nodes):
                assert a.route(src, dst) == b.route(src, dst)

    def test_explicit_root(self):
        topo = Mesh2D(3, 3)
        routing = UpDownRouting(topo, root=4)
        assert routing.rank(4) == (0, 4)
        assert_updown_contract(routing)
        assert routing.signature() == ("UpDownRouting", 4)
        assert routing.signature() != UpDownRouting(topo).signature()

    def test_unreachable_pair_raises(self):
        # Cut node 3 (corner of a 2x2 mesh) off entirely.
        topo = DegradedTopology(Mesh2D(2, 2), [(1, 3), (2, 3)])
        routing = UpDownRouting(topo)
        with pytest.raises(RoutingError, match="disconnected"):
            routing.route(0, 3)
        # The reachable component still routes.
        assert routing.route(0, 2) == (0, 2)
