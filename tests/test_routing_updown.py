"""Fuzzed validation of up*/down* and table-driven routing.

Up/down routing is the repo's fault-tolerance workhorse: it must produce
valid, loop-free, deadlock-free routes on *arbitrary* connected graphs,
including the irregular ones left behind by link failures. These tests
fuzz random connected subgraphs of every stock topology and check the
full contract, then round-trip the same routes through the JSON route
tables the management plane ships.
"""

import json
import random

import pytest

from repro.errors import RoutingError
from repro.topology import (
    DegradedTopology,
    ECubeRouting,
    FaultAwareRouting,
    Hypercube,
    Mesh2D,
    TableRouting,
    Torus,
    UpDownRouting,
    XYRouting,
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


class TestTableRoundTrip:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_json_round_trip_preserves_routes(self, seed):
        rng = random.Random(seed)
        topo = random_connected_subgraph(Mesh2D(4, 3), rng)
        source = UpDownRouting(topo)
        table = TableRouting.from_routing(source)
        text = table.to_json()
        loaded = TableRouting.from_json(topo, text)
        for src in range(topo.num_nodes):
            for dst in range(topo.num_nodes):
                assert loaded.route(src, dst) == source.route(src, dst)
                assert (loaded.route_classes(src, dst)
                        == source.route_classes(src, dst))
        # Canonical JSON means identical signatures for identical tables.
        assert loaded.signature() == table.signature()
        assert loaded.to_json() == text
        assert is_deadlock_free(loaded)

    def test_missing_pair_raises_with_pair_named(self):
        topo = Mesh2D(2, 2)
        table = TableRouting(topo, {(0, 1): (0, 1)})
        assert table.route(0, 1) == (0, 1)
        with pytest.raises(RoutingError, match=r"\(1, 0\)"):
            table.route(1, 0)

    def test_fault_aware_table_dump(self):
        # Dumping a FaultAwareRouting captures the detours and the extra
        # VC class; the table replays them without the live machinery.
        base = XYRouting(Mesh2D(3, 3))
        far = FaultAwareRouting(base, [(0, 1)])
        table = TableRouting.from_routing(far)
        assert table.num_vc_classes == far.num_vc_classes
        for src in range(9):
            for dst in range(9):
                assert table.route(src, dst) == far.route(src, dst)
                assert (table.route_classes(src, dst)
                        == far.route_classes(src, dst))
        assert is_deadlock_free(table)

    def test_bad_specs_rejected(self):
        topo = Hypercube(2)
        with pytest.raises(RoutingError, match="not valid JSON"):
            TableRouting.from_json(topo, "{nope")
        with pytest.raises(RoutingError, match="must be an object"):
            TableRouting.from_json(topo, "[1, 2]")
        with pytest.raises(RoutingError, match="'routes'"):
            TableRouting.from_spec(topo, {})
        with pytest.raises(RoutingError, match="duplicate"):
            TableRouting.from_spec(topo, {"routes": [
                {"src": 0, "dst": 1, "path": [0, 1]},
                {"src": 0, "dst": 1, "path": [0, 1]},
            ]})
        with pytest.raises(RoutingError, match="bad route table entry"):
            TableRouting.from_spec(topo, {"routes": [{"src": 0}]})

    def test_ecube_survives_round_trip(self):
        cube = Hypercube(3)
        table = TableRouting.from_routing(ECubeRouting(cube))
        spec = json.loads(table.to_json())
        assert spec["num_vc_classes"] == 1
        loaded = TableRouting.from_spec(cube, spec)
        assert loaded.route(0, 7) == ECubeRouting(cube).route(0, 7)
