"""Shared route tables: all-pairs parity with the routing functions.

The table is pure memoisation — every entry must equal what
``RoutingAlgorithm.route_channels`` computes, for every (src, dst) pair
on every supported topology family, and clearing it (the chaos
``cache_storm`` path) must never change a subsequent answer. Sharing is
keyed on structure: two engines over structurally identical networks
must hit the same table object, distinct shapes must not.
"""

import pytest

from repro.topology.hypercube import Hypercube
from repro.topology.mesh import Mesh2D
from repro.topology.route_table import (
    RouteTable,
    shared_route_table,
)
from repro.topology.routing import (
    ECubeRouting,
    TorusDimensionOrderRouting,
    XYRouting,
)
from repro.topology.torus import Torus
from tests.conftest import clear_shared_route_tables


def _routings():
    return {
        "mesh_xy": XYRouting(Mesh2D(4, 4)),
        "torus_dor": TorusDimensionOrderRouting(Torus([4, 3])),
        "hypercube_ecube": ECubeRouting(Hypercube(3)),
    }


@pytest.fixture(autouse=True)
def _fresh_shared_tables():
    clear_shared_route_tables()
    yield
    clear_shared_route_tables()


class TestAllPairsParity:
    @pytest.mark.parametrize("name", sorted(_routings()))
    def test_every_pair_matches_routing(self, name):
        routing = _routings()[name]
        table = RouteTable(routing)
        n = routing.topology.num_nodes
        for src in range(n):
            for dst in range(n):
                expected = frozenset(routing.route_channels(src, dst))
                got, was_cached = table.lookup(src, dst)
                assert not was_cached
                assert got == expected
                # Second lookup is a hit and returns the same object.
                again, was_cached = table.lookup(src, dst)
                assert was_cached and again is got
        assert len(table) == n * n

    @pytest.mark.parametrize("name", sorted(_routings()))
    def test_clear_then_recompute_is_identical(self, name):
        routing = _routings()[name]
        table = RouteTable(routing)
        n = routing.topology.num_nodes
        warm = {
            (s, d): table.channels(s, d)
            for s in range(n) for d in range(n)
        }
        table.clear()
        assert len(table) == 0
        for (s, d), chans in warm.items():
            assert table.channels(s, d) == chans
        assert len(table) == n * n


class TestSharing:
    def test_identical_structures_share_one_table(self):
        a = shared_route_table(XYRouting(Mesh2D(5, 4)))
        b = shared_route_table(XYRouting(Mesh2D(5, 4)))
        assert a is b
        # One engine's lookups warm the other's.
        chans, was_cached = a.lookup(0, 7)
        assert not was_cached
        again, was_cached = b.lookup(0, 7)
        assert was_cached and again is chans

    def test_distinct_shapes_get_distinct_tables(self):
        a = shared_route_table(XYRouting(Mesh2D(5, 4)))
        b = shared_route_table(XYRouting(Mesh2D(4, 5)))
        assert a is not b

    def test_distinct_routing_classes_get_distinct_tables(self):
        torus = Torus([4, 3])
        mesh = Mesh2D(4, 3)
        a = shared_route_table(TorusDimensionOrderRouting(torus))
        b = shared_route_table(XYRouting(mesh))
        assert a is not b

