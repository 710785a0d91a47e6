"""Route memos: all-pairs parity with the routing functions.

A :class:`RouteTable` (the benchmark ladder's all-pairs fill) is pure
memoisation — every entry must equal what
``RoutingAlgorithm.route_channels`` computes, for every (src, dst) pair
on every supported topology family. Clearing a routing's own path memo
(the chaos ``cache_storm`` path) must never change a subsequent answer.
"""

import pytest

from repro.topology.hypercube import Hypercube
from repro.topology.mesh import Mesh2D
from repro.topology.route_table import RouteTable
from repro.topology.routing import (
    ECubeRouting,
    TorusDimensionOrderRouting,
    XYRouting,
)
from repro.topology.torus import Torus


def _routings():
    return {
        "mesh_xy": XYRouting(Mesh2D(4, 4)),
        "torus_dor": TorusDimensionOrderRouting(Torus([4, 3])),
        "hypercube_ecube": ECubeRouting(Hypercube(3)),
    }


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
        n = routing.topology.num_nodes
        warm = {
            (s, d): routing.route(s, d)
            for s in range(n) for d in range(n)
        }
        routing.route_memo.clear()
        for (s, d), path in warm.items():
            assert routing.route(s, d) == path
        assert len(routing.route_memo) == n * n
