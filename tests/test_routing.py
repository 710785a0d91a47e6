"""Unit tests for routing algorithms and deadlock checking
(repro.topology.routing)."""

import pytest

from repro.errors import RoutingError
from repro.topology import (
    DimensionOrderRouting,
    ECubeRouting,
    Hypercube,
    Mesh,
    Mesh2D,
    Torus,
    TorusDimensionOrderRouting,
    XYRouting,
    channel_dependency_graph,
    is_deadlock_free,
)
from tests.reference import hop_distance


@pytest.fixture
def mesh10():
    return Mesh2D(10, 10)


@pytest.fixture
def xy(mesh10):
    return XYRouting(mesh10)


class TestXYRouting:
    def test_x_then_y(self, mesh10, xy):
        path = xy.route(mesh10.node_xy(2, 1), mesh10.node_xy(7, 5))
        coords = [mesh10.xy(n) for n in path]
        # x corrected first...
        assert coords[:6] == [(2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)]
        # ...then y.
        assert coords[6:] == [(7, 2), (7, 3), (7, 4), (7, 5)]

    def test_negative_directions(self, mesh10, xy):
        path = xy.route(mesh10.node_xy(5, 5), mesh10.node_xy(2, 3))
        coords = [mesh10.xy(n) for n in path]
        assert coords == [
            (5, 5), (4, 5), (3, 5), (2, 5), (2, 4), (2, 3),
        ]

    def test_same_node_route(self, mesh10, xy):
        n = mesh10.node_xy(4, 4)
        assert xy.route(n, n) == (n,)
        assert xy.route_channels(n, n) == ()

    def test_hop_count_matches_manhattan(self, mesh10, xy):
        for (a, b) in [((0, 0), (9, 9)), ((7, 3), (7, 7)), ((4, 1), (8, 5))]:
            src, dst = mesh10.node_xy(*a), mesh10.node_xy(*b)
            assert xy.hop_count(src, dst) == hop_distance(mesh10, src, dst)

    def test_route_channels_are_consecutive(self, mesh10, xy):
        chans = xy.route_channels(mesh10.node_xy(1, 1), mesh10.node_xy(5, 4))
        assert len(chans) == 7
        for (u1, v1), (u2, v2) in zip(chans[:-1], chans[1:]):
            assert v1 == u2

    def test_requires_mesh2d(self):
        with pytest.raises(RoutingError):
            XYRouting(Mesh((3, 3, 3)))

    def test_route_cached(self, mesh10, xy):
        a, b = mesh10.node_xy(0, 0), mesh10.node_xy(3, 3)
        assert xy.route(a, b) is xy.route(a, b)

    def test_paper_example_routes_overlap(self, mesh10, xy):
        """M2 and M4 of section 4.4 share channel (6,1)->(7,1)."""
        m2 = set(xy.route_channels(mesh10.node_xy(2, 1), mesh10.node_xy(7, 5)))
        m4 = set(xy.route_channels(mesh10.node_xy(6, 1), mesh10.node_xy(9, 3)))
        shared = m2 & m4
        assert (mesh10.node_xy(6, 1), mesh10.node_xy(7, 1)) in shared


class TestDimensionOrderRouting:
    def test_3d_order(self):
        m = Mesh((4, 4, 4))
        r = DimensionOrderRouting(m)
        path = r.route(m.node_at((0, 0, 0)), m.node_at((2, 1, 3)))
        coords = [m.coords(n) for n in path]
        # dimension 0 first, then 1, then 2.
        assert coords[1] == (1, 0, 0)
        assert coords[2] == (2, 0, 0)
        assert coords[3] == (2, 1, 0)
        assert coords[-1] == (2, 1, 3)
        assert len(path) == 1 + 2 + 1 + 3

    def test_rejects_torus(self):
        with pytest.raises(RoutingError):
            DimensionOrderRouting(Torus((4, 4)))

    def test_rejects_non_mesh(self):
        with pytest.raises(RoutingError):
            DimensionOrderRouting(Hypercube(3))


class TestECubeRouting:
    def test_lsb_first(self):
        h = Hypercube(4)
        r = ECubeRouting(h)
        path = r.route(0b0000, 0b1011)
        assert path == (0b0000, 0b0001, 0b0011, 0b1011)

    def test_hop_count_is_hamming(self):
        h = Hypercube(4)
        r = ECubeRouting(h)
        for src in range(16):
            for dst in range(16):
                if src != dst:
                    assert r.hop_count(src, dst) == bin(src ^ dst).count("1")

    def test_rejects_mesh(self):
        with pytest.raises(RoutingError):
            ECubeRouting(Mesh((4, 4)))


class TestTorusRouting:
    def test_takes_short_way_round(self):
        t = Torus((8, 8))
        r = TorusDimensionOrderRouting(t)
        a, b = t.node_at((0, 0)), t.node_at((7, 0))
        assert r.hop_count(a, b) == 1

    def test_ties_go_positive(self):
        t = Torus((8,))
        r = TorusDimensionOrderRouting(t)
        path = r.route(0, 4)
        assert path == (0, 1, 2, 3, 4)

    def test_minimal_everywhere(self):
        t = Torus((5, 5))
        r = TorusDimensionOrderRouting(t)
        for src in t.nodes():
            for dst in t.nodes():
                if src != dst:
                    assert r.hop_count(src, dst) == hop_distance(t, src, dst)

    def test_rejects_mesh(self):
        with pytest.raises(RoutingError):
            TorusDimensionOrderRouting(Mesh((4, 4)))


class TestDeadlockFreedom:
    def test_xy_on_mesh_is_deadlock_free(self):
        assert is_deadlock_free(XYRouting(Mesh2D(5, 5)))

    def test_dimension_order_3d_mesh_is_deadlock_free(self):
        assert is_deadlock_free(DimensionOrderRouting(Mesh((3, 3, 3))))

    def test_ecube_is_deadlock_free(self):
        assert is_deadlock_free(ECubeRouting(Hypercube(4)))

    def test_torus_raw_graph_is_cyclic_but_datelines_break_it(self):
        import networkx as nx

        routing = TorusDimensionOrderRouting(Torus((4, 4)))
        # Without dateline VCs the raw channel-dependency graph is cyclic...
        raw = channel_dependency_graph(routing)
        assert not nx.is_directed_acyclic_graph(raw)
        # ...and the two-class dateline scheme breaks every cycle.
        assert routing.num_vc_classes == 2
        assert is_deadlock_free(routing)

    def test_torus_extent2_is_safe(self):
        # With extent 2 there are no distinct wrap channels, hence no cycle.
        assert is_deadlock_free(TorusDimensionOrderRouting(Torus((2, 2))))

    def test_torus_route_classes(self):
        torus = Torus((6, 6))
        r = TorusDimensionOrderRouting(torus)
        # (5, 0) -> (1, 0): wraps the x dimension at the first hop.
        src, dst = torus.node_at((5, 0)), torus.node_at((1, 0))
        assert r.route_classes(src, dst) == (1, 1)
        # (1, 0) -> (3, 0): no wrap, all class 0.
        src, dst = torus.node_at((1, 0)), torus.node_at((3, 0))
        assert r.route_classes(src, dst) == (0, 0)
        # Negative direction wrap: (1, 0) -> (5, 0) goes 1,0,5.
        src, dst = torus.node_at((1, 0)), torus.node_at((5, 0))
        assert r.route_classes(src, dst) == (0, 1)
        # Classes reset on entering a new dimension.
        src, dst = torus.node_at((5, 2)), torus.node_at((0, 4))
        assert r.route_classes(src, dst) == (1, 0, 0)

    def test_mesh_route_classes_all_zero(self):
        mesh = Mesh2D(4, 4)
        r = XYRouting(mesh)
        assert r.num_vc_classes == 1
        assert r.route_classes(0, 15) == (0,) * r.hop_count(0, 15)

    def test_dependency_graph_nodes_are_channels(self):
        mesh = Mesh2D(3, 3)
        g = channel_dependency_graph(XYRouting(mesh))
        assert set(g.nodes) == set(mesh.channels())
        # Y->X dependencies must never appear under X-Y routing.
        for (u1, v1), (u2, v2) in g.edges:
            du = mesh.xy(v1)[0] - mesh.xy(u1)[0]
            dv = mesh.xy(v2)[0] - mesh.xy(u2)[0]
            if du == 0:  # first link is a Y move
                assert dv == 0  # then the next cannot be an X move
