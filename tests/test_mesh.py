"""Unit tests for mesh topologies (repro.topology.mesh)."""

import pytest

from repro.errors import TopologyError
from repro.topology import Mesh, Mesh2D
from tests.reference import hop_distance


class TestMeshConstruction:
    def test_num_nodes(self):
        assert Mesh((10, 10)).num_nodes == 100
        assert Mesh((3, 4, 5)).num_nodes == 60
        assert Mesh((7,)).num_nodes == 7

    def test_single_node_mesh(self):
        m = Mesh((1, 1))
        assert m.num_nodes == 1
        assert m.neighbors(0) == ()

    def test_rejects_empty_dims(self):
        with pytest.raises(TopologyError):
            Mesh(())

    def test_rejects_nonpositive_extent(self):
        with pytest.raises(TopologyError):
            Mesh((3, 0))
        with pytest.raises(TopologyError):
            Mesh((-2,))

    def test_len_and_contains(self):
        m = Mesh((4, 4))
        assert len(m) == 16
        assert 0 in m and 15 in m
        assert 16 not in m
        assert "x" not in m


class TestMeshCoordinates:
    def test_roundtrip_all_nodes(self):
        m = Mesh((3, 4, 2))
        for n in m.nodes():
            assert m.node_at(m.coords(n)) == n

    def test_coords_order_x_fastest(self):
        m = Mesh2D(10, 10)
        assert m.coords(0) == (0, 0)
        assert m.coords(1) == (1, 0)
        assert m.coords(10) == (0, 1)

    def test_node_at_validates_length(self):
        m = Mesh((3, 3))
        with pytest.raises(TopologyError):
            m.node_at((1,))
        with pytest.raises(TopologyError):
            m.node_at((1, 1, 1))

    def test_node_at_validates_range(self):
        m = Mesh((3, 3))
        with pytest.raises(TopologyError):
            m.node_at((3, 0))
        with pytest.raises(TopologyError):
            m.node_at((0, -1))

    def test_validate_node_rejects_bad_ids(self):
        m = Mesh((3, 3))
        with pytest.raises(TopologyError):
            m.validate_node(9)
        with pytest.raises(TopologyError):
            m.validate_node(-1)
        with pytest.raises(TopologyError):
            m.validate_node(True)  # bools are not node ids


class TestMeshAdjacency:
    def test_corner_degree(self):
        m = Mesh2D(10, 10)
        assert len(m.neighbors(m.node_xy(0, 0))) == 2
        assert len(m.neighbors(m.node_xy(9, 9))) == 2

    def test_edge_degree(self):
        m = Mesh2D(10, 10)
        assert len(m.neighbors(m.node_xy(5, 0))) == 3

    def test_interior_degree(self):
        m = Mesh2D(10, 10)
        assert len(m.neighbors(m.node_xy(5, 5))) == 4

    def test_neighbors_symmetric(self):
        m = Mesh((4, 5))
        for u in m.nodes():
            for v in m.neighbors(u):
                assert u in m.neighbors(v)

    def test_neighbors_differ_in_one_coord(self):
        m = Mesh((3, 3, 3))
        for u in m.nodes():
            cu = m.coords(u)
            for v in m.neighbors(u):
                cv = m.coords(v)
                diffs = [abs(a - b) for a, b in zip(cu, cv)]
                assert sum(diffs) == 1

    def test_channel_count_2d(self):
        # A w x h mesh has 2*( (w-1)*h + w*(h-1) ) directed channels.
        m = Mesh2D(10, 10)
        assert m.num_channels() == 2 * (9 * 10 + 10 * 9)

    def test_has_channel(self):
        m = Mesh2D(3, 3)
        assert m.has_channel(0, 1)
        assert m.has_channel(1, 0)
        assert not m.has_channel(0, 2)
        assert not m.has_channel(0, 4)  # diagonal

    def test_hop_distance_manhattan(self):
        m = Mesh2D(10, 10)
        assert hop_distance(m, m.node_xy(7, 3), m.node_xy(7, 7)) == 4
        assert hop_distance(m, m.node_xy(1, 1), m.node_xy(5, 4)) == 7
        assert hop_distance(m, m.node_xy(0, 0), m.node_xy(0, 0)) == 0


class TestMesh2D:
    def test_square_default(self):
        m = Mesh2D(6)
        assert m.width == 6 and m.height == 6

    def test_rectangular(self):
        m = Mesh2D(4, 7)
        assert m.width == 4 and m.height == 7
        assert m.num_nodes == 28

    def test_node_xy_roundtrip(self):
        m = Mesh2D(10, 10)
        for x in range(10):
            for y in range(10):
                assert m.xy(m.node_xy(x, y)) == (x, y)
