"""Unit tests for torus topologies (repro.topology.torus)."""

import pytest

from repro.errors import TopologyError
from repro.topology import Torus
from tests.reference import hop_distance


class TestTorusAdjacency:
    def test_all_degrees_equal_2n(self):
        t = Torus((4, 4))
        for n in t.nodes():
            assert len(t.neighbors(n)) == 4

    def test_wraparound_links(self):
        t = Torus((4, 4))
        # node (0, 0) must connect to (3, 0) and (0, 3) via wraps.
        n00 = t.node_at((0, 0))
        assert t.node_at((3, 0)) in t.neighbors(n00)
        assert t.node_at((0, 3)) in t.neighbors(n00)

    def test_extent_two_no_duplicate_links(self):
        t = Torus((2, 2))
        for n in t.nodes():
            # wrap and mesh link coincide: degree is 2, not 4.
            assert len(t.neighbors(n)) == 2

    def test_extent_one_dimension_ignored(self):
        t = Torus((1, 5))
        for n in t.nodes():
            assert len(t.neighbors(n)) == 2

    def test_ring(self):
        t = Torus((6,))
        assert t.num_nodes == 6
        assert set(t.neighbors(0)) == {1, 5}

    def test_neighbors_symmetric(self):
        t = Torus((3, 4))
        for u in t.nodes():
            for v in t.neighbors(u):
                assert u in t.neighbors(v)


class TestTorusDistance:
    def test_wrap_shortens_distance(self):
        t = Torus((8, 8))
        a = t.node_at((0, 0))
        b = t.node_at((7, 0))
        assert hop_distance(t, a, b) == 1

    def test_matches_mesh_when_close(self):
        t = Torus((8, 8))
        a = t.node_at((2, 2))
        b = t.node_at((4, 3))
        assert hop_distance(t, a, b) == 3

    def test_half_extent(self):
        t = Torus((8,))
        assert hop_distance(t, 0, 4) == 4

    def test_coords_roundtrip(self):
        t = Torus((3, 5, 2))
        for n in t.nodes():
            assert t.node_at(t.coords(n)) == n
