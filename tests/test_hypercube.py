"""Unit tests for hypercube topology (repro.topology.hypercube)."""

import pytest

from repro.errors import TopologyError
from repro.topology import Hypercube
from tests.reference import hop_distance


class TestHypercube:
    def test_sizes(self):
        assert Hypercube(0).num_nodes == 1
        assert Hypercube(3).num_nodes == 8
        assert Hypercube(6).num_nodes == 64

    def test_rejects_bad_dimension(self):
        with pytest.raises(TopologyError):
            Hypercube(-1)
        with pytest.raises(TopologyError):
            Hypercube(25)

    def test_neighbors_differ_one_bit(self):
        h = Hypercube(4)
        for u in h.nodes():
            for v in h.neighbors(u):
                assert bin(u ^ v).count("1") == 1

    def test_degree_is_dimension(self):
        h = Hypercube(5)
        for n in h.nodes():
            assert len(h.neighbors(n)) == 5

    def test_coords_are_bits_lsb_first(self):
        h = Hypercube(3)
        assert h.coords(0b101) == (1, 0, 1)
        assert h.node_at((1, 0, 1)) == 0b101

    def test_node_at_rejects_non_bits(self):
        h = Hypercube(3)
        with pytest.raises(TopologyError):
            h.node_at((2, 0, 0))
        with pytest.raises(TopologyError):
            h.node_at((1, 1))

    def test_hop_distance_is_hamming(self):
        h = Hypercube(4)
        assert hop_distance(h, 0b0000, 0b1111) == 4
        assert hop_distance(h, 0b1010, 0b1010) == 0
        assert hop_distance(h, 0b1010, 0b1000) == 1

    def test_channel_count(self):
        h = Hypercube(4)
        assert h.num_channels() == 16 * 4
