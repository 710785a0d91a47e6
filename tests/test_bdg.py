"""Unit tests for blocking dependency graphs (repro.core.bdg)."""

import pytest

from repro.core.bdg import bfs_layers, build_bdg, indirect_processing_order
from repro.core.hpset import build_all_hp_sets, stream_channels
from repro.errors import AnalysisError
from tests.reference.hpset import direct_blockers


@pytest.fixture()
def paper_bdg_inputs(paper_streams, xy10):
    channels = stream_channels(paper_streams, xy10)
    blockers = direct_blockers(paper_streams, channels)
    hps = build_all_hp_sets(paper_streams, channels=channels)
    return paper_streams, blockers, hps


class TestBuildBDG:
    def test_hp4_structure(self, paper_bdg_inputs):
        streams, blockers, hps = paper_bdg_inputs
        g = build_bdg(hps[4], blockers)
        assert set(g.nodes) == {0, 1, 2, 3, 4}
        # Owner directly blocked by its direct elements.
        assert g.has_edge(4, 2) and g.has_edge(4, 3)
        # Chains: M2 blocked by M0 and M1; M3 blocked by M1 (and M2,
        # through the documented printed-coordinate overlap).
        assert g.has_edge(2, 0) and g.has_edge(2, 1)
        assert g.has_edge(3, 1)
        # Direction is blocked-by: no reverse edges to the owner.
        assert not g.has_edge(2, 4)

    def test_node_modes(self, paper_bdg_inputs):
        streams, blockers, hps = paper_bdg_inputs
        g = build_bdg(hps[4], blockers)
        assert g.nodes[4]["mode"] == "owner"
        assert g.nodes[2]["mode"] == "DIRECT"
        assert g.nodes[0]["mode"] == "INDIRECT"

    def test_empty_hp_set(self, paper_bdg_inputs):
        streams, blockers, hps = paper_bdg_inputs
        g = build_bdg(hps[0], blockers)
        assert set(g.nodes) == {0}
        assert g.number_of_edges() == 0

    def test_unknown_stream_rejected(self, paper_bdg_inputs):
        streams, blockers, hps = paper_bdg_inputs
        with pytest.raises(AnalysisError):
            build_bdg(hps[4], {k: v for k, v in blockers.items() if k != 2})


class TestBFSLayers:
    def test_layers_from_owner(self, paper_bdg_inputs):
        streams, blockers, hps = paper_bdg_inputs
        g = build_bdg(hps[4], blockers)
        layers = bfs_layers(g, 4)
        assert layers[0] == (4,)
        assert layers[1] == (2, 3)
        assert layers[2] == (0, 1)

    def test_missing_source(self, paper_bdg_inputs):
        streams, blockers, hps = paper_bdg_inputs
        g = build_bdg(hps[4], blockers)
        with pytest.raises(AnalysisError):
            bfs_layers(g, 99)

    def test_unreachable_nodes_appended(self):
        import networkx as nx

        g = nx.DiGraph()
        g.add_edge(0, 1)
        g.add_node(7)
        layers = bfs_layers(g, 0)
        assert layers == [(0,), (1,), (7,)]


class TestProcessingOrder:
    def test_order_nearest_then_priority(self, paper_bdg_inputs):
        streams, blockers, hps = paper_bdg_inputs
        order = indirect_processing_order(hps[4], blockers, streams)
        # Both indirect elements are at BFS depth 2; M0 (P5) before M1 (P4).
        assert order == (0, 1)

    def test_empty_when_no_indirect(self, paper_bdg_inputs):
        streams, blockers, hps = paper_bdg_inputs
        assert indirect_processing_order(hps[2], blockers, streams) == ()
