"""Unit tests for problem/report serialisation (repro.io)."""

import json

import pytest

from repro.core.feasibility import FeasibilityAnalyzer
from repro.core.streams import MessageStream, StreamSet
from repro.errors import ReproError
from repro.io import (
    load_problem,
    report_to_spec,
    streams_to_spec,
    topology_from_spec,
)
from repro.topology import (
    ECubeRouting,
    Hypercube,
    Mesh2D,
    Torus,
    TorusDimensionOrderRouting,
    UpDownRouting,
    XYRouting,
)


def _write_problem(path, topology_spec, streams):
    """A problem file as ``repro check`` reads it."""
    path.write_text(json.dumps({"topology": topology_spec,
                                "streams": streams_to_spec(streams)}))


class TestTopologyFromSpec:
    def test_mesh(self):
        # "routing": "default" pins the canonical algorithm even under a
        # suite-wide REPRO_ROUTING override.
        topo, routing = topology_from_spec(
            {"type": "mesh", "width": 6, "height": 4,
             "routing": "default"}
        )
        assert isinstance(topo, Mesh2D)
        assert topo.width == 6 and topo.height == 4
        assert isinstance(routing, XYRouting)

    def test_square_mesh_default_height(self):
        topo, _ = topology_from_spec({"type": "mesh", "width": 5})
        assert topo.width == topo.height == 5

    def test_torus(self):
        topo, routing = topology_from_spec(
            {"type": "torus", "dims": [4, 4], "routing": "default"}
        )
        assert isinstance(topo, Torus)
        assert isinstance(routing, TorusDimensionOrderRouting)

    def test_torus_needs_dims(self):
        with pytest.raises(ReproError):
            topology_from_spec({"type": "torus"})

    def test_hypercube(self):
        topo, routing = topology_from_spec(
            {"type": "hypercube", "dimension": 5, "routing": "default"}
        )
        assert isinstance(topo, Hypercube)
        assert topo.num_nodes == 32
        assert isinstance(routing, ECubeRouting)

    def test_updown_routing_key(self):
        _, routing = topology_from_spec(
            {"type": "mesh", "width": 4, "routing": "updown"}
        )
        assert isinstance(routing, UpDownRouting)

    def test_env_override_when_spec_silent(self, monkeypatch):
        monkeypatch.setenv("REPRO_ROUTING", "updown")
        _, routing = topology_from_spec({"type": "mesh", "width": 4})
        assert isinstance(routing, UpDownRouting)

    def test_spec_pin_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ROUTING", "updown")
        _, routing = topology_from_spec(
            {"type": "mesh", "width": 4, "routing": "default"}
        )
        assert isinstance(routing, XYRouting)

    def test_unknown_routing(self):
        with pytest.raises(ReproError):
            topology_from_spec(
                {"type": "mesh", "width": 4, "routing": "adaptive"}
            )

    def test_unknown_type(self):
        with pytest.raises(ReproError):
            topology_from_spec({"type": "dragonfly"})


class TestProblemRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        mesh = Mesh2D(10, 10)
        streams = StreamSet([
            MessageStream(0, mesh.node_xy(7, 3), mesh.node_xy(7, 7),
                          priority=5, period=150, length=4, deadline=150,
                          latency=7),
            MessageStream(1, mesh.node_xy(1, 1), mesh.node_xy(5, 4),
                          priority=4, period=100, length=2, deadline=100),
        ])
        path = tmp_path / "problem.json"
        _write_problem(path, {"type": "mesh", "width": 10, "height": 10},
                     streams)
        topo, routing, loaded = load_problem(path)
        assert isinstance(topo, Mesh2D)
        assert list(loaded) == list(streams)

    def test_coordinate_node_refs(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "topology": {"type": "mesh", "width": 4, "height": 4},
            "streams": [{"id": 0, "src": [0, 0], "dst": [3, 3],
                         "priority": 1, "period": 50, "length": 4,
                         "deadline": 50}],
        }))
        topo, _, streams = load_problem(path)
        assert streams[0].src == topo.node_at((0, 0))
        assert streams[0].dst == topo.node_at((3, 3))

    def test_legacy_mesh_key(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps({
            "mesh": {"width": 4, "height": 4},
            "streams": [{"id": 0, "src": 0, "dst": 3, "priority": 1,
                         "period": 50, "length": 4, "deadline": 50}],
        }))
        topo, _, streams = load_problem(path)
        assert isinstance(topo, Mesh2D) and len(streams) == 1

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"streams": []}))
        with pytest.raises(ReproError):
            load_problem(path)
        path.write_text(json.dumps({"topology": {"type": "mesh"}}))
        with pytest.raises(ReproError):
            load_problem(path)

    def test_hypercube_problem(self, tmp_path):
        path = tmp_path / "cube.json"
        path.write_text(json.dumps({
            "topology": {"type": "hypercube", "dimension": 3},
            "streams": [{"id": 0, "src": 0, "dst": 7, "priority": 1,
                         "period": 60, "length": 4, "deadline": 60}],
        }))
        topo, routing, streams = load_problem(path)
        assert routing.hop_count(0, 7) == 3

    def test_torus_round_trip(self, tmp_path):
        torus = Torus((5, 4))
        streams = StreamSet([
            MessageStream(0, torus.node_at((0, 0)), torus.node_at((4, 3)),
                          priority=2, period=120, length=3, deadline=90),
            MessageStream(3, torus.node_at((2, 1)), torus.node_at((0, 2)),
                          priority=1, period=80, length=5, deadline=80,
                          latency=9),
        ])
        path = tmp_path / "torus.json"
        _write_problem(path, {"type": "torus", "dims": [5, 4],
                            "routing": "default"}, streams)
        topo, routing, loaded = load_problem(path)
        assert isinstance(topo, Torus)
        assert isinstance(routing, TorusDimensionOrderRouting)
        assert list(loaded) == list(streams)

    def test_hypercube_round_trip(self, tmp_path):
        cube = Hypercube(4)
        streams = StreamSet([
            MessageStream(1, 0, 15, priority=3, period=200, length=6,
                          deadline=140),
            MessageStream(2, 5, 10, priority=1, period=90, length=2,
                          deadline=90, latency=8),
        ])
        path = tmp_path / "cube_rt.json"
        _write_problem(path, {"type": "hypercube", "dimension": 4,
                            "routing": "default"}, streams)
        topo, routing, loaded = load_problem(path)
        assert isinstance(topo, Hypercube)
        assert isinstance(routing, ECubeRouting)
        assert list(loaded) == list(streams)


class TestReportSpec:
    def test_report_serialisation(self):
        mesh = Mesh2D(10, 10)
        streams = StreamSet([
            MessageStream(0, mesh.node_xy(0, 0), mesh.node_xy(4, 0),
                          priority=1, period=100, length=5, deadline=100),
        ])
        report = FeasibilityAnalyzer(
            streams, XYRouting(mesh)
        ).determine_feasibility()
        spec = report_to_spec(report)
        assert spec["success"] is True
        assert spec["streams"]["0"]["upper_bound"] == 8
        assert spec["streams"]["0"]["slack"] == 92
        json.dumps(spec)  # must be JSON-clean

    def test_streams_to_spec_omits_missing_latency(self):
        streams = StreamSet([
            MessageStream(0, 0, 1, priority=1, period=10, length=2,
                          deadline=10),
        ])
        spec = streams_to_spec(streams)
        assert "latency" not in spec[0]
