"""Unit tests for interference attribution (repro.core.report)."""

import pytest

from repro.core.feasibility import FeasibilityAnalyzer
from repro.core.hpset import BlockingMode
from repro.core.report import format_interference_report, interference_report
from repro.core.streams import MessageStream, StreamSet
from repro.topology import Mesh2D, XYRouting


@pytest.fixture(scope="module")
def net():
    mesh = Mesh2D(10, 10)
    return mesh, XYRouting(mesh)


class TestInterferenceReport:
    def test_unblocked_stream(self, net):
        mesh, rt = net
        s = MessageStream(0, mesh.node_xy(0, 0), mesh.node_xy(4, 0),
                          priority=1, period=100, length=5, deadline=100)
        an = FeasibilityAnalyzer(StreamSet([s]), rt)
        r = interference_report(an, 0)
        assert r.upper_bound == 8 == r.latency
        assert r.contributions == ()
        assert r.interference == 0
        assert "(no interfering streams)" in format_interference_report(r)

    def test_slots_account_for_bound(self, net):
        """U = L + total attributed interference, exactly."""
        mesh, rt = net
        streams = StreamSet([
            MessageStream(0, mesh.node_xy(0, 0), mesh.node_xy(4, 0),
                          priority=3, period=25, length=5, deadline=100),
            MessageStream(1, mesh.node_xy(1, 0), mesh.node_xy(5, 0),
                          priority=2, period=40, length=4, deadline=100),
            MessageStream(2, mesh.node_xy(2, 0), mesh.node_xy(6, 0),
                          priority=1, period=200, length=6, deadline=200),
        ])
        an = FeasibilityAnalyzer(streams, rt)
        r = interference_report(an, 2)
        assert r.upper_bound > 0
        assert r.upper_bound == r.latency + r.interference
        blockers = {c.stream_id for c in r.contributions}
        assert blockers == {0, 1}
        assert all(c.mode is BlockingMode.DIRECT for c in r.contributions)

    def test_dominant_contributor(self, net):
        mesh, rt = net
        streams = StreamSet([
            MessageStream(0, mesh.node_xy(0, 0), mesh.node_xy(4, 0),
                          priority=3, period=20, length=10, deadline=100),
            MessageStream(1, mesh.node_xy(1, 0), mesh.node_xy(5, 0),
                          priority=2, period=200, length=2, deadline=200),
            MessageStream(2, mesh.node_xy(2, 0), mesh.node_xy(6, 0),
                          priority=1, period=400, length=6, deadline=400),
        ])
        an = FeasibilityAnalyzer(streams, rt)
        r = interference_report(an, 2)
        assert max(r.contributions, key=lambda c: c.busy_slots).stream_id == 0

    def test_paper_example_attribution(self, paper_streams, xy10,
                                       paper_hp_override):
        """M4 of section 4.4: U = 33 = L (10) + 23 attributed slots,
        with M0's released instances visible in the report."""
        an = FeasibilityAnalyzer(paper_streams, xy10,
                                 hp_override=paper_hp_override)
        r = interference_report(an, 4)
        assert r.upper_bound == 33
        assert r.latency == 10
        assert r.interference == 23
        by_id = {c.stream_id: c for c in r.contributions}
        assert by_id[0].removed_instances == 2
        assert by_id[1].removed_instances == 1
        assert by_id[0].mode is BlockingMode.INDIRECT
        assert by_id[3].mode is BlockingMode.DIRECT
        text = format_interference_report(r)
        assert "U = 33" in text and "INDIRECT" in text

    def test_unbounded_attribution_over_horizon(self, net):
        mesh, rt = net
        streams = StreamSet([
            MessageStream(0, mesh.node_xy(0, 0), mesh.node_xy(4, 0),
                          priority=2, period=10, length=10, deadline=100),
            MessageStream(1, mesh.node_xy(1, 0), mesh.node_xy(5, 0),
                          priority=1, period=100, length=5, deadline=100),
        ])
        an = FeasibilityAnalyzer(streams, rt)
        r = interference_report(an, 1, horizon=200)
        assert r.upper_bound == -1
        assert r.horizon == 200
        assert r.contributions[0].busy_slots == 200
        assert "exceeds horizon" in format_interference_report(r)
