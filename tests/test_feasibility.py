"""Unit tests for the feasibility analyzer (repro.core.feasibility)."""

from dataclasses import replace

import pytest

from repro.core.backends import KIM98
from repro.core.feasibility import FeasibilityAnalyzer
from repro.core.hpset import HPEntry, HPSet
from repro.core.latency import PipelinedLatency
from repro.core.streams import MessageStream, StreamSet
from repro.errors import AnalysisError
from repro.topology import Mesh2D, XYRouting


def ms(i, src, dst, priority, period=100, length=5, deadline=None,
       latency=None):
    return MessageStream(i, src, dst, priority=priority, period=period,
                         length=length, deadline=deadline or period,
                         latency=latency)


@pytest.fixture(scope="module")
def mesh():
    return Mesh2D(10, 10)


@pytest.fixture(scope="module")
def routing(mesh):
    return XYRouting(mesh)


class TestConstruction:
    def test_empty_set_rejected(self, routing):
        with pytest.raises(AnalysisError):
            FeasibilityAnalyzer(StreamSet(), routing)

    def test_requires_routing(self):
        streams = StreamSet([ms(0, 0, 1, priority=1, latency=5)])
        with pytest.raises(TypeError):
            FeasibilityAnalyzer(streams)

    def test_latencies_resolved_from_route(self, mesh, routing):
        s = ms(0, mesh.node_xy(0, 0), mesh.node_xy(3, 2), priority=1,
               length=4)
        an = FeasibilityAnalyzer(StreamSet([s]), routing)
        assert an.streams[0].latency == 5 + 4 - 1

    def test_explicit_latency_kept(self, mesh, routing):
        s = ms(0, mesh.node_xy(0, 0), mesh.node_xy(3, 2), priority=1,
               latency=99)
        an = FeasibilityAnalyzer(StreamSet([s]), routing)
        assert an.streams[0].latency == 99

    def test_custom_latency_model(self, mesh, routing):
        s = ms(0, mesh.node_xy(0, 0), mesh.node_xy(3, 2), priority=1,
               length=4)
        an = FeasibilityAnalyzer(
            StreamSet([s]), routing, latency_model=PipelinedLatency(2)
        )
        assert an.streams[0].latency == 2 * 5 + 4 - 1

    def test_hp_override_unknown_stream_rejected(self, mesh, routing):
        s = ms(0, mesh.node_xy(0, 0), mesh.node_xy(3, 2), priority=1)
        with pytest.raises(AnalysisError):
            FeasibilityAnalyzer(
                StreamSet([s]), routing,
                hp_override={7: HPSet(7)},
            )


class TestSingleStream:
    def test_unblocked_bound_is_latency(self, mesh, routing):
        s = ms(0, mesh.node_xy(0, 0), mesh.node_xy(4, 0), priority=1,
               length=6, period=50)
        an = FeasibilityAnalyzer(StreamSet([s]), routing)
        verdict = an.cal_u(0)
        assert verdict.upper_bound == 4 + 6 - 1
        assert verdict.feasible
        assert verdict.slack == 50 - 9

    def test_deadline_below_latency_infeasible(self, mesh, routing):
        s = ms(0, mesh.node_xy(0, 0), mesh.node_xy(4, 0), priority=1,
               length=6, period=50, deadline=5)
        an = FeasibilityAnalyzer(StreamSet([s]), routing)
        verdict = an.cal_u(0)
        assert verdict.upper_bound == -1
        assert not verdict.feasible
        assert verdict.slack is None


class TestTwoStreams:
    @pytest.fixture()
    def pair(self, mesh):
        # Both cross channel (1,0)->(2,0): high (P2) preempts low (P1).
        hi = ms(0, mesh.node_xy(0, 0), mesh.node_xy(4, 0), priority=2,
                period=20, length=5)
        lo = ms(1, mesh.node_xy(1, 0), mesh.node_xy(5, 0), priority=1,
                period=60, length=5)
        return StreamSet([hi, lo])

    def test_high_priority_unaffected(self, pair, routing):
        an = FeasibilityAnalyzer(pair, routing)
        assert an.cal_u(0).upper_bound == 4 + 5 - 1

    def test_low_priority_pays_interference(self, pair, routing):
        an = FeasibilityAnalyzer(pair, routing)
        u = an.cal_u(1).upper_bound
        # Critical instant: three instances of the high stream (slots 1-5,
        # 21-25, 41-45) precede the 8 free slots the low stream needs.
        # Free slots 6..20 cover L=8 by t=13.
        assert u == 13

    def test_report_aggregates(self, pair, routing):
        report = FeasibilityAnalyzer(pair, routing).determine_feasibility()
        assert report.success
        assert set(report.upper_bounds()) == {0, 1}
        assert report.infeasible_ids() == ()

    def test_report_failure_lists_streams(self, mesh, routing, pair):
        tight = StreamSet([
            pair[0],
            pair[1].with_latency(None).__class__(
                stream_id=1, src=pair[1].src, dst=pair[1].dst, priority=1,
                period=60, length=5, deadline=9,
            ),
        ])
        report = FeasibilityAnalyzer(tight, routing).determine_feasibility()
        assert not report.success
        assert report.infeasible_ids() == (1,)


class TestUpperBoundSearch:
    def test_bound_beyond_deadline_found(self, mesh, routing):
        # Deadline far too small for the interference; search must extend.
        hi = ms(0, mesh.node_xy(0, 0), mesh.node_xy(4, 0), priority=2,
                period=12, length=9)
        lo = ms(1, mesh.node_xy(1, 0), mesh.node_xy(5, 0), priority=1,
                period=100, length=5, deadline=10)
        an = FeasibilityAnalyzer(StreamSet([hi, lo]), routing)
        assert an.cal_u(1).upper_bound == -1
        u = an.upper_bound(1)
        assert u > 10
        # 3 free slots per 12-slot window (10-12, 22-24, 34-36, ...);
        # L = 8 free slots accumulate at t = 35.
        assert u == 35

    def test_saturated_interference_returns_minus_one(self, mesh, routing):
        hog = ms(0, mesh.node_xy(0, 0), mesh.node_xy(4, 0), priority=2,
                 period=10, length=10)
        lo = ms(1, mesh.node_xy(1, 0), mesh.node_xy(5, 0), priority=1,
                period=100, length=5)
        an = FeasibilityAnalyzer(StreamSet([hog, lo]), routing)
        assert an.upper_bound(1, max_horizon=4096) == -1

    def test_all_upper_bounds(self, mesh, routing):
        hi = ms(0, mesh.node_xy(0, 0), mesh.node_xy(4, 0), priority=2,
                period=20, length=5)
        lo = ms(1, mesh.node_xy(1, 0), mesh.node_xy(5, 0), priority=1,
                period=60, length=5)
        an = FeasibilityAnalyzer(StreamSet([hi, lo]), routing)
        bounds = an.all_upper_bounds()
        assert bounds == {0: 8, 1: 13}


class TestModifyToggle:
    def test_use_modify_false_never_tighter(self, paper_streams, xy10,
                                            paper_hp_override):
        with_mod = FeasibilityAnalyzer(
            paper_streams, xy10, hp_override=paper_hp_override
        )
        without = FeasibilityAnalyzer(
            paper_streams, xy10, hp_override=paper_hp_override,
            backend=replace(KIM98, use_modify=False),
        )
        for sid in range(5):
            u_mod = with_mod.upper_bound(sid)
            u_dir = without.upper_bound(sid)
            assert u_mod <= u_dir

    def test_direct_only_fails_paper_example(self, paper_streams, xy10,
                                             paper_hp_override):
        """Fig. 7: without Modify_Diagram only 7 free slots exist within
        M4's deadline while its latency is 10 — the test must fail."""
        an = FeasibilityAnalyzer(
            paper_streams, xy10, hp_override=paper_hp_override,
            backend=replace(KIM98, use_modify=False),
        )
        assert an.cal_u(4).upper_bound == -1
        assert not an.determine_feasibility().success
