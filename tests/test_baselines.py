"""Unit tests for the baselines (repro.baselines)."""

import math

import pytest

from repro.baselines import (
    compare_arbitration,
    liu_layland_bound,
    priority_inversion_scenario,
    rm_link_feasibility,
)
from repro.core.streams import MessageStream, StreamSet
from repro.errors import AnalysisError, SimulationError
from repro.topology import Mesh2D, XYRouting


class TestLiuLayland:
    def test_known_values(self):
        assert liu_layland_bound(1) == pytest.approx(1.0)
        assert liu_layland_bound(2) == pytest.approx(0.8284271)
        assert liu_layland_bound(3) == pytest.approx(0.7797632)

    def test_limit_is_ln2(self):
        assert liu_layland_bound(10_000) == pytest.approx(math.log(2), abs=1e-4)

    def test_zero_tasks(self):
        assert liu_layland_bound(0) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(AnalysisError):
            liu_layland_bound(-1)


class TestRMLinkAnalysis:
    @pytest.fixture(scope="class")
    def net(self):
        mesh = Mesh2D(10, 10)
        return mesh, XYRouting(mesh)

    def test_light_load_feasible(self, net):
        mesh, rt = net
        streams = StreamSet([
            MessageStream(0, mesh.node_xy(0, 0), mesh.node_xy(5, 0),
                          priority=1, period=1000, length=10, deadline=1000),
            MessageStream(1, mesh.node_xy(0, 1), mesh.node_xy(5, 1),
                          priority=1, period=1000, length=10, deadline=1000),
        ])
        analysis = rm_link_feasibility(streams, rt)
        assert analysis.feasible
        assert all(v.schedulable for v in analysis.verdicts.values())
        assert max(v.utilization for v in analysis.verdicts.values()) == \
            pytest.approx(0.01)

    def test_overloaded_link_detected(self, net):
        mesh, rt = net
        streams = StreamSet([
            MessageStream(0, mesh.node_xy(0, 0), mesh.node_xy(5, 0),
                          priority=1, period=20, length=10, deadline=20),
            MessageStream(1, mesh.node_xy(1, 0), mesh.node_xy(6, 0),
                          priority=2, period=20, length=10, deadline=20),
        ])
        analysis = rm_link_feasibility(streams, rt)
        assert not analysis.feasible
        # The shared segment (1,0)->(5,0) carries utilization 1.0 > bound.
        shared = (mesh.node_xy(1, 0), mesh.node_xy(2, 0))
        assert not analysis.verdicts[shared].schedulable
        assert analysis.verdicts[shared].utilization == pytest.approx(1.0)
        assert analysis.verdicts[shared].stream_ids == (0, 1)

    def test_only_used_links_reported(self, net):
        mesh, rt = net
        streams = StreamSet([
            MessageStream(0, mesh.node_xy(0, 0), mesh.node_xy(1, 0),
                          priority=1, period=100, length=10, deadline=100),
        ])
        analysis = rm_link_feasibility(streams, rt)
        assert set(analysis.verdicts) == {(mesh.node_xy(0, 0),
                                           mesh.node_xy(1, 0))}

    def test_rm_is_optimistic_vs_timing_analysis(self, net):
        """The paper's critique: a set can pass every per-link RM test while
        the exact analysis shows a deadline violation."""
        from repro.core.feasibility import FeasibilityAnalyzer

        mesh, rt = net
        # Low-priority stream with a deadline just above its latency; the
        # high-priority stream's blocking pushes U past the deadline while
        # link utilization stays tiny.
        streams = StreamSet([
            MessageStream(0, mesh.node_xy(0, 0), mesh.node_xy(5, 0),
                          priority=2, period=900, length=30, deadline=900),
            MessageStream(1, mesh.node_xy(1, 0), mesh.node_xy(6, 0),
                          priority=1, period=900, length=10, deadline=16),
        ])
        rm = rm_link_feasibility(streams, rt)
        assert rm.feasible  # RM sees ~4% utilization and is happy
        exact = FeasibilityAnalyzer(streams, rt).determine_feasibility()
        assert not exact.success  # blocking makes stream 1 miss D=16


class TestInversionScenario:
    def test_scenario_shape(self):
        mesh, rt, streams = priority_inversion_scenario()
        assert len(streams) == 4
        prios = sorted(s.priority for s in streams)
        assert prios == [2, 3, 3, 4]

    def test_too_small_mesh_rejected(self):
        with pytest.raises(SimulationError):
            priority_inversion_scenario(width=4, height=1)

    def test_classical_inverts_priority(self):
        mesh, rt, streams = priority_inversion_scenario()
        cmp = compare_arbitration(mesh, rt, streams, until=8_000, warmup=500)
        # The top-priority stream must be dramatically slower classically.
        assert cmp.blowup(4) > 2.0
        # Under preemption its delay is its no-load latency.
        top = next(s for s in streams if s.priority == 4)
        hops = rt.hop_count(top.src, top.dst)
        assert cmp.preemptive[4].maximum == hops + top.length - 1
