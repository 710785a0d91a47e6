"""Tests for the residency-margin correction (finding F-4).

The paper's analysis charges an equal-priority interfering instance exactly
its ``C`` channel slots; in reality the instance owns the shared VC one
flit time longer (tail drain), making the bound optimistic by one slot.
These tests replay the exact counterexample the soundness campaign found
(seed 3 of the high-interference regime) and check the corrected analysis.
"""

from dataclasses import replace

import pytest

from repro.analysis.experiments import inflate_periods
from repro.core.backends import KIM98
from repro.core.feasibility import FeasibilityAnalyzer
from repro.core.streams import MessageStream, StreamSet
from repro.errors import AnalysisError
from repro.sim import PaperWorkload, WormholeSimulator
from repro.topology import Mesh2D, XYRouting


def margin(m):
    """The paper's analysis with residency margin ``m``."""
    return replace(KIM98, residency_margin=m)


@pytest.fixture(scope="module")
def net():
    mesh = Mesh2D(10, 10)
    return mesh, XYRouting(mesh)


@pytest.fixture(scope="module")
def counterexample(net):
    """The seed-3 workload of the high-interference soundness regime."""
    mesh, rt = net
    wl = PaperWorkload(num_streams=15, priority_levels=3,
                       period_range=(100, 250), length_range=(8, 20),
                       seed=3)
    return inflate_periods(wl.generate(mesh), rt,
                           max_horizon=1 << 16).streams


class TestCounterexample:
    def test_paper_analysis_is_violated(self, net, counterexample):
        mesh, rt = net
        an = FeasibilityAnalyzer(counterexample, rt)
        u = an.upper_bound(11)
        sim = WormholeSimulator(mesh, rt, counterexample)
        stats = sim.simulate_streams(8_000)
        assert stats.max_delay(11) == u + 1  # the documented +1 violation

    def test_margin_one_restores_soundness(self, net, counterexample):
        mesh, rt = net
        an = FeasibilityAnalyzer(counterexample, rt, backend=margin(1))
        u = an.upper_bound(11)
        sim = WormholeSimulator(mesh, rt, counterexample)
        stats = sim.simulate_streams(8_000)
        assert stats.max_delay(11) <= u

    def test_blocker_is_equal_priority(self, net, counterexample):
        """The violating interference comes from an equal-priority stream
        (separate-VC preemption by higher priorities is charged exactly)."""
        mesh, rt = net
        an = FeasibilityAnalyzer(counterexample, rt)
        hp = an.hp_sets[11]
        assert all(
            counterexample[e.stream_id].priority
            == counterexample[11].priority
            for e in hp
        )


class TestMarginSemantics:
    def test_negative_margin_rejected(self):
        with pytest.raises(AnalysisError, match="residency_margin"):
            margin(-1)

    def test_margin_only_touches_equal_priority(self, net):
        mesh, rt = net
        lo = MessageStream(0, mesh.node_xy(1, 0), mesh.node_xy(6, 0),
                           priority=1, period=200, length=5, deadline=200)
        hi = MessageStream(1, mesh.node_xy(0, 0), mesh.node_xy(5, 0),
                           priority=2, period=200, length=9, deadline=200)
        streams = StreamSet([lo, hi])
        base = FeasibilityAnalyzer(streams, rt).upper_bound(0)
        margined = FeasibilityAnalyzer(
            streams, rt, backend=margin(3)
        ).upper_bound(0)
        # hi has strictly higher priority: no margin applied.
        assert margined == base

    def test_margin_grows_bound_per_instance(self, net):
        mesh, rt = net
        a = MessageStream(0, mesh.node_xy(1, 0), mesh.node_xy(6, 0),
                          priority=1, period=400, length=20, deadline=400)
        b = MessageStream(1, mesh.node_xy(0, 0), mesh.node_xy(5, 0),
                          priority=1, period=400, length=9, deadline=400)
        streams = StreamSet([a, b])
        base = FeasibilityAnalyzer(streams, rt).upper_bound(0)
        m1 = FeasibilityAnalyzer(streams, rt,
                                 backend=margin(1)).upper_bound(0)
        m2 = FeasibilityAnalyzer(streams, rt,
                                 backend=margin(2)).upper_bound(0)
        # One equal-priority instance before the bound: +1 slot per margin.
        assert m1 == base + 1
        assert m2 == base + 2

    def test_margin_zero_is_paper(self, net, counterexample):
        mesh, rt = net
        a = FeasibilityAnalyzer(counterexample, rt)
        b = FeasibilityAnalyzer(counterexample, rt, backend=margin(0))
        for s in counterexample:
            assert a.upper_bound(s.stream_id) == b.upper_bound(s.stream_id)
