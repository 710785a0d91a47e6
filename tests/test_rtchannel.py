"""Tests for the store-and-forward real-time channel substrate
(repro.rtchannel)."""

import pytest

from repro.core.streams import MessageStream, StreamSet
from repro.errors import AnalysisError, SimulationError
from repro.rtchannel import StoreAndForwardSimulator, holistic_bounds
from repro.sim import PaperWorkload, WormholeSimulator
from repro.topology import Mesh2D, XYRouting


@pytest.fixture(scope="module")
def net():
    mesh = Mesh2D(10, 10)
    return mesh, XYRouting(mesh)


def ms(i, mesh, src, dst, priority=1, period=1000, length=5, deadline=None):
    return MessageStream(i, mesh.node_xy(*src), mesh.node_xy(*dst),
                         priority=priority, period=period, length=length,
                         deadline=deadline or period)


class TestSAFSimulator:
    def test_no_load_latency_is_h_times_c(self, net):
        mesh, rt = net
        s = ms(0, mesh, (0, 0), (4, 0), length=5)
        sim = StoreAndForwardSimulator(mesh, rt, StreamSet([s]))
        stats = sim.simulate_streams(1)
        assert stats.samples(0) == (4 * 5,)

    def test_wormhole_beats_saf_unloaded(self, net):
        """The motivation for wormhole switching: h + C - 1 << h * C."""
        mesh, rt = net
        s = ms(0, mesh, (0, 0), (8, 0), length=20)
        saf = StoreAndForwardSimulator(mesh, rt, StreamSet([s]))
        worm = WormholeSimulator(mesh, rt, StreamSet([s]))
        d_saf = saf.simulate_streams(1).samples(0)[0]
        d_worm = worm.simulate_streams(1).samples(0)[0]
        assert d_saf == 8 * 20
        assert d_worm == 8 + 20 - 1
        assert d_saf > 5 * d_worm

    def test_link_serialises_packets(self, net):
        """Two same-release packets over one link: second waits a full
        packet time (non-preemptive service)."""
        mesh, rt = net
        a = ms(0, mesh, (0, 0), (2, 0), priority=2, length=10, period=100)
        b = ms(1, mesh, (0, 0), (2, 0), priority=1, length=10, period=100)
        sim = StoreAndForwardSimulator(mesh, rt, StreamSet([a, b]))
        stats = sim.simulate_streams(1)
        # a (higher priority) goes first: 2 hops x 10 = 20; b starts its
        # first hop at t=10, pipelines behind: finishes at 30.
        assert stats.samples(0) == (20,)
        assert stats.samples(1) == (30,)

    def test_priority_scheduler_orders_queue(self, net):
        mesh, rt = net
        lo = ms(0, mesh, (0, 0), (3, 0), priority=1, length=10, period=400)
        hi = ms(1, mesh, (0, 0), (3, 0), priority=2, length=10, period=400)
        sim = StoreAndForwardSimulator(mesh, rt, StreamSet([lo, hi]))
        stats = sim.simulate_streams(1)
        assert stats.samples(1)[0] < stats.samples(0)[0]

    def test_edf_scheduler_orders_by_deadline(self, net):
        mesh, rt = net
        relaxed = ms(0, mesh, (0, 0), (3, 0), priority=2, length=10,
                     period=400, deadline=400)
        urgent = ms(1, mesh, (0, 0), (3, 0), priority=1, length=10,
                    period=400, deadline=50)
        sim = StoreAndForwardSimulator(mesh, rt, StreamSet([relaxed, urgent]),
                                       scheduler="edf")
        stats = sim.simulate_streams(1)
        # EDF ignores the priority field: the tight-deadline packet wins.
        assert stats.samples(1)[0] < stats.samples(0)[0]

    def test_unknown_scheduler_rejected(self, net):
        mesh, rt = net
        s = StreamSet([ms(0, mesh, (0, 0), (1, 0))])
        with pytest.raises(SimulationError):
            StoreAndForwardSimulator(mesh, rt, s, scheduler="wfq")

    def test_empty_streams_rejected(self, net):
        mesh, rt = net
        with pytest.raises(SimulationError):
            StoreAndForwardSimulator(mesh, rt, StreamSet())

    def test_periodic_traffic_drains(self, net):
        mesh, rt = net
        streams = StreamSet([
            ms(0, mesh, (0, 0), (5, 0), priority=1, period=60, length=12),
            ms(1, mesh, (1, 0), (6, 0), priority=2, period=80, length=12),
        ])
        sim = StoreAndForwardSimulator(mesh, rt, streams)
        stats = sim.simulate_streams(3_000)
        assert stats.unfinished == 0
        assert stats.stream_stats(0).count == 50
        assert stats.stream_stats(1).count == 38


class TestHolisticBounds:
    def test_no_load_bound(self, net):
        mesh, rt = net
        s = StreamSet([ms(0, mesh, (0, 0), (4, 0), length=5)])
        hb = holistic_bounds(s, rt)
        assert hb[0].bound == 20
        assert hb[0].converged
        assert len(hb[0].links) == 4
        assert all(l.response == 5 for l in hb[0].links)

    def test_blocking_from_lower_priority(self, net):
        mesh, rt = net
        hi = ms(0, mesh, (0, 0), (2, 0), priority=2, length=5, period=500)
        lo = ms(1, mesh, (1, 0), (3, 0), priority=1, length=9, period=500)
        hb = holistic_bounds(StreamSet([hi, lo]), rt)
        # hi shares link (1,0)->(2,0) with lo: non-preemptive blocking 9.
        shared = next(l for l in hb[0].links
                      if l.channel == (mesh.node_xy(1, 0),
                                       mesh.node_xy(2, 0)))
        assert shared.blocking == 9
        assert hb[0].bound == 5 + (9 + 5)

    def test_divergence_detected(self, net):
        mesh, rt = net
        hog = ms(0, mesh, (0, 0), (2, 0), priority=2, length=10, period=10)
        lo = ms(1, mesh, (1, 0), (3, 0), priority=1, length=5, period=100)
        hb = holistic_bounds(StreamSet([hog, lo]), rt,
                             max_bound=10_000)
        assert hb[1].bound == -1
        assert not hb[1].converged

    def test_empty_rejected(self, net):
        mesh, rt = net
        with pytest.raises(AnalysisError):
            holistic_bounds(StreamSet(), rt)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_soundness_against_simulation(self, net, seed):
        """Holistic bounds must cover simulated SAF delays (priority
        scheduler, critical instant and steady state)."""
        mesh, rt = net
        wl = PaperWorkload(num_streams=12, priority_levels=3, seed=seed,
                           period_range=(300, 700))
        streams = wl.generate(mesh)
        hb = holistic_bounds(streams, rt)
        sim = StoreAndForwardSimulator(mesh, rt, streams)
        stats = sim.simulate_streams(8_000)
        for sid in stats.stream_ids():
            bound = hb[sid].bound
            if bound > 0 and hb[sid].converged:
                assert stats.max_delay(sid) <= bound, (
                    f"stream {sid}: {stats.max_delay(sid)} > {bound}"
                )

    def test_wormhole_bound_tighter_unloaded_routes(self, net):
        """For a lone stream the wormhole bound (h + C - 1) always beats
        the store-and-forward bound (h * C) — the paper's pitch."""
        from repro.core.feasibility import FeasibilityAnalyzer

        mesh, rt = net
        s = StreamSet([ms(0, mesh, (2, 3), (8, 7), length=25, period=2000)])
        worm = FeasibilityAnalyzer(s, rt).upper_bound(0)
        saf = holistic_bounds(s, rt)[0].bound
        assert worm == 10 + 25 - 1
        assert saf == 10 * 25
        assert worm < saf
