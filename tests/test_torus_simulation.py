"""End-to-end tests of the torus substrate: dateline VCs in the simulator.

A torus under minimal dimension-ordered routing deadlocks without dateline
VC classes; with them the simulator must sustain heavy wrap-crossing
traffic indefinitely, and the feasibility analysis (which only consumes
channel sets) must keep bounding the measured delays.
"""

from dataclasses import replace

import pytest

from repro.core.backends import KIM98
from repro.core.feasibility import FeasibilityAnalyzer
from repro.core.streams import MessageStream, StreamSet
from repro.errors import SimulationError
from repro.sim import WormholeSimulator
from repro.topology import Torus, TorusDimensionOrderRouting


@pytest.fixture(scope="module")
def torus_net():
    torus = Torus((6, 6))
    return torus, TorusDimensionOrderRouting(torus)


def ring_streams(torus, *, length=12, period=40):
    """Four streams chasing each other around the x ring of row 0 — the
    canonical wrap-dependency cycle that deadlocks without datelines."""
    spots = [0, 2, 3, 5]
    streams = StreamSet()
    for i, x in enumerate(spots):
        src = torus.node_at((x, 0))
        dst = torus.node_at(((x + 3) % 6, 0))
        streams.add(MessageStream(
            i, src, dst, priority=1, period=period, length=length,
            deadline=10_000,
        ))
    return streams


class TestTorusSimulation:
    def test_wrap_traffic_completes(self, torus_net):
        torus, routing = torus_net
        streams = ring_streams(torus)
        sim = WormholeSimulator(torus, routing, streams,
                                watchdog_cycles=5_000)
        stats = sim.simulate_streams(5_000)
        assert stats.unfinished == 0
        for sid in streams.ids():
            assert stats.stream_stats(sid).count > 0

    def test_vcs_scale_with_classes(self, torus_net):
        torus, routing = torus_net
        streams = ring_streams(torus)
        sim = WormholeSimulator(torus, routing, streams)
        # 1 priority level x 2 dateline classes.
        assert sim.num_vcs == 2
        assert sim.num_vc_classes == 2

    def test_single_vc_mode_rejected_with_classes(self, torus_net):
        torus, routing = torus_net
        streams = ring_streams(torus)
        with pytest.raises(SimulationError):
            WormholeSimulator(torus, routing, streams, vc_mode="single")
        with pytest.raises(SimulationError):
            WormholeSimulator(torus, routing, streams, vc_mode="li")

    def test_no_load_latency_on_torus(self, torus_net):
        torus, routing = torus_net
        src = torus.node_at((5, 0))
        dst = torus.node_at((1, 0))  # 2 hops via the wrap
        s = StreamSet([MessageStream(0, src, dst, priority=1, period=1000,
                                     length=6, deadline=1000)])
        sim = WormholeSimulator(torus, routing, s)
        stats = sim.simulate_streams(1)
        assert stats.samples(0) == (2 + 6 - 1,)

    def test_bounds_hold_on_torus(self, torus_net):
        """The analysis is topology-agnostic: bounds computed over the
        torus routes must cover simulated delays, wraps included."""
        torus, routing = torus_net
        streams = ring_streams(torus, length=8, period=120)
        an = FeasibilityAnalyzer(
            streams, routing, backend=replace(KIM98, residency_margin=1))
        bounds = {s.stream_id: an.upper_bound(s.stream_id)
                  for s in streams}
        sim = WormholeSimulator(torus, routing, an.streams)
        stats = sim.simulate_streams(6_000)
        for sid in stats.stream_ids():
            assert bounds[sid] > 0
            assert stats.max_delay(sid) <= bounds[sid]

    def test_priorities_with_classes(self, torus_net):
        """Two priorities x two classes = four VCs; the high-priority
        stream still preempts across the wrap."""
        torus, routing = torus_net
        src_lo = torus.node_at((4, 3))
        dst_lo = torus.node_at((1, 3))  # wraps x
        src_hi = torus.node_at((5, 3))
        dst_hi = torus.node_at((0, 3))  # wraps x, overlapping channels
        streams = StreamSet([
            MessageStream(0, src_lo, dst_lo, priority=1, period=30,
                          length=25, deadline=5_000),
            MessageStream(1, src_hi, dst_hi, priority=2, period=90,
                          length=5, deadline=5_000),
        ])
        sim = WormholeSimulator(torus, routing, streams, warmup=300)
        assert sim.num_vcs == 4
        stats = sim.simulate_streams(5_000)
        assert stats.max_delay(1) == 1 + 5 - 1  # no-load: 1 hop, C=5
