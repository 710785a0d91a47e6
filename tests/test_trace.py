"""Unit tests for simulation instrumentation (repro.sim.trace)."""

import pytest

from repro.core.streams import MessageStream, StreamSet
from repro.errors import SimulationError
from repro.sim import TraceRecorder, WormholeSimulator, render_mesh_utilization
from repro.topology import Mesh2D, XYRouting


@pytest.fixture(scope="module")
def net():
    mesh = Mesh2D(10, 10)
    return mesh, XYRouting(mesh)


def ms(i, mesh, src, dst, priority=1, period=1000, length=5):
    return MessageStream(i, mesh.node_xy(*src), mesh.node_xy(*dst),
                         priority=priority, period=period, length=length,
                         deadline=period)


class TestTraceRecorder:
    def test_unloaded_message_timeline(self, net):
        mesh, rt = net
        trace = TraceRecorder()
        s = ms(0, mesh, (0, 0), (4, 0), length=6)
        sim = WormholeSimulator(mesh, rt, StreamSet([s]), trace=trace)
        sim.simulate_streams(1)
        t = trace.trace(0)
        assert t.release == 0
        assert t.first_flit == 1          # starts moving immediately
        assert t.queueing_delay == 0
        assert t.finish == 4 + 6 - 1
        assert t.finish - t.first_flit + 1 == t.total_delay == 9

    def test_queueing_split(self, net):
        """Back-to-back releases: later messages queue at the source and
        the recorder attributes the wait to queueing, not the network."""
        mesh, rt = net
        trace = TraceRecorder()
        s = ms(0, mesh, (0, 0), (2, 0), length=20, period=10)
        sim = WormholeSimulator(mesh, rt, StreamSet([s]), trace=trace)
        sim.simulate_streams(100)
        traces = trace.stream_traces(0)
        assert traces[0].queueing_delay == 0
        assert traces[1].queueing_delay > 0
        # Network part stays the no-load latency for every instance.
        for t in traces:
            if t.finish is not None:
                assert t.finish - t.first_flit + 1 == 2 + 20 - 1
        assert trace.queueing_share(0) > 0.3

    def test_unknown_msg_rejected(self):
        with pytest.raises(SimulationError):
            TraceRecorder().trace(5)

    def test_queueing_share_requires_finished(self, net):
        mesh, rt = net
        trace = TraceRecorder()
        with pytest.raises(SimulationError):
            trace.queueing_share(0)


class TestLinkUtilization:
    def test_counts_match_transfers(self, net):
        mesh, rt = net
        s = ms(0, mesh, (0, 0), (3, 0), length=4, period=50)
        sim = WormholeSimulator(mesh, rt, StreamSet([s]))
        sim.simulate_streams(100)
        # Each of the 3 channels carried 4 flits per message, 2 messages.
        for ch in rt.route_channels(s.src, s.dst):
            assert sim.channel_transfers[ch] == 8
        util = sim.link_utilization()
        assert all(0 < u <= 1 for u in util.values())
        assert set(util) == set(rt.route_channels(s.src, s.dst))

    def test_utilization_before_run_rejected(self, net):
        mesh, rt = net
        s = ms(0, mesh, (0, 0), (3, 0))
        sim = WormholeSimulator(mesh, rt, StreamSet([s]))
        with pytest.raises(SimulationError):
            sim.link_utilization()


class TestHeatmap:
    def test_render_shape(self):
        mesh = Mesh2D(4, 3)
        transfers = {(mesh.node_xy(0, 0), mesh.node_xy(1, 0)): 50}
        out = render_mesh_utilization(mesh, transfers, elapsed=100)
        lines = out.splitlines()
        # 3 node rows + 2 vertical-link rows + header.
        assert len(lines) == 6
        # The bottom node row shows the hot link as '5'.
        assert lines[-1].startswith("+5")
        # Everything else unused.
        assert lines[1].count(".") == 3

    def test_saturated_link_caps_at_nine(self):
        mesh = Mesh2D(2, 1)
        transfers = {(0, 1): 100, (1, 0): 100}
        out = render_mesh_utilization(mesh, transfers, elapsed=100)
        assert "+9+" in out

    def test_bad_elapsed(self):
        mesh = Mesh2D(2, 2)
        with pytest.raises(SimulationError):
            render_mesh_utilization(mesh, {}, elapsed=0)

    def test_end_to_end_with_simulator(self):
        mesh = Mesh2D(6, 6)
        rt = XYRouting(mesh)
        streams = StreamSet([
            MessageStream(0, mesh.node_xy(0, 3), mesh.node_xy(5, 3),
                          priority=1, period=30, length=20, deadline=3000),
        ])
        sim = WormholeSimulator(mesh, rt, streams)
        sim.simulate_streams(3_000)
        out = render_mesh_utilization(mesh, sim.channel_transfers, sim.now)
        # The loaded row must show digits >= 5 somewhere.
        assert any(c in "56789" for c in out)
