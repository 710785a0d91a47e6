"""Unit tests for measured Gantt charts (repro.sim.gantt)."""

import pytest

from repro.core.streams import MessageStream, StreamSet
from repro.errors import SimulationError
from repro.sim import GanttRecorder, WormholeSimulator, render_gantt
from repro.topology import Mesh2D, XYRouting


@pytest.fixture(scope="module")
def net():
    mesh = Mesh2D(10, 10)
    return mesh, XYRouting(mesh)


def ms(i, mesh, src, dst, priority=1, period=1000, length=4):
    return MessageStream(i, mesh.node_xy(*src), mesh.node_xy(*dst),
                         priority=priority, period=period, length=length,
                         deadline=period)


class TestGanttRecorder:
    def test_single_message_staircase(self, net):
        """An unblocked worm occupies consecutive channels in a perfect
        staircase: channel k busy in cycles k+1 .. k+C."""
        mesh, rt = net
        s = ms(0, mesh, (0, 0), (3, 0), length=4)
        route = rt.route_channels(s.src, s.dst)
        g = GanttRecorder(1, 20, channels=route)
        sim = WormholeSimulator(mesh, rt, StreamSet([s]), gantt=g)
        sim.simulate_streams(1)
        for k, ch in enumerate(route):
            cells = g.cells.get(ch, {})
            assert sorted(cells) == list(range(k + 1, k + 1 + 4))
            assert set(cells.values()) == {0}

    def test_window_respected(self, net):
        mesh, rt = net
        s = ms(0, mesh, (0, 0), (3, 0), length=4, period=30)
        g = GanttRecorder(start=31, end=40)
        sim = WormholeSimulator(mesh, rt, StreamSet([s]), gantt=g)
        sim.simulate_streams(60)
        times = [t for ch in g.recorded_channels()
                 for t in g.cells.get(ch, {})]
        assert times and all(31 <= t <= 40 for t in times)

    def test_channel_filter(self, net):
        mesh, rt = net
        s = ms(0, mesh, (0, 0), (3, 0), length=4)
        only = (mesh.node_xy(1, 0), mesh.node_xy(2, 0))
        g = GanttRecorder(channels=[only])
        sim = WormholeSimulator(mesh, rt, StreamSet([s]), gantt=g)
        sim.simulate_streams(1)
        assert g.recorded_channels() == (only,)

    def test_bad_window(self):
        with pytest.raises(SimulationError):
            GanttRecorder(start=10, end=5)


class TestRenderGantt:
    def test_empty(self):
        assert "no transfers" in render_gantt(GanttRecorder())

    def test_symbols_and_idle(self, net):
        mesh, rt = net
        a = ms(0, mesh, (0, 0), (3, 0), length=3)
        b = ms(1, mesh, (1, 0), (4, 0), priority=2, length=3)
        g = GanttRecorder()
        sim = WormholeSimulator(mesh, rt, StreamSet([a, b]), gantt=g)
        sim.simulate_streams(1)
        out = render_gantt(g, topology=mesh)
        assert "(0,0)->(1,0)" in out
        assert "0" in out and "1" in out and "." in out

    def test_row_width_matches_range(self, net):
        mesh, rt = net
        s = ms(0, mesh, (0, 0), (2, 0), length=3)
        g = GanttRecorder()
        sim = WormholeSimulator(mesh, rt, StreamSet([s]), gantt=g)
        sim.simulate_streams(1)
        out = render_gantt(g, lo=1, hi=12, topology=mesh)
        rows = [l for l in out.splitlines() if "->" in l]
        cells = rows[0].split()[-1]
        # label + 12 cells; the cell block starts after padding.
        assert len(rows[0]) - rows[0].index(cells[0],
                                            rows[0].index(")->") + 5) >= 12
