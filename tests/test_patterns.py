"""Structured NoC traffic (transpose, bit reversal) through the simulator."""

from repro.core.streams import MessageStream, StreamSet
from repro.sim import WormholeSimulator
from repro.topology import ECubeRouting, Hypercube, Mesh2D, XYRouting


def _periodic(pairs, *, levels, periods):
    """One periodic stream per ``(src, dst)`` pair, parameters by index."""
    streams = StreamSet()
    for i, (src, dst) in enumerate(pairs):
        period = periods[0] + (37 * i) % (periods[1] - periods[0])
        streams.add(MessageStream(
            stream_id=i, src=src, dst=dst, priority=1 + i % levels,
            period=period, length=10 + (7 * i) % 31, deadline=period,
        ))
    return streams


class TestPatternTraffic:
    def test_end_to_end_transpose_simulation(self):
        mesh = Mesh2D(6, 6)
        transpose = [(n, mesh.node_xy(*reversed(mesh.xy(n))))
                     for n in mesh.nodes() if len(set(mesh.xy(n))) == 2]
        streams = _periodic(transpose, levels=4, periods=(300, 600))
        sim = WormholeSimulator(mesh, XYRouting(mesh), streams, warmup=500)
        stats = sim.simulate_streams(6_000)
        assert stats.unfinished == 0
        assert len(stats.stream_ids()) == len(streams) == 30

    def test_end_to_end_bit_reversal_on_hypercube(self):
        cube = Hypercube(4)
        reversal = [(n, int(f"{n:04b}"[::-1], 2)) for n in cube.nodes()]
        streams = _periodic([(s, d) for s, d in reversal if s != d],
                            levels=2, periods=(200, 400))
        sim = WormholeSimulator(cube, ECubeRouting(cube), streams, warmup=500)
        stats = sim.simulate_streams(5_000)
        assert stats.unfinished == 0
        assert len(streams) == 12
