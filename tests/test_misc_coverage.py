"""Edge-case tests for paths not covered by the per-module suites."""

from dataclasses import replace

import pytest

from repro.core.backends import KIM98
from repro.core.feasibility import FeasibilityAnalyzer
from repro.core.streams import MessageStream, StreamSet
from repro.core.timing_diagram import generate_init_diagram, refill_rows
from repro.errors import AnalysisError, SimulationError
from repro.sim import TraceRecorder, WormholeSimulator
from repro.topology import Mesh2D, XYRouting


@pytest.fixture(scope="module")
def net():
    mesh = Mesh2D(10, 10)
    return mesh, XYRouting(mesh)


def ms(i, mesh, src, dst, priority=1, period=100, length=5, deadline=None):
    return MessageStream(i, mesh.node_xy(*src), mesh.node_xy(*dst),
                         priority=priority, period=period, length=length,
                         deadline=deadline or period)


class TestRefillRows:
    def test_partial_refill_preserves_prefix(self):
        rows = (
            MessageStream(0, 0, 1, priority=3, period=10, length=2,
                          deadline=10),
            MessageStream(1, 0, 1, priority=2, period=15, length=3,
                          deadline=15),
            MessageStream(2, 0, 1, priority=1, period=13, length=4,
                          deadline=13),
        )
        d = generate_init_diagram(9, rows, 40)
        before_row0 = d.allocated[0].copy()
        refill_rows(d, {1: {0}}, start_row=1)
        # Row 0 untouched; row 1's first instance removed; row 2 compacted.
        assert (d.allocated[0] == before_row0).all()
        assert d.instances[1][0].index == 1
        assert d.instances[2][0].allocated[0] == 3  # moved into freed slots

    def test_full_refill_equals_generate(self):
        rows = (
            MessageStream(0, 0, 1, priority=2, period=9, length=3,
                          deadline=9),
            MessageStream(1, 0, 1, priority=1, period=7, length=2,
                          deadline=7),
        )
        d = generate_init_diagram(9, rows, 30)
        refill_rows(d, {}, start_row=0)
        fresh = generate_init_diagram(9, rows, 30)
        assert (d.allocated == fresh.allocated).all()
        assert (d.waiting == fresh.waiting).all()

    def test_bad_start_row(self):
        d = generate_init_diagram(9, (), 10)
        with pytest.raises(AnalysisError):
            refill_rows(d, {}, start_row=5)


class TestAnalyzerEdges:
    def test_diagram_for_horizon_override(self, net):
        mesh, rt = net
        streams = StreamSet([ms(0, mesh, (0, 0), (4, 0))])
        an = FeasibilityAnalyzer(streams, rt)
        d, _ = an.diagram_for(0, horizon=7)
        assert d.dtime == 7
        d2, _ = an.diagram_for(0)
        assert d2.dtime == streams[0].deadline

    def test_fixpoint_flag_threads_through(self, net):
        mesh, rt = net
        streams = StreamSet([
            ms(0, mesh, (0, 0), (4, 0), priority=3, period=30, length=5),
            ms(1, mesh, (1, 0), (5, 0), priority=2, period=40, length=5),
            ms(2, mesh, (4, 0), (8, 0), priority=1, period=200, length=5,
               deadline=400),
        ])
        a = FeasibilityAnalyzer(
            streams, rt, backend=replace(KIM98, modify_fixpoint=True))
        b = FeasibilityAnalyzer(streams, rt, backend=KIM98)
        ua, ub = a.upper_bound(2), b.upper_bound(2)
        assert 0 < ua <= ub

    def test_verdict_repr_fields(self, net):
        mesh, rt = net
        streams = StreamSet([ms(0, mesh, (0, 0), (4, 0))])
        verdict = FeasibilityAnalyzer(streams, rt).cal_u(0)
        assert verdict.horizon == streams[0].deadline
        assert verdict.removed_instances == {}


class TestSimulatorEdges:
    def test_release_message_validates_nodes(self, net):
        mesh, rt = net
        streams = StreamSet([ms(0, mesh, (0, 0), (4, 0))])
        sim = WormholeSimulator(mesh, rt, streams)
        bad = MessageStream(9, 0, 9_999, priority=1, period=10, length=1,
                            deadline=10)
        with pytest.raises(Exception):
            sim.release_message(bad, 0)

    def test_incremental_runs(self, net):
        mesh, rt = net
        streams = StreamSet([ms(0, mesh, (0, 0), (4, 0), period=50)])
        sim = WormholeSimulator(mesh, rt, streams)
        sim.release_message(streams[0], 0)
        sim.release_message(streams[0], 50)
        sim.run(30)
        assert sim.stats.stream_stats(0).count == 1
        sim.run(120)
        assert sim.stats.stream_stats(0).count == 2

    def test_trace_records_retransmit_releases(self, net):
        mesh, rt = net
        streams = StreamSet([
            ms(0, mesh, (0, 1), (6, 1), priority=1, period=45, length=40,
               deadline=5_000),
            ms(1, mesh, (1, 1), (5, 1), priority=2, period=100, length=5,
               deadline=5_000),
        ])
        trace = TraceRecorder()
        sim = WormholeSimulator(mesh, rt, streams, vc_mode="preempt_kill",
                                trace=trace)
        sim.simulate_streams(3_000)
        if sim.retransmissions:
            # Retransmitted clones appear in the trace with the original
            # release time, and every finished trace is consistent.
            finished = [t for s in streams for t in trace.stream_traces(
                s.stream_id) if t.finish is not None]
            assert finished
            assert all(t.finish >= t.release for t in finished)

    def test_li_mode_high_priority_steals_lower_vcs(self, net):
        """Li's rule: a high-priority header may claim a lower-indexed VC
        when its own class is occupied, keeping it moving where the paper's
        fixed mapping would block."""
        mesh, rt = net
        # Two messages of top priority back to back on the same port plus
        # one low-priority stream elsewhere (to create 2 VC indices).
        streams = StreamSet([
            ms(0, mesh, (0, 0), (5, 0), priority=2, period=18, length=15,
               deadline=5_000),
            ms(1, mesh, (0, 9), (5, 9), priority=1, period=500, length=5,
               deadline=5_000),
        ])
        li = WormholeSimulator(mesh, rt, streams, vc_mode="li")
        fixed = WormholeSimulator(mesh, rt, streams)
        st_li = li.simulate_streams(2_000)
        st_fx = fixed.simulate_streams(2_000)
        # Back-to-back instances of stream 0 self-queue in both modes, but
        # Li may start the next header into the free lower VC earlier.
        assert st_li.stream_stats(0).count == st_fx.stream_stats(0).count
        assert st_li.mean_delay(0) <= st_fx.mean_delay(0)


class TestCLIExtra:
    def test_check_writes_report(self, tmp_path, capsys):
        import json

        from repro.cli import main

        spec = {
            "topology": {"type": "hypercube", "dimension": 3},
            "streams": [{"id": 0, "src": 0, "dst": 7, "priority": 1,
                         "period": 60, "length": 4, "deadline": 60}],
        }
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps(spec))
        out = tmp_path / "report.json"
        assert main(["check", str(problem), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["success"] is True
        assert report["streams"]["0"]["upper_bound"] == 3 + 4 - 1
