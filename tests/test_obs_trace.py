"""Tests for the observability tracer (repro.obs.trace / repro.obs.chrome).

The CI trace-determinism leg runs the whole suite under ``REPRO_TRACE=1``,
so every test here saves and restores the process-wide tracer instead of
assuming it starts out disabled.
"""

import json
import os
import pathlib
from dataclasses import replace

import pytest

from repro.core import backends
from repro.core.backends import KIM98
from repro.core.bdg import indirect_processing_order
from repro.core.feasibility import FeasibilityAnalyzer
from repro.core.streams import StreamSet
from repro.errors import ReproError
from repro.fuzz.generator import GeneratorConfig, generate_case
from repro.io import report_to_spec
from repro.obs import chrome_trace, export_chrome_trace
from repro.obs.trace import (
    TraceEvent,
    Tracer,
    active,
    configure_from_env,
    install,
    read_trace,
    span,
    trace_enabled_from_env,
    uninstall,
)
from repro.sim import WormholeSimulator
from repro.topology import Mesh2D, XYRouting
from tests.reference import canonical_lines, pair_spans

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def _isolated_tracer():
    """Detach any ambient tracer (e.g. the REPRO_TRACE=1 CI leg's) and
    restore it afterwards, so tests control tracing explicitly."""
    prev = uninstall()
    try:
        yield
    finally:
        if active() is not None:
            uninstall()
        if prev is not None:
            install(prev)


class TestTraceEvent:
    def test_json_round_trip(self):
        e = TraceEvent(seq=3, ts=99, ph="B", name="cal_u", cat="analysis",
                       args={"stream": 4, "horizon": 50})
        again = TraceEvent.from_dict(json.loads(e.to_json()))
        assert again == e

    def test_rejects_unknown_phase(self):
        with pytest.raises(ReproError, match="phase"):
            TraceEvent.from_dict(
                {"seq": 0, "ts": 0, "ph": "X", "name": "n", "cat": "c"}
            )

    def test_args_default_empty(self):
        e = TraceEvent.from_dict(
            {"seq": 0, "ts": 0, "ph": "i", "name": "n", "cat": "c"}
        )
        assert e.args == {}


class TestTracer:
    def test_span_nesting_depths(self):
        tr = Tracer(clock="logical")
        with tr.span("outer", "t"):
            with tr.span("inner", "t"):
                tr.instant("tick", "t")
            with tr.span("inner2", "t"):
                pass
        spans = pair_spans(list(tr.events))
        assert [(b.name, d) for b, _, d in spans] == [
            ("inner", 1), ("inner2", 1), ("outer", 0),
        ]
        assert [(e.ph, e.name) for e in tr.events][-1] == ("E", "outer")

    def test_mismatched_end_raises(self):
        tr = Tracer()
        tr.begin("a")
        with pytest.raises(ReproError, match="does not match"):
            tr.end("b")

    def test_pair_spans_rejects_unclosed(self):
        tr = Tracer(clock="logical")
        tr.begin("a")
        with pytest.raises(ReproError, match="unclosed"):
            pair_spans(list(tr.events))

    def test_span_closes_on_exception(self):
        tr = Tracer(clock="logical")
        with pytest.raises(ValueError):
            with tr.span("outer"):
                raise ValueError("boom")
        assert [(e.ph, e.name) for e in tr.events] == [
            ("B", "outer"), ("E", "outer"),
        ]
        # Nothing is left open: a further end has no span to close.
        with pytest.raises(ReproError, match="open span None"):
            tr.end("outer")

    def test_logical_clock_ts_is_seq(self):
        tr = Tracer(clock="logical")
        for _ in range(5):
            tr.instant("x")
        assert [e.ts for e in tr.events] == [0, 1, 2, 3, 4]

    def test_wall_clock_monotone(self):
        tr = Tracer()
        for _ in range(3):
            tr.instant("x")
        ts = [e.ts for e in tr.events]
        assert ts == sorted(ts) and ts[0] >= 0

    def test_ring_buffer_drops_oldest(self):
        tr = Tracer(clock="logical", buffer_limit=4)
        for i in range(10):
            tr.instant("x", n=i)
        assert [e.args["n"] for e in tr.events] == [6, 7, 8, 9]

    def test_bad_clock_and_buffer_rejected(self):
        with pytest.raises(ReproError):
            Tracer(clock="sundial")
        with pytest.raises(ReproError):
            Tracer(buffer_limit=0)

    def test_file_sink_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tr = Tracer(sink=path, clock="logical")
        with tr.span("s", "t", k=1):
            tr.instant("i", "t")
        tr.close()
        events = read_trace(path)
        assert [e.ph for e in events] == ["B", "i", "E"]
        assert events == list(tr.events)

    def test_pid_substitution(self, tmp_path):
        tr = Tracer(sink=str(tmp_path / "t-{pid}.jsonl"))
        tr.instant("x")
        tr.close()
        assert (tmp_path / f"t-{os.getpid()}.jsonl").exists()

    def test_read_trace_reports_bad_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 0, "ts": 0, "ph": "i", "name": "n", '
                        '"cat": "c"}\nnot json\n')
        with pytest.raises(ReproError, match="line 2"):
            read_trace(path)


class TestGlobalHelpers:
    def test_disabled_helpers_are_noops(self):
        assert active() is None
        with span("nothing", stream=1):
            assert active() is None
        # Disabled spans share one reusable nullcontext: no allocation.
        assert span("a") is span("b")

    def test_installed_helpers_record(self):
        tr = Tracer(clock="logical")
        install(tr)
        with span("outer", "t", k=2):
            active().instant("point", "t")
        assert [(e.ph, e.name) for e in tr.events] == [
            ("B", "outer"), ("i", "point"), ("E", "outer"),
        ]
        assert uninstall() is tr

    def test_configure_from_env_gate(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_TRACE_CLOCK", "logical")
        monkeypatch.setenv("REPRO_TRACE_FILE", str(tmp_path / "env.jsonl"))
        tr = configure_from_env()
        assert tr is active() and tr.clock == "logical"
        tr.close()
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert not trace_enabled_from_env()
        assert configure_from_env() is None
        assert active() is None


class TestChromeExport:
    def _small_trace(self, tmp_path):
        path = tmp_path / "small.jsonl"
        tr = Tracer(sink=path, clock="logical")
        with tr.span("analysis", "a", streams=2):
            tr.instant("hp_set", "a", stream=0)
        tr.close()
        return path

    def test_export_matches_golden(self, tmp_path):
        jsonl = self._small_trace(tmp_path)
        out = tmp_path / "chrome.json"
        count = export_chrome_trace(jsonl, out, clock="logical")
        assert count == 3
        golden = GOLDEN_DIR / "chrome_trace.json"
        assert out.read_text() == golden.read_text()

    def test_instant_shape(self, tmp_path):
        events = read_trace(self._small_trace(tmp_path))
        payload = chrome_trace(events, clock="logical")
        by_ph = {e["ph"]: e for e in payload["traceEvents"]}
        assert sorted(by_ph) == ["B", "E", "i"]
        assert by_ph["i"]["s"] == "t"
        assert by_ph["i"]["args"] == {"stream": 0, "seq": 1}
        assert by_ph["B"]["args"]["seq"] == 0

    def test_wall_clock_scales_to_us(self):
        e = TraceEvent(seq=0, ts=5_000, ph="i", name="n", cat="c")
        assert chrome_trace([e], clock="wall")["traceEvents"][0]["ts"] == 5
        assert chrome_trace([e], clock="logical")["traceEvents"][0]["ts"] == 5000

    def test_bad_clock_rejected(self):
        with pytest.raises(ReproError):
            chrome_trace([], clock="sundial")


def _paper_analyzer(paper_streams):
    mesh = Mesh2D(10, 10)
    return FeasibilityAnalyzer(paper_streams, XYRouting(mesh))


class TestAnalysisInstrumentation:
    def test_analysis_emits_expected_spans(self, paper_streams):
        tr = Tracer(clock="logical")
        install(tr)
        _paper_analyzer(paper_streams).determine_feasibility()
        uninstall()
        events = list(tr.events)
        names = {e.name for e in events}
        assert {"build_hp_sets", "determine_feasibility", "cal_u",
                "generate_init_diagram", "modify_diagram"} <= names
        # One balanced cal_u span per stream, nested in the report span.
        spans = pair_spans(events)
        cal_u = [s for s in spans if s[0].name == "cal_u"]
        assert len(cal_u) == len(paper_streams)
        assert all(depth >= 1 for _, _, depth in cal_u)

    def test_trace_files_byte_identical_across_runs(
        self, tmp_path, paper_streams
    ):
        texts = []
        for run in range(2):
            path = tmp_path / f"run{run}.jsonl"
            tr = Tracer(sink=path, clock="logical")
            install(tr)
            _paper_analyzer(paper_streams).determine_feasibility()
            uninstall()
            tr.close()
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]

    def test_wall_clock_canonical_lines_identical(
        self, tmp_path, paper_streams
    ):
        lines = []
        for run in range(2):
            path = tmp_path / f"wall{run}.jsonl"
            tr = Tracer(sink=path)
            install(tr)
            _paper_analyzer(paper_streams).determine_feasibility()
            uninstall()
            tr.close()
            lines.append(canonical_lines(path))
        assert lines[0] == lines[1]
        # Canonical lines zero ts; raw events carry the real stamps.
        raw = read_trace(tmp_path / "wall0.jsonl")
        assert any(e.ts != 0 for e in raw)


class TestSimInstrumentation:
    def _workload(self):
        case = generate_case(7, GeneratorConfig(max_streams=6))
        return case.build()

    def test_sim_trace_deterministic_across_runs(self, tmp_path):
        texts = []
        for run in range(2):
            mesh, routing, streams = self._workload()
            path = tmp_path / f"sim{run}.jsonl"
            tr = Tracer(sink=path, clock="logical")
            install(tr)
            WormholeSimulator(mesh, routing, streams).simulate_streams(600)
            uninstall()
            tr.close()
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]

    def test_sim_emits_wait_or_jump_events(self):
        mesh, routing, streams = self._workload()
        tr = Tracer(clock="logical")
        install(tr)
        WormholeSimulator(mesh, routing, streams).simulate_streams(600)
        uninstall()
        names = {e.name for e in tr.events}
        assert names & {"sim.clock_jump", "sim.vc_wait", "sim.preempt"}


class TestTracingDoesNotChangeResults:
    @pytest.mark.parametrize("seed", range(6))
    def test_reports_identical_with_and_without_tracing(self, seed):
        cfg = GeneratorConfig(max_streams=6)
        case = generate_case(seed, cfg)
        _, routing, streams = case.build()

        def report():
            return report_to_spec(
                FeasibilityAnalyzer(streams, routing, backend=replace(
                    KIM98, residency_margin=case.residency_margin,
                )).determine_feasibility()
            )

        assert active() is None
        untraced = report()
        tr = Tracer(clock="logical")
        install(tr)
        traced = report()
        uninstall()
        assert traced == untraced
        assert len(tr.events) > 0


class TestTracingChoosesNoPath:
    """A tracer records what runs and never picks it: ``Cal_U`` runs the
    same horizon search and ``Modify_Diagram`` the same indirect order
    traced or not, so whole verdicts — ``removed_instances`` included —
    are equal. (Seeds 9, 13, 22, 25 and 29 once differed under
    ``tighter``: a traced ``cal_u`` built one full-deadline diagram.)"""

    @pytest.mark.parametrize("seed", range(30))
    def test_traced_verdicts_equal_untraced(self, seed):
        case = generate_case(seed, GeneratorConfig(max_streams=10))
        _, routing, streams = case.build()
        for name in backends.names():
            an = FeasibilityAnalyzer(streams, routing, backend=replace(
                backends.get(name), residency_margin=case.residency_margin,
            ))

            def run():
                verdicts = {s.stream_id: an.cal_u(s.stream_id)
                            for s in an.streams}
                orders = {
                    sid: indirect_processing_order(hp, an.blockers,
                                                   an.streams)
                    for sid, hp in an.hp_sets.items()
                }
                return verdicts, orders

            assert active() is None
            untraced = run()
            install(Tracer(clock="logical"))
            traced = run()
            uninstall()
            assert traced == untraced, name
