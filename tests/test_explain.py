"""Tests for delay-bound provenance (repro.obs.provenance, repro explain).

The accounting identity pinned here is exact by construction: row
allocations are disjoint, so the per-HP-element busy slots in
``[1, U]`` partition the result row's busy slots, and their sum is the
interference ``U - L`` the bound charges on top of the no-load latency.
"""

import json
import pathlib
from dataclasses import replace

import pytest

from conftest import PAPER_EXAMPLE_U
from repro.cli import main
from repro.core.backends import KIM98
from repro.core.feasibility import FeasibilityAnalyzer
from repro.core.streams import MessageStream, StreamSet
from repro.fuzz.generator import GeneratorConfig, generate_case
from repro.obs.provenance import explain_stream, render_explanation

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
PAPER_PROBLEM = GOLDEN_DIR / "paper_problem.json"

#: Bounds of the section 4.4 example under *computed* HP sets (problem
#: files cannot carry the paper's printed HP override, whose M3/M4 sets
#: differ — see tests/conftest.py).
COMPUTED_U = {0: 7, 1: 8, 2: 26, 3: 30, 4: 37}


@pytest.fixture()
def paper_analyzer(paper_streams, xy10):
    return FeasibilityAnalyzer(paper_streams, xy10)


def explain_all(analyzer):
    """``explain_stream`` of every stream, by id."""
    return {s.stream_id: explain_stream(analyzer, s.stream_id)
            for s in analyzer.streams}


class TestAccountingIdentity:
    def test_slots_sum_to_interference_on_paper_example(self, paper_analyzer):
        for sid, exp in explain_all(paper_analyzer).items():
            assert exp.upper_bound == COMPUTED_U[sid]
            assert sum(c.busy_slots for c in exp.contributions) == \
                exp.interference
            assert exp.interference == exp.upper_bound - exp.latency

    def test_identity_with_paper_hp_override(
        self, paper_streams, xy10, paper_hp_override
    ):
        an = FeasibilityAnalyzer(
            paper_streams, xy10, hp_override=paper_hp_override
        )
        for sid, exp in explain_all(an).items():
            assert exp.upper_bound == PAPER_EXAMPLE_U[sid]
            assert sum(c.busy_slots for c in exp.contributions) == \
                exp.interference == exp.upper_bound - exp.latency

    @pytest.mark.parametrize("seed", range(8))
    def test_identity_on_fuzzed_problems(self, seed):
        case = generate_case(seed, GeneratorConfig(max_streams=6))
        _, routing, streams = case.build()
        an = FeasibilityAnalyzer(streams, routing, backend=replace(
            KIM98, residency_margin=case.residency_margin))
        for exp in explain_all(an).values():
            assert sum(c.busy_slots for c in exp.contributions) == \
                exp.interference
            if exp.upper_bound > 0:
                assert exp.interference == exp.upper_bound - exp.latency


class TestExplanationContent:
    def test_m4_breakdown(self, paper_analyzer):
        exp = explain_stream(paper_analyzer, 4)
        by_id = {c.stream_id: c for c in exp.contributions}
        assert set(by_id) == {0, 1, 2, 3}
        assert by_id[2].mode == "DIRECT" and by_id[3].mode == "DIRECT"
        assert by_id[0].mode == "INDIRECT"
        assert by_id[0].intermediates == (2, 3)
        # Modify_Diagram releases one instance each of M0 and M1.
        released = {(r.stream_id, r.index) for r in exp.released}
        assert released == {(0, 2), (1, 3)}
        assert by_id[0].removed_instances == 1
        assert by_id[1].removed_instances == 1
        assert max(exp.contributions, key=lambda c: c.busy_slots) is by_id[3]

    def test_m4_breakdown_with_paper_hp_override(
        self, paper_streams, xy10, paper_hp_override
    ):
        """Section 4.4 as printed: U = 33 = L (10) + 23 attributed slots,
        with Modify_Diagram's releases of M0 and M1 visible."""
        an = FeasibilityAnalyzer(paper_streams, xy10,
                                 hp_override=paper_hp_override)
        exp = explain_stream(an, 4)
        assert (exp.upper_bound, exp.latency, exp.interference) == \
            (33, 10, 23)
        by_id = {c.stream_id: c for c in exp.contributions}
        assert by_id[0].removed_instances == 2
        assert by_id[1].removed_instances == 1
        assert by_id[0].mode == "INDIRECT" and by_id[3].mode == "DIRECT"
        text = render_explanation(exp)
        assert "U = 33" in text and "INDIRECT" in text

    def test_highest_priority_stream_has_no_interference(
        self, paper_analyzer
    ):
        exp = explain_stream(paper_analyzer, 0)
        assert exp.contributions == ()
        assert exp.interference == 0
        assert exp.upper_bound == exp.latency == 7
        assert exp.busy_timeline == ()

    def test_to_spec_round_trips_json(self, paper_analyzer):
        exp = explain_stream(paper_analyzer, 4)
        spec = json.loads(json.dumps(exp.to_spec()))
        assert spec["upper_bound"] == 37
        assert spec["interference"] == 27
        assert sum(c["busy_slots"] for c in spec["contributions"]) == 27
        assert spec["contributions"][0]["intervals"] == [[13, 15], [20, 20],
                                                         [23, 27]]

    def test_render_without_analyzer_skips_diagram(self, paper_analyzer):
        exp = explain_stream(paper_analyzer, 4)
        text = render_explanation(exp)
        assert "timing diagram" not in text
        assert "M4: U = 37 = L (10) + interference (27)" in text

    def test_lone_stream_renders_no_interferers(self, mesh10, xy10):
        s = MessageStream(0, mesh10.node_xy(0, 0), mesh10.node_xy(4, 0),
                          priority=1, period=100, length=5, deadline=100)
        exp = explain_stream(FeasibilityAnalyzer(StreamSet([s]), xy10), 0)
        assert exp.upper_bound == 8 == exp.latency
        assert exp.contributions == ()
        assert "(no interfering streams)" in render_explanation(exp)

    def test_contributions_ordered_by_busy_slots(self, mesh10, xy10):
        """The dominant blocker comes first: contributions sort by busy
        slots, descending, ties by id."""
        row = [mesh10.node_xy(x, 0) for x in range(7)]
        streams = StreamSet([
            MessageStream(0, row[0], row[4], priority=3, period=20,
                          length=10, deadline=100),
            MessageStream(1, row[1], row[5], priority=2, period=200,
                          length=2, deadline=200),
            MessageStream(2, row[2], row[6], priority=1, period=400,
                          length=6, deadline=400),
        ])
        exp = explain_stream(FeasibilityAnalyzer(streams, xy10), 2)
        assert [c.stream_id for c in exp.contributions] == [0, 1]
        assert exp.contributions[0].busy_slots > \
            exp.contributions[1].busy_slots

    def test_unbounded_attribution_over_horizon(self, mesh10, xy10):
        """Past the horizon the whole horizon is attributed: M0 saturates
        M1's path, so every slot is M0's."""
        row = [mesh10.node_xy(x, 0) for x in range(6)]
        streams = StreamSet([
            MessageStream(0, row[0], row[4], priority=2, period=10,
                          length=10, deadline=100),
            MessageStream(1, row[1], row[5], priority=1, period=100,
                          length=5, deadline=100),
        ])
        exp = explain_stream(FeasibilityAnalyzer(streams, xy10), 1,
                             horizon=200)
        assert exp.upper_bound == -1
        assert exp.horizon == exp.window_end == 200
        assert exp.contributions[0].busy_slots == 200 == exp.interference
        assert "exceeds horizon 200" in render_explanation(exp)


class TestExplainCli:
    def test_golden_m4(self, capsys):
        assert main(["explain", str(PAPER_PROBLEM), "4"]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN_DIR / "explain_m4.txt").read_text()

    def test_json_output(self, capsys):
        assert main(["explain", str(PAPER_PROBLEM), "4", "--json"]) == 0
        spec = json.loads(capsys.readouterr().out)
        assert spec["upper_bound"] == 37 and spec["feasible"] is True
        assert sum(c["busy_slots"] for c in spec["contributions"]) == \
            spec["interference"]

    def test_no_diagram_flag(self, capsys):
        assert main(["explain", str(PAPER_PROBLEM), "4",
                     "--no-diagram"]) == 0
        assert "timing diagram" not in capsys.readouterr().out

    def test_infeasible_stream_exit_one(self, tmp_path, capsys):
        spec = {
            "topology": {"type": "mesh", "width": 10, "height": 10},
            "streams": [
                {"id": 0, "src": [0, 0], "dst": [5, 0], "priority": 2,
                 "period": 100, "length": 10, "deadline": 50},
                {"id": 1, "src": [1, 0], "dst": [6, 0], "priority": 1,
                 "period": 20, "length": 18, "deadline": 4},
            ],
        }
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(spec))
        assert main(["explain", str(path), "1"]) == 1
        out = capsys.readouterr().out
        assert "infeasible" in out or "bound exceeds horizon" in out

    def test_unknown_stream_exit_two(self, capsys):
        assert main(["explain", str(PAPER_PROBLEM), "9"]) == 2
        assert "no stream 9" in capsys.readouterr().err

    def test_missing_file_exit_four(self, tmp_path, capsys):
        assert main(["explain", str(tmp_path / "nope.json"), "0"]) == 4

    def test_malformed_json_exit_three(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["explain", str(path), "0"]) == 3
