"""End-to-end reproduction of the paper's section 4.4 worked example.

This is the calibration anchor of the whole reproduction: with the HP sets
exactly as printed in the paper, the pipeline must return
``U = (7, 8, 26, 20, 33)``, the initial (direct-only) diagram of ``HP_4``
must show exactly 7 free slots (Fig. 7), ``Modify_Diagram`` must remove the
2nd and 3rd instances of ``M_0`` and the 4th instance of ``M_1`` and compact
``M_3``'s first instance (Fig. 9).
"""

from dataclasses import replace

import pytest

from repro.core.backends import KIM98
from repro.core.feasibility import FeasibilityAnalyzer
from tests.conftest import PAPER_EXAMPLE_U


@pytest.fixture()
def analyzer(paper_streams, xy10, paper_hp_override):
    return FeasibilityAnalyzer(
        paper_streams, xy10, hp_override=paper_hp_override
    )


class TestSection44:
    def test_latencies_match_printed_values(self, paper_streams, xy10):
        # L = hops + C - 1 recovers every printed latency.
        expected = {0: 7, 1: 8, 2: 12, 3: 16, 4: 10}
        for sid, latency in expected.items():
            s = paper_streams[sid]
            hops = xy10.hop_count(s.src, s.dst)
            assert hops + s.length - 1 == latency == s.latency

    def test_final_upper_bounds(self, analyzer):
        report = analyzer.determine_feasibility()
        assert report.upper_bounds() == PAPER_EXAMPLE_U
        assert report.success

    def test_fig7_initial_diagram_has_seven_free_slots(
        self, paper_streams, xy10, paper_hp_override
    ):
        diagram, _ = FeasibilityAnalyzer(
            paper_streams, xy10, hp_override=paper_hp_override,
            backend=replace(KIM98, use_modify=False),
        ).diagram_for(4)
        assert diagram.num_free_slots() == 7
        # 7 < L_4 = 10: the direct-only diagram cannot guarantee M4.
        assert diagram.upper_bound(10) == -1

    def test_fig9_released_instances(self, analyzer):
        diagram, removed = analyzer.diagram_for(4)
        assert removed == {0: {1, 2}, 1: {3}}

    def test_fig9_m3_first_instance_compacted(self, analyzer):
        diagram, _ = analyzer.diagram_for(4)
        first = diagram.instances[3][0]
        # Released slots 16-19 (M0's removed instance) are reused; M3's
        # nine flits now occupy 13-20 and 23 instead of 13-15,20,23-27.
        assert first.allocated == (13, 14, 15, 16, 17, 18, 19, 20, 23)

    def test_fig9_bound(self, analyzer):
        diagram, _ = analyzer.diagram_for(4)
        assert diagram.upper_bound(10) == 33

    def test_all_bounds_within_deadlines(self, analyzer):
        report = analyzer.determine_feasibility()
        for sid, verdict in report.verdicts.items():
            assert verdict.feasible
            assert verdict.upper_bound <= verdict.stream.deadline

    def test_highest_priority_bound_is_latency(self, analyzer):
        # M0 (highest priority) can never be blocked: U_0 = L_0.
        assert analyzer.cal_u(0).upper_bound == 7

    def test_computed_hp_sets_differ_only_at_documented_spot(
        self, paper_streams, xy10, paper_hp_override
    ):
        """Without the override, the path-overlap rule adds M2 to HP_3 (a
        genuine overlap of the printed coordinates) which cascades into
        HP_4's intermediates; the resulting bounds differ only for M4."""
        computed = FeasibilityAnalyzer(paper_streams, xy10)
        report = computed.determine_feasibility()
        bounds = report.upper_bounds()
        assert bounds[0] == PAPER_EXAMPLE_U[0]
        assert bounds[1] == PAPER_EXAMPLE_U[1]
        assert bounds[2] == PAPER_EXAMPLE_U[2]
        # M3: M2's genuine path overlap (plus M0 indirectly through it)
        # raises the bound from the paper's 20 to 30.
        assert bounds[3] == 30
        # M4: the extra intermediate (M3) blocks the release of M0's second
        # instance, pushing the bound from 33 to 37.
        assert bounds[4] == 37

    def test_printed_hp3_is_unsound_for_printed_coordinates(
        self, mesh10, xy10, paper_streams, paper_hp_override
    ):
        """Reproduction finding: simulating the printed streams produces a
        delay for M3 above the paper's U_3 = 20 (M2 really blocks M3), so
        the printed HP_3 = {M1} cannot be correct for the printed
        coordinates. The overlap-derived bound (30) does hold."""
        from repro.sim import WormholeSimulator

        sim = WormholeSimulator(mesh10, xy10, paper_streams)
        stats = sim.simulate_streams(3_000)
        assert stats.max_delay(3) > 20
        assert stats.max_delay(3) <= 30


class TestSimulationAgainstExampleBounds:
    def test_observed_delays_never_exceed_bounds(
        self, mesh10, xy10, paper_streams, paper_hp_override
    ):
        """Soundness on the worked example: simulate the five streams from
        the critical instant and check every measured delay against the
        overlap-derived bounds (the printed HP_3 is unsound; see above)."""
        from repro.sim import WormholeSimulator

        analyzer = FeasibilityAnalyzer(paper_streams, xy10)
        bounds = analyzer.determine_feasibility().upper_bounds()
        sim = WormholeSimulator(mesh10, xy10, paper_streams)
        stats = sim.simulate_streams(3_000)
        for sid in stats.stream_ids():
            assert stats.max_delay(sid) <= bounds[sid], (
                f"stream {sid}: observed {stats.max_delay(sid)} "
                f"> U = {bounds[sid]}"
            )
