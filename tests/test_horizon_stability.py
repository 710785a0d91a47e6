"""Horizon-independence of the bound search.

``FeasibilityAnalyzer.upper_bound`` finds U with a busy-window-guessed
horizon plus a guard (every window containing a slot <= U must close
before the horizon, because Modify_Diagram decisions near a truncated
boundary can shift). These tests pin that logic: the searched bound must
equal the bound computed at a much larger horizon, across random
workloads and both Modify settings.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.backends import KIM98
from repro.core.feasibility import FeasibilityAnalyzer
from tests.test_properties import XY, stream_sets

BIG = 1 << 14


class TestHorizonStability:
    @given(streams=stream_sets(max_streams=6))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_search_matches_large_horizon(self, streams):
        an = FeasibilityAnalyzer(streams, XY)
        for s in an.streams:
            searched = an.upper_bound(s.stream_id, max_horizon=BIG)
            direct = an.cal_u(s.stream_id, horizon=BIG).upper_bound
            if searched > 0 and direct > 0:
                assert searched == direct
            elif direct > 0:
                # The search may give up earlier than BIG only if it
                # reached its cap; with the same cap it must agree.
                assert searched == direct

    @given(streams=stream_sets(max_streams=5))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_search_matches_large_horizon_without_modify(self, streams):
        an = FeasibilityAnalyzer(
            streams, XY, backend=replace(KIM98, use_modify=False))
        for s in an.streams:
            searched = an.upper_bound(s.stream_id, max_horizon=BIG)
            direct = an.cal_u(s.stream_id, horizon=BIG).upper_bound
            if direct > 0:
                assert searched == direct

    def test_paper_example_stable(self, paper_streams, xy10,
                                  paper_hp_override):
        an = FeasibilityAnalyzer(paper_streams, xy10,
                                 hp_override=paper_hp_override)
        for sid, expected in {0: 7, 1: 8, 2: 26, 3: 20, 4: 33}.items():
            assert an.upper_bound(sid) == expected
            assert an.cal_u(sid, horizon=BIG).upper_bound == expected
