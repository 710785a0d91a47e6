"""Cross-module integration tests: the central soundness claim.

The paper's algorithm promises that ``U_i`` upper-bounds the transmission
delay of every message of stream ``i`` under flit-level preemptive priority
switching. These tests simulate random paper-style workloads from the
critical instant (all streams released together — the worst alignment the
analysis assumes) and assert that **no observed delay ever exceeds its
bound**, across seeds, arbitration of ties, priority-level counts, and
release phases.
"""

import pytest

from repro.analysis import inflate_periods
from repro.core.feasibility import FeasibilityAnalyzer
from repro.sim import PaperWorkload, WormholeSimulator, random_phases
from repro.topology import Mesh2D, XYRouting


@pytest.fixture(scope="module")
def net():
    mesh = Mesh2D(10, 10)
    return mesh, XYRouting(mesh)


def check_soundness(mesh, rt, streams, bounds, *, until, phases=None):
    sim = WormholeSimulator(mesh, rt, streams, warmup=0)
    stats = sim.simulate_streams(until, phases=phases)
    violations = []
    for sid in stats.stream_ids():
        u = bounds[sid]
        if u > 0 and stats.max_delay(sid) > u:
            violations.append((sid, stats.max_delay(sid), u))
    assert violations == [], f"bound violations: {violations}"
    return stats


class TestBoundSoundness:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_zero_phase_workloads(self, net, seed):
        mesh, rt = net
        wl = PaperWorkload(num_streams=12, priority_levels=3, seed=seed,
                           period_range=(200, 500))
        streams = wl.generate(mesh)
        result = inflate_periods(streams, rt, max_horizon=1 << 16)
        check_soundness(
            mesh, rt, result.streams, result.upper_bounds, until=10_000
        )

    @pytest.mark.parametrize("seed", [10, 11])
    def test_random_phase_workloads(self, net, seed):
        """The bound assumes the critical instant, so any other phase
        alignment must also be covered."""
        mesh, rt = net
        wl = PaperWorkload(num_streams=12, priority_levels=3, seed=seed,
                           period_range=(200, 500))
        streams = wl.generate(mesh)
        result = inflate_periods(streams, rt, max_horizon=1 << 16)
        check_soundness(
            mesh, rt, result.streams, result.upper_bounds, until=10_000,
            phases=random_phases(result.streams, seed=seed),
        )

    def test_single_priority_level(self, net):
        mesh, rt = net
        wl = PaperWorkload(num_streams=10, priority_levels=1, seed=5,
                           period_range=(300, 600))
        streams = wl.generate(mesh)
        result = inflate_periods(streams, rt, max_horizon=1 << 16)
        check_soundness(
            mesh, rt, result.streams, result.upper_bounds, until=10_000
        )

    def test_many_priority_levels(self, net):
        mesh, rt = net
        wl = PaperWorkload(num_streams=16, priority_levels=16, seed=6,
                           period_range=(200, 500))
        streams = wl.generate(mesh)
        result = inflate_periods(streams, rt, max_horizon=1 << 16)
        stats = check_soundness(
            mesh, rt, result.streams, result.upper_bounds, until=10_000
        )
        # With unique priorities the top stream can never be blocked.
        top = max(s.priority for s in result.streams)
        top_id = next(s.stream_id for s in result.streams
                      if s.priority == top)
        top_stream = result.streams[top_id]
        assert stats.max_delay(top_id) == result.upper_bounds[top_id] == \
            top_stream.latency or stats.max_delay(top_id) <= \
            result.upper_bounds[top_id]


class TestAdmissionIntegration:
    def test_admitted_jobs_meet_deadlines_in_simulation(self, net):
        """Admission control end to end: admit jobs until one is rejected,
        then verify by simulation that every admitted stream meets the
        deadline the controller guaranteed."""
        from tests.reference import AdmissionController
        from repro.core.streams import MessageStream

        mesh, rt = net
        ctrl = AdmissionController(rt)
        wl = PaperWorkload(num_streams=15, priority_levels=4, seed=9,
                           period_range=(150, 400), deadline_factor=1.0)
        requested = wl.generate(mesh)
        for s in requested:
            ctrl.try_admit(s)
        admitted = ctrl.admitted
        if len(admitted) == 0:
            pytest.skip("nothing admitted for this seed")
        sim = WormholeSimulator(mesh, rt, admitted, warmup=0)
        stats = sim.simulate_streams(8_000)
        for sid in stats.stream_ids():
            assert stats.max_delay(sid) <= admitted[sid].deadline


class TestAnalysisSimulationAgreement:
    def test_unblockable_streams_measure_exactly_their_bound(self, net):
        """Streams whose HP set is empty have U = L, and the simulation
        must measure exactly L for every one of their messages."""
        mesh, rt = net
        wl = PaperWorkload(num_streams=12, priority_levels=12, seed=12,
                           period_range=(300, 600))
        streams = wl.generate(mesh)
        an = FeasibilityAnalyzer(streams, rt)
        sim = WormholeSimulator(mesh, rt, an.streams, warmup=0)
        stats = sim.simulate_streams(8_000)
        for s in an.streams:
            if len(an.hp_sets[s.stream_id]) == 0:
                st = stats.stream_stats(s.stream_id)
                assert st.minimum == st.maximum == s.latency
