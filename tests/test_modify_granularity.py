"""Tests for the slot-granular Modify_Diagram variant.

The paper's prose releases individual *slots* while its example releases
whole *instances*; both readings are implemented (see repro.core.modify).
Key invariant: slot granularity is never looser than instance granularity
(any instance-level release is the union of its slot-level releases).
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.core.backends import KIM98
from repro.core.feasibility import FeasibilityAnalyzer
from repro.core.hpset import HPEntry, HPSet
from repro.core.modify import modify_diagram, releasable_slots
from repro.core.streams import MessageStream, StreamSet
from repro.core.timing_diagram import generate_init_diagram
from repro.errors import AnalysisError
from tests.test_properties import XY, stream_sets
from tests.test_reference_equivalence import modify_cases


def ms(i, priority, period, length):
    return MessageStream(i, 0, 1, priority=priority, period=period,
                         length=length, deadline=period)


class TestReleasableSlots:
    def test_requires_intermediates(self):
        d = generate_init_diagram(9, (ms(0, 2, 10, 2),), 20)
        with pytest.raises(AnalysisError):
            releasable_slots(d, 0, frozenset())

    def test_slots_are_superset_of_released_instances(self):
        rows = (ms(0, 2, 10, 2), ms(1, 1, 40, 3))
        d = generate_init_diagram(9, rows, 40)
        from repro.core.modify import releasable_instances

        slots = set(int(t) for t in releasable_slots(d, 0, frozenset({1})))
        for idx in releasable_instances(d, 0, frozenset({1})):
            inst = d.instances[0][idx]
            assert set(inst.occupied()).issubset(slots)


class TestGranularityComparison:
    def test_fig6_same_result(self):
        """On the paper's Fig. 6 every release is whole-instance anyway."""
        owner = ms(4, 0, 100, 6)
        streams = StreamSet([ms(1, 3, 10, 2), ms(2, 2, 15, 3),
                             ms(3, 1, 13, 4), owner])
        hp = HPSet(4, [HPEntry.indirect(1, [2]), HPEntry.indirect(2, [3]),
                       HPEntry.direct(3)])
        blockers = {4: (3,), 3: (2,), 2: (1,), 1: ()}
        inst, _ = modify_diagram(owner, hp, streams, blockers, 30,
                                 granularity="instance")
        slot, _ = modify_diagram(owner, hp, streams, blockers, 30,
                                 granularity="slot")
        assert inst.upper_bound(6) == slot.upper_bound(6) == 22

    def test_unknown_granularity_rejected(self):
        owner = ms(4, 0, 100, 6)
        streams = StreamSet([ms(1, 3, 10, 2), owner])
        hp = HPSet(4, [HPEntry.direct(1)])
        with pytest.raises(AnalysisError):
            modify_diagram(owner, hp, streams, {4: (1,), 1: ()}, 30,
                           granularity="flit")

    @given(case=modify_cases())
    @settings(max_examples=80, deadline=None)
    def test_slot_never_looser(self, case):
        streams, blockers, hps = case
        for owner in streams:
            hp = hps[owner.stream_id]
            if not hp.indirect_ids():
                continue
            dtime = owner.deadline
            inst, _ = modify_diagram(owner, hp, streams, blockers, dtime,
                                     granularity="instance")
            slot, _ = modify_diagram(owner, hp, streams, blockers, dtime,
                                     granularity="slot")
            assert slot.num_free_slots() >= inst.num_free_slots()

    @given(streams=stream_sets(max_streams=6))
    @settings(max_examples=20, deadline=None)
    def test_analyzer_slot_bounds_never_looser(self, streams):
        a_inst = FeasibilityAnalyzer(streams, XY)
        a_slot = FeasibilityAnalyzer(
            streams, XY, backend=replace(KIM98, modify_granularity="slot"))
        for s in streams:
            u_i = a_inst.upper_bound(s.stream_id, max_horizon=1 << 13)
            u_s = a_slot.upper_bound(s.stream_id, max_horizon=1 << 13)
            if u_i > 0 and u_s > 0:
                assert u_s <= u_i


class TestSlotGranularityUnsound:
    """Finding F-6: the paper's literal per-slot prose over-releases.

    Replays the soundness-campaign counterexample (seed 1 of the
    high-interference regime, periods inflated to ``T := U`` under each
    granularity): the slot-granular bound is violated by the simulation
    while the instance-granular bound holds.
    """

    @pytest.fixture(scope="class")
    def observations(self):
        from repro.analysis import inflate_periods, observe
        from repro.sim import PaperWorkload
        from repro.topology import Mesh2D, XYRouting

        mesh = Mesh2D(10, 10)
        routing = XYRouting(mesh)
        drawn = PaperWorkload(
            num_streams=15, priority_levels=3, period_range=(100, 250),
            length_range=(8, 20), seed=1,
        ).generate(mesh)
        out = {}
        for granularity in ("instance", "slot"):
            inflation = inflate_periods(
                drawn, routing, backend=replace(
                    KIM98, modify_granularity=granularity,
                    residency_margin=1,
                ), max_horizon=1 << 16,
            )
            out[granularity] = observe(
                routing, inflation.streams, sim_time=5_000,
                bounds={granularity: inflation.upper_bounds},
                hp_ids=inflation.hp_ids,
            ).excesses(granularity)
        return out

    def test_instance_granularity_sound(self, observations):
        assert observations["instance"] == ()

    def test_slot_granularity_violated(self, observations):
        worst = max(observed - u for _, observed, u in observations["slot"])
        assert worst >= 10  # double-digit violation, not a margin effect
