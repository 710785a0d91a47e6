"""The blocking index against the section 4.1 oracle.

:class:`repro.core.hpset.BlockingIndex` is the one derivation of the
blocked-by relation and every HP set under ``src/repro``: the engine
keeps one by delta, ``build_all_hp_sets`` and every
``FeasibilityAnalyzer`` fill one for a whole set. These properties hold
it to ``tests/reference/hpset.py``, which derives the same structures
pair by pair, over random sets on 3x3..6x6 meshes under X-Y and
up*/down* routing, with one to four priority levels and gaps in the ids:
the bulk fill, an analyzer's ``blockers`` and ``hp_sets`` (with and
without ``hp_override``), and an index driven through adds, removes and
rolled-back trials. The sweep runs every backend's analyzer at
instance granularity in one sweep, at slot granularity and with the
fixpoint sweep, beside the one the oracle prepares: the verdict plan
each builds from the index is the one built from the oracle's HP set,
and the verdicts are equal. The nightly job runs it over 2 000 sets on
meshes up to 8x8 (``-m slow``).
"""

import random
from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import backends
from repro.core.feasibility import FeasibilityAnalyzer
from repro.core.hpset import (
    BlockingIndex,
    HPEntry,
    HPSet,
    build_all_hp_sets,
    stream_channels,
)
from repro.core.streams import MessageStream, StreamSet
from repro.topology import Mesh2D, XYRouting
from repro.topology.routing import UpDownRouting
from tests.reference.hpset import (
    direct_blockers,
    oracle_analyzer,
    oracle_hp_sets,
)

_ROUTINGS = {}


def routing_for(kind, width):
    """One routing object per (kind, width): up*/down* builds a BFS
    forest, so the draws share them."""
    key = (kind, width)
    if key not in _ROUTINGS:
        mesh = Mesh2D(width, width)
        _ROUTINGS[key] = (XYRouting if kind == "xy" else UpDownRouting)(mesh)
    return _ROUTINGS[key]


def stream(sid, src, dst, priority, period, length, deadline):
    return MessageStream(sid, src, dst, priority=priority, period=period,
                         length=length, deadline=deadline)


@st.composite
def cases(draw, max_width=6, max_streams=40):
    """A random stream set and its routing: ids unique, with gaps, in
    no particular order."""
    width = draw(st.integers(3, max_width))
    routing = routing_for(draw(st.sampled_from(("xy", "updown"))), width)
    levels = draw(st.integers(1, 4))
    n = draw(st.integers(1, max_streams))
    ids = draw(st.lists(st.integers(0, 3 * max_streams), min_size=n,
                        max_size=n, unique=True))
    nodes = st.integers(0, width * width - 1)
    streams = StreamSet()
    for sid in ids:
        src = draw(nodes)
        streams.add(stream(
            sid, src, draw(nodes.filter(lambda d: d != src)),
            draw(st.integers(1, levels)), draw(st.integers(20, 200)),
            draw(st.integers(1, 15)), draw(st.integers(50, 400)),
        ))
    return streams, routing


def random_case(rng, *, max_width, max_streams):
    """:func:`cases` drawn from a seeded ``random.Random``."""
    width = rng.randint(3, max_width)
    routing = routing_for(rng.choice(("xy", "updown")), width)
    levels = rng.randint(1, 4)
    n = rng.randint(1, max_streams)
    streams = StreamSet()
    for sid in rng.sample(range(3 * max_streams), n):
        src, dst = rng.sample(range(width * width), 2)
        streams.add(stream(sid, src, dst, rng.randint(1, levels),
                           rng.randint(20, 200), rng.randint(1, 15),
                           rng.randint(50, 400)))
    return streams, routing


PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestIndexMatchesOracle:
    @given(case=cases())
    @PROPERTY
    def test_build_all_hp_sets(self, case):
        streams, routing = case
        channels = stream_channels(streams, routing)
        want = oracle_hp_sets(streams, channels)
        assert build_all_hp_sets(streams, routing) == want
        assert build_all_hp_sets(streams, channels=channels) == want

    @given(case=cases(), data=st.data())
    @PROPERTY
    def test_analyzer_blockers_and_hp_sets(self, case, data):
        streams, routing = case
        override = None
        if data.draw(st.booleans(), label="override"):
            ids = sorted(streams.ids())
            owner = data.draw(st.sampled_from(ids), label="owner")
            members = data.draw(st.lists(st.sampled_from(ids), unique=True),
                                label="members")
            # The owner may list itself, as the paper prints HP sets.
            override = {owner: HPSet(owner, map(HPEntry.direct, members))}
        analyzer = FeasibilityAnalyzer(streams, routing,
                                       hp_override=override)
        oracle = oracle_analyzer(streams, routing)
        assert analyzer.channels == oracle.channels
        assert analyzer.blockers == oracle.blockers
        assert analyzer.blockers == direct_blockers(analyzer.streams,
                                                    analyzer.channels)
        want = dict(oracle.hp_sets)
        for owner, hp in (override or {}).items():
            want[owner] = hp.without_self()
        assert analyzer.hp_sets == want

    @given(case=cases(max_streams=24), data=st.data())
    @PROPERTY
    def test_index_kept_by_delta(self, case, data):
        """Adds, removes (closures recomputed as the engine does) and
        trials rolled back through the undo log leave the index equal
        to the oracle over the live set after every step."""
        streams, routing = case
        channels = stream_channels(streams, routing)
        index = BlockingIndex()
        live = StreamSet()
        for s in streams:
            if data.draw(st.booleans(), label="trial"):
                before = {j: set(r) for j, r in index.reach.items()}
                undo = {}
                index.add(s.stream_id, s.priority, channels[s.stream_id],
                          undo_reach=undo)
                index.remove(s.stream_id)
                index.restore(undo)
                assert index.reach == before
            index.add(s.stream_id, s.priority, channels[s.stream_id])
            live.add(s)
            victims = data.draw(st.lists(st.sampled_from(sorted(live.ids())),
                                         max_size=3, unique=True),
                                label="release")
            dirty = index.reverse_reachable(victims) - set(victims)
            for sid in victims:
                index.remove(sid)
                live.remove(sid)
            index.recompute_reach(dirty)
            live_channels = {sid: channels[sid] for sid in live.ids()}
            assert index.blockers == direct_blockers(live, live_channels)
            assert {sid: index.hp_set(sid) for sid in live.ids()} == \
                oracle_hp_sets(live, live_channels)


def declarations(name):
    """A registered backend and its twins at the three ``Modify_Diagram``
    settings: instance granularity in one sweep, slot granularity (which
    drops the FCFS cap: its windows are instances) and the fixpoint."""
    declared = backends.get(name)
    return (replace(declared, modify_fixpoint=False),
            replace(declared, modify_fixpoint=False, eqp_instance_cap=False,
                    modify_granularity="slot"),
            replace(declared, modify_fixpoint=True))


def plan_fields(plan):
    """A plan as comparable values (intermediates in any order)."""
    return (plan.owner, plan.rows, plan.util, plan.demand, plan.guard,
            plan.caps, plan.backend,
            [(row, sorted(ins)) for row, ins in plan.release])


def oracle_sweep(seed, sets, *, max_width, max_streams):
    """Every backend's analyzer against the oracle-prepared one over
    ``sets`` random sets: same blockers, HP sets, plans and verdicts."""
    rng = random.Random(f"oracle-sweep-{seed}")
    for _ in range(sets):
        streams, routing = random_case(rng, max_width=max_width,
                                       max_streams=max_streams)
        for name in backends.names():
            for declared in declarations(name):
                analyzer = FeasibilityAnalyzer(streams, routing,
                                               backend=declared)
                oracle = oracle_analyzer(streams, routing, backend=declared)
                assert analyzer.blockers == oracle.blockers
                assert analyzer.hp_sets == oracle.hp_sets
                for sid in streams.ids():
                    assert plan_fields(analyzer.plan(sid)) == \
                        plan_fields(oracle.plan(sid))
                assert analyzer.determine_feasibility().verdicts == \
                    oracle.determine_feasibility().verdicts


def test_oracle_sweep():
    oracle_sweep(0, 25, max_width=6, max_streams=16)


@pytest.mark.slow
def test_oracle_sweep_nightly():
    oracle_sweep(1, 2000, max_width=8, max_streams=24)
