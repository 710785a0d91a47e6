"""Unit + property tests for the incremental admission engine.

The load-bearing property (ISSUE 3 acceptance): across a long fuzzed
admit/release trace, the incremental engine's decisions and reports are
**bit-identical** to full reanalysis — the from-scratch reference engine
(``tests/reference/engine.py``), compared at every op.
"""

import random

import pytest

from repro.core.feasibility import FeasibilityAnalyzer
from repro.core.hpset import build_all_hp_sets
from repro.core.streams import MessageStream, StreamSet
from repro.errors import AnalysisError, StreamError
from repro.io import report_to_spec
from repro.service.engine import IncrementalAdmissionEngine
from repro.topology import Mesh2D, XYRouting
from tests.reference import ReferenceEngine, ShadowedEngine


@pytest.fixture()
def setup():
    mesh = Mesh2D(6, 6)
    return mesh, XYRouting(mesh)


def rand_stream(rng, sid, nodes=36, levels=5):
    src = rng.randrange(nodes)
    dst = rng.randrange(nodes)
    while dst == src:
        dst = rng.randrange(nodes)
    period = rng.randint(20, 60)
    return MessageStream(
        sid, src, dst, priority=rng.randint(1, levels), period=period,
        length=rng.randint(1, 6), deadline=rng.randint(12, period),
    )


def ms(mesh, sid, src, dst, priority, period=200, length=10, deadline=None):
    return MessageStream(
        sid, mesh.node_xy(*src), mesh.node_xy(*dst), priority=priority,
        period=period, length=length, deadline=deadline or period,
    )


class TestEngineBasics:
    def test_admit_and_report(self, setup):
        mesh, routing = setup
        eng = IncrementalAdmissionEngine(routing)
        d = eng.try_admit(ms(mesh, 0, (0, 0), (5, 0), priority=1))
        assert d.admitted and d.violations == ()
        assert len(eng.admitted) == 1
        assert eng.current_report().success

    def test_empty_report_trivial_success(self, setup):
        _, routing = setup
        eng = IncrementalAdmissionEngine(routing)
        report = eng.current_report()
        assert report.success and report.verdicts == {}

    def test_rejection_rolls_back_all_caches(self, setup):
        mesh, routing = setup
        eng = IncrementalAdmissionEngine(routing)
        victim = ms(mesh, 0, (0, 0), (5, 0), priority=1, length=10,
                    period=500, deadline=15)
        assert eng.try_admit(victim).admitted
        before = report_to_spec(eng.current_report())
        aggressor = ms(mesh, 1, (1, 0), (5, 1), priority=2, length=30,
                       period=40, deadline=200)
        d = eng.try_admit(aggressor)
        assert not d.admitted and 0 in d.violations
        assert len(eng.admitted) == 1
        assert report_to_spec(eng.current_report()) == before
        with pytest.raises(StreamError):
            eng.verdict(1)

    def test_batch_all_or_nothing(self, setup):
        mesh, routing = setup
        eng = IncrementalAdmissionEngine(routing)
        good = ms(mesh, 0, (0, 0), (5, 0), priority=1)
        bad = ms(mesh, 1, (0, 1), (5, 1), priority=1, deadline=2)
        assert not eng.try_admit([good, bad]).admitted
        assert len(eng.admitted) == 0

    def test_empty_and_duplicate_requests(self, setup):
        mesh, routing = setup
        eng = IncrementalAdmissionEngine(routing)
        with pytest.raises(AnalysisError):
            eng.try_admit([])
        assert eng.try_admit(ms(mesh, 0, (0, 0), (3, 0), priority=1)).admitted
        with pytest.raises(StreamError):
            eng.try_admit(ms(mesh, 0, (0, 1), (3, 1), priority=1))
        a = ms(mesh, 5, (0, 1), (3, 1), priority=1)
        b = ms(mesh, 5, (0, 2), (3, 2), priority=1)
        with pytest.raises(StreamError):
            eng.try_admit([a, b])

    def test_release_unknown_id_names_it(self, setup):
        mesh, routing = setup
        eng = IncrementalAdmissionEngine(routing)
        eng.try_admit(ms(mesh, 0, (0, 0), (3, 0), priority=1))
        with pytest.raises(StreamError, match=r"\[7\]"):
            eng.release([0, 7])
        # Atomic: the known id was not removed either.
        assert 0 in eng.admitted

    def test_fresh_id_monotonic_never_reuses(self, setup):
        mesh, routing = setup
        eng = IncrementalAdmissionEngine(routing)
        a = eng.fresh_id()
        assert eng.try_admit(ms(mesh, a, (0, 0), (3, 0), priority=1)).admitted
        eng.release(a)
        assert eng.fresh_id() > a
        # Explicitly requested ids advance the counter too.
        eng.try_admit(ms(mesh, 40, (0, 1), (3, 1), priority=1))
        eng.release(40)
        assert eng.fresh_id() > 40

    def test_closure_matches_fresh_hp_sets(self, setup):
        mesh, routing = setup
        eng = IncrementalAdmissionEngine(routing)
        streams = [
            ms(mesh, 0, (0, 0), (5, 0), priority=3, length=2),
            ms(mesh, 1, (2, 0), (2, 4), priority=2, length=2),
            ms(mesh, 2, (0, 2), (4, 2), priority=1, length=2),
        ]
        for s in streams:
            assert eng.try_admit(s).admitted
        fresh = build_all_hp_sets(
            StreamSet(eng.admitted), routing
        )
        for sid in eng.admitted.ids():
            assert eng.closure(sid) == fresh[sid].ids()
        with pytest.raises(StreamError):
            eng.closure(99)

    def test_stats_counters(self, setup):
        mesh, routing = setup
        eng = IncrementalAdmissionEngine(routing)
        eng.try_admit(ms(mesh, 0, (0, 0), (3, 0), priority=1))
        eng.try_admit(ms(mesh, 1, (0, 1), (3, 1), priority=1))
        eng.release(0)
        stats = eng.stats.to_dict()
        assert stats["ops"] == 3
        assert stats["admits"] == 2 and stats["releases"] == 1
        assert 0.0 <= stats["cache_hit_rate"] <= 1.0


class TestAdoptRetire:
    """The structural mutators: same validation and structures as
    ``try_admit`` / ``release``, verdicts only when someone reads."""

    @pytest.mark.parametrize("mixed", [True, False])
    def test_reads_settle_to_the_live_answer(self, setup, mixed):
        """The lazy engine's every read is also held to the from-scratch
        reference. ``mixed`` draws a backend per admit, so a settle
        groups its verdicts by backend; otherwise the whole set rides the
        single-backend path."""
        mesh, routing = setup
        rng = random.Random(11)
        live = IncrementalAdmissionEngine(routing)
        lazy = ShadowedEngine(IncrementalAdmissionEngine(routing))
        held = []
        for step in range(150):
            if held and rng.random() < 0.4:
                sid = held.pop(rng.randrange(len(held)))
                live.release(sid)
                lazy.retire(sid)
            else:
                stream = rand_stream(rng, live.fresh_id())
                backend = rng.choice(["kim98", "tighter"]) if mixed else None
                if not live.try_admit(stream, analysis=backend).admitted:
                    continue
                lazy.adopt(stream, analysis=backend)
                held.append(stream.stream_id)
            if step % 40 == 0 and held:
                sid = rng.choice(held)
                assert lazy.verdict(sid) == live.verdict(sid)
                assert lazy.closure(sid) == live.closure(sid)
                assert lazy.stale == 0
        assert lazy.stale > 0
        assert lazy.current_report().verdicts == \
            live.current_report().verdicts
        assert lazy.stale == 0 and lazy.compared >= 5
        # Four reads in 150 ops: far fewer verdicts than deciding each op.
        assert lazy.stats.verdicts_recomputed < live.stats.verdicts_recomputed

    def test_adopt_validates_like_try_admit(self, setup):
        mesh, routing = setup
        eng = IncrementalAdmissionEngine(routing)
        with pytest.raises(AnalysisError):
            eng.adopt([])
        with pytest.raises(AnalysisError, match="unknown analysis"):
            eng.adopt(ms(mesh, 0, (0, 0), (3, 0), priority=1),
                      analysis="no-such-backend")
        eng.adopt(ms(mesh, 4, (0, 0), (3, 0), priority=1))
        assert eng.next_id == 5
        with pytest.raises(StreamError, match=r"\[4\]"):
            eng.adopt(ms(mesh, 4, (0, 1), (3, 1), priority=1))
        with pytest.raises(StreamError, match=r"\[9\]"):
            eng.retire([4, 9])
        assert 4 in eng.admitted

    def test_adopt_makes_no_decision(self, setup):
        """An infeasible batch is applied as told; the report says so."""
        mesh, routing = setup
        eng = IncrementalAdmissionEngine(routing)
        eng.adopt(ms(mesh, 0, (0, 0), (5, 0), priority=1, deadline=2))
        assert eng.stats.verdicts_recomputed == 0
        report = eng.current_report()
        assert not report.success and report.infeasible_ids() == (0,)
        eng.retire(0)
        assert eng.current_report().success and eng.stale == 0

    def test_try_admit_decides_on_settled_verdicts(self, setup):
        mesh, routing = setup
        eng = IncrementalAdmissionEngine(routing)
        victim = ms(mesh, 0, (0, 0), (5, 0), priority=1, length=10,
                    period=500, deadline=15)
        eng.adopt(victim)
        aggressor = ms(mesh, 1, (1, 0), (5, 1), priority=2, length=30,
                       period=40, deadline=200)
        d = eng.try_admit(aggressor)
        assert not d.admitted and 0 in d.violations
        assert eng.current_report().success and eng.stale == 0

    @pytest.mark.parametrize("cut_off_first", [True, False])
    def test_unroutable_request_leaves_nothing_behind(
        self, setup, cut_off_first
    ):
        from repro.errors import RoutingError
        from repro.topology import FaultAwareRouting

        mesh, routing = setup
        eng = IncrementalAdmissionEngine(routing)
        corner = mesh.node_xy(0, 0)
        eng.apply_routing(FaultAwareRouting(routing, [
            (corner, mesh.node_xy(1, 0)), (corner, mesh.node_xy(0, 1)),
        ]))
        ok = ms(mesh, 0, (1, 1), (4, 1), priority=1)
        cut_off = ms(mesh, 1, (0, 0), (3, 0), priority=1)
        batch = [cut_off, ok] if cut_off_first else [ok, cut_off]
        for mutate in (eng.try_admit, eng.adopt):
            with pytest.raises(RoutingError):
                mutate(batch)
            assert len(eng.admitted) == 0 and eng.stale == 0
            assert eng.current_report().verdicts == {}


class TestPreparedAnalyzer:
    def test_from_prepared_matches_normal(self, setup):
        mesh, routing = setup
        rng = random.Random(3)
        streams = StreamSet(rand_stream(rng, i) for i in range(8))
        normal = FeasibilityAnalyzer(streams, routing)
        prepared = FeasibilityAnalyzer.from_prepared(
            normal.streams, normal.channels, normal.blockers,
            normal.hp_sets, routing=routing,
        )
        a = normal.determine_feasibility()
        b = prepared.determine_feasibility()
        assert a.verdicts == b.verdicts and a.success == b.success

    def test_from_prepared_validates_coverage(self, setup):
        mesh, routing = setup
        streams = StreamSet([ms(mesh, 0, (0, 0), (3, 0), priority=1)])
        normal = FeasibilityAnalyzer(streams, routing)
        with pytest.raises(AnalysisError, match="channels"):
            FeasibilityAnalyzer.from_prepared(
                normal.streams, {}, normal.blockers, normal.hp_sets
            )
        unresolved = StreamSet([ms(mesh, 0, (0, 0), (3, 0), priority=1)])
        with pytest.raises(AnalysisError, match="latency"):
            FeasibilityAnalyzer.from_prepared(
                unresolved, normal.channels, normal.blockers,
                normal.hp_sets,
            )


class TestFuzzedEquivalence:
    """ISSUE 3 acceptance: 500+ op fuzzed trace, bit-identical reports."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_incremental_vs_full_500_ops(self, setup, seed):
        mesh, routing = setup
        rng = random.Random(seed)
        inc = IncrementalAdmissionEngine(routing)
        full = ReferenceEngine(routing)
        live = []
        for op in range(520):
            if live and rng.random() < 0.45:
                sid = live.pop(rng.randrange(len(live)))
                inc.release(sid)
                full.release(sid)
            else:
                sid = inc.fresh_id()
                assert full.fresh_id() == sid
                stream = rand_stream(rng, sid)
                d1 = inc.try_admit(stream)
                d2 = full.try_admit(stream)
                assert d1.admitted == d2.admitted, f"op {op}"
                assert d1.violations == d2.violations, f"op {op}"
                assert d1.report.verdicts == d2.report.verdicts, f"op {op}"
                if d1.admitted:
                    live.append(sid)
            r1, r2 = inc.current_report(), full.current_report()
            assert r1.verdicts == r2.verdicts, f"op {op}"
            assert report_to_spec(r1) == report_to_spec(r2), f"op {op}"
        # The incremental engine must actually have been incremental.
        assert inc.stats.verdicts_reused > inc.stats.verdicts_recomputed

    def test_closures_track_full_mode(self, setup):
        """Reach-delta closures vs ``build_all_hp_sets`` from scratch."""
        mesh, routing = setup
        rng = random.Random(7)
        inc = IncrementalAdmissionEngine(routing)
        live = []
        for _ in range(120):
            if live and rng.random() < 0.4:
                inc.release(live.pop(rng.randrange(len(live))))
            else:
                sid = inc.fresh_id()
                if inc.try_admit(rand_stream(rng, sid)).admitted:
                    live.append(sid)
            if not live:
                continue
            fresh = build_all_hp_sets(StreamSet(inc.admitted), routing)
            for sid2 in inc.admitted.ids():
                assert inc.closure(sid2) == fresh[sid2].ids()
