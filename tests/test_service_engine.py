"""Unit + property tests for the incremental admission engine.

The load-bearing property (ISSUE 3 acceptance): across a long fuzzed
admit/release trace, the incremental engine's decisions and reports are
**bit-identical** to full reanalysis — both to the engine's own full mode
(``REPRO_INCREMENTAL=0`` path) and to a from-scratch
:class:`FeasibilityAnalyzer` over the same admitted set.
"""

import random

import pytest

from repro.core.feasibility import FeasibilityAnalyzer
from repro.core.hpset import build_all_hp_sets
from repro.core.streams import MessageStream, StreamSet
from repro.errors import AnalysisError, StreamError
from repro.io import report_to_spec
from repro.service.engine import (
    IncrementalAdmissionEngine,
    incremental_enabled_default,
)
from repro.topology import Mesh2D, XYRouting


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
        eng = IncrementalAdmissionEngine(routing, incremental=True)
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
        eng = IncrementalAdmissionEngine(routing, incremental=True)
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
        eng = IncrementalAdmissionEngine(routing, incremental=True)
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
        eng = IncrementalAdmissionEngine(routing, incremental=True)
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
        eng = IncrementalAdmissionEngine(routing, incremental=True)
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

    def test_env_escape_hatch(self, setup, monkeypatch):
        _, routing = setup
        monkeypatch.setenv("REPRO_INCREMENTAL", "0")
        assert not incremental_enabled_default()
        assert not IncrementalAdmissionEngine(routing).incremental
        monkeypatch.setenv("REPRO_INCREMENTAL", "1")
        assert IncrementalAdmissionEngine(routing).incremental
        monkeypatch.delenv("REPRO_INCREMENTAL")
        assert IncrementalAdmissionEngine(routing).incremental

    def test_stats_counters(self, setup):
        mesh, routing = setup
        eng = IncrementalAdmissionEngine(routing, incremental=True)
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

    @pytest.mark.parametrize("incremental", [True, False])
    def test_reads_settle_to_the_live_answer(self, setup, incremental):
        mesh, routing = setup
        rng = random.Random(11)
        live = IncrementalAdmissionEngine(routing, incremental=incremental)
        lazy = IncrementalAdmissionEngine(routing, incremental=incremental)
        held = []
        for step in range(150):
            if held and rng.random() < 0.4:
                sid = held.pop(rng.randrange(len(held)))
                live.release(sid)
                lazy.retire(sid)
            else:
                stream = rand_stream(rng, live.fresh_id())
                if not live.try_admit(stream).admitted:
                    continue
                lazy.adopt(stream)
                held.append(stream.stream_id)
            if step % 40 == 0 and held:
                sid = rng.choice(held)
                assert lazy.verdict(sid) == live.verdict(sid)
                assert lazy.closure(sid) == live.closure(sid)
                assert lazy.stale == 0
        assert lazy.stale > 0
        assert lazy.current_report().verdicts == \
            live.current_report().verdicts
        assert lazy.stale == 0
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
        eng = IncrementalAdmissionEngine(routing, incremental=True)
        victim = ms(mesh, 0, (0, 0), (5, 0), priority=1, length=10,
                    period=500, deadline=15)
        eng.adopt(victim)
        aggressor = ms(mesh, 1, (1, 0), (5, 1), priority=2, length=30,
                       period=40, deadline=200)
        d = eng.try_admit(aggressor)
        assert not d.admitted and 0 in d.violations
        assert eng.current_report().success and eng.stale == 0

    @pytest.mark.parametrize("incremental", [True, False])
    def test_unroutable_request_leaves_nothing_behind(
        self, setup, incremental
    ):
        from repro.errors import RoutingError
        from repro.topology import FaultAwareRouting

        mesh, routing = setup
        eng = IncrementalAdmissionEngine(routing, incremental=incremental)
        corner = mesh.node_xy(0, 0)
        eng.apply_routing(FaultAwareRouting(routing, [
            (corner, mesh.node_xy(1, 0)), (corner, mesh.node_xy(0, 1)),
        ]))
        ok = ms(mesh, 0, (1, 1), (4, 1), priority=1)
        cut_off = ms(mesh, 1, (0, 0), (3, 0), priority=1)
        for mutate in (eng.try_admit, eng.adopt):
            with pytest.raises(RoutingError):
                mutate([ok, cut_off])
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
        inc = IncrementalAdmissionEngine(routing, incremental=True)
        full = IncrementalAdmissionEngine(routing, incremental=False)
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
            # Pin against a from-scratch analyzer periodically (each one
            # is a full O(n) reanalysis; every op would be quadratic).
            # Built under the engine's default backend so the pin holds
            # on the REPRO_ANALYSIS_BACKEND CI legs too.
            if op % 40 == 0 and len(inc.admitted):
                from repro.core import backends

                fresh = backends.get(inc.default_analysis).analyzer(
                    StreamSet(inc.admitted), routing
                ).determine_feasibility()
                assert fresh.verdicts == r1.verdicts, f"op {op}"
        # The incremental engine must actually have been incremental.
        assert inc.stats.verdicts_reused > inc.stats.verdicts_recomputed
        assert full.stats.verdicts_reused == 0

    def test_closures_track_full_mode(self, setup):
        mesh, routing = setup
        rng = random.Random(7)
        inc = IncrementalAdmissionEngine(routing, incremental=True)
        full = IncrementalAdmissionEngine(routing, incremental=False)
        live = []
        for _ in range(120):
            if live and rng.random() < 0.4:
                sid = live.pop(rng.randrange(len(live)))
                inc.release(sid)
                full.release(sid)
            else:
                sid = inc.fresh_id()
                full.fresh_id()
                stream = rand_stream(rng, sid)
                if inc.try_admit(stream).admitted:
                    live.append(sid)
                    full.try_admit(stream)
                else:
                    full.try_admit(stream)
            for sid2 in inc.admitted.ids():
                assert inc.closure(sid2) == full.closure(sid2)
