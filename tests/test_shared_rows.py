"""Cheaper memo-miss verdicts: every shortcut must be invisible.

Four shortcuts ride a verdict the engine's memo misses:

* filled diagram rows are shared between diagrams
  (``generate_init_diagram(row_memo=...)``), keyed by the path of rows
  above and copied truncated to a shorter horizon; the engine's memo
  keeps the rows of its last two refreshes (``RowMemo.age``);
* ``releasable_instances`` stops ORing intermediates' requests as soon
  as they cover the indirect row;
* an ``HPSet`` caches its indirect ids, and ``hp_set_from_reach`` hands
  each member to the indirect elements it reaches in one pass;
* a ``MessageStream`` hashes its fields once, when it is made (the
  verdict-memo key hashes every member of a closure).

These tests hold each to the plain computation: one memo over a sequence
of diagrams (growing and shrinking horizons, skipped instances, inflated
lengths, aged between batches) against fresh fills, the release test
against the full window scan, and whole engine verdicts
(``removed_instances`` included) against analyzers that share nothing,
for every backend under X-Y and up*/down*, and a rolled-back id
admitting a new spec against a fresh analyzer.
The churn sweep runs 2 000 schedules nightly (``-m slow``).
"""

import contextlib
import dataclasses
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import backends, timing_diagram
from repro.core.feasibility import FeasibilityAnalyzer
from repro.core.hpset import HPEntry, HPSet
from repro.core.modify import releasable_instances
from repro.core.streams import MessageStream, StreamSet
from repro.core.timing_diagram import RowMemo, generate_init_diagram
from repro.errors import RoutingError
from repro.service.engine import IncrementalAdmissionEngine
from tests.reference import ShadowedEngine
from tests.reference.diagram import releasable_windows_scan
from tests.test_admission_fastpath import row
from tests.test_backends import temporary_backend
from tests.test_blocking_index import routing_for
from tests.test_import_cost import child_env

PROPERTY = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def by_priority(rows):
    return tuple(sorted(rows, key=lambda s: (-s.priority, s.stream_id)))


def draw_call(draw, pool):
    """One diagram over ``pool``: it keeps most rows (so prefixes recur),
    may inflate some lengths by a margin, skips a few instances and
    picks its own horizon."""
    rows = []
    for s in pool:
        if draw(st.integers(0, 3)) == 0:
            continue
        margin = draw(st.sampled_from((0, 0, 1, 2)))
        rows.append(dataclasses.replace(s, length=s.length + margin)
                    if margin else s)
    removed = {
        s.stream_id: draw(st.sets(st.integers(0, 4), min_size=1,
                                  max_size=2))
        for s in rows if draw(st.integers(0, 2)) == 0
    }
    return by_priority(rows), draw(st.integers(4, 160)), removed


@st.composite
def memo_sequences(draw):
    """A pool of rows and a sequence of diagrams over it, whose horizons
    both grow and shrink along the sequence."""
    n = draw(st.integers(1, 6))
    pool = [row(i, draw(st.integers(1, 3)), draw(st.integers(2, 40)),
                draw(st.integers(1, 6))) for i in range(n)]
    return [draw_call(draw, pool) for _ in range(draw(st.integers(2, 8)))]


@st.composite
def batch_sequences(draw):
    """Batches of diagrams over a pool whose rows share few periods and
    lengths, so that two rows' keys often differ only in the parent's
    key id."""
    n = draw(st.integers(2, 6))
    pool = [row(i, draw(st.integers(1, 3)), draw(st.sampled_from((6, 9, 14))),
                draw(st.integers(1, 3))) for i in range(n)]
    return [[draw_call(draw, pool) for _ in range(draw(st.integers(1, 2)))]
            for _ in range(draw(st.integers(2, 4)))]


def counting_fills(monkeypatch):
    """The row index of every ``_fill_row`` call from now on, in order."""
    fills = []
    fill = timing_diagram._fill_row
    monkeypatch.setattr(timing_diagram, "_fill_row",
                        lambda d, r, *a: fills.append(r) or fill(d, r, *a))
    return fills


def assert_same_rows(got, want):
    assert got.alloc_bits == want.alloc_bits
    assert got.wait_bits == want.wait_bits
    assert got._row_skip == want._row_skip
    assert dict(got.instances) == dict(want.instances)
    for latency in (1, 2, got.dtime // 2 + 1, got.dtime):
        assert got.upper_bound(latency) == want.upper_bound(latency)


class TestRowMemo:
    @given(calls=memo_sequences())
    @PROPERTY
    def test_one_memo_serves_a_sequence_of_diagrams(self, calls):
        """Every diagram drawn through one memo equals a fresh fill."""
        memo = RowMemo()
        for rows, dtime, removed in calls:
            got = generate_init_diagram(99, rows, dtime, removed=removed,
                                        row_memo=memo)
            assert_same_rows(
                got, generate_init_diagram(99, rows, dtime, removed=removed))

    @given(batches=batch_sequences())
    @PROPERTY
    def test_an_aged_memo_serves_every_later_diagram(self, batches):
        """Aged between batches, as the engine ages it after a refresh,
        the memo still hands every diagram a fresh fill's rows."""
        memo = RowMemo()
        for calls in batches:
            for rows, dtime, removed in calls:
                got = generate_init_diagram(99, rows, dtime, removed=removed,
                                            row_memo=memo)
                assert_same_rows(got, generate_init_diagram(
                    99, rows, dtime, removed=removed))
            memo.age()

    def test_a_dropped_row_never_lends_its_id(self):
        """Row ``b`` stored under ``a``'s id must not be found under a
        row that is new in a later batch. An id taken from the size of
        the current generation repeats ``a``'s in the first sequence,
        one from the size of all three in the second, once ``x`` has
        been dropped; a counter repeats none."""
        a, c, b = row(0, 3, 7, 2), row(1, 3, 9, 3), row(2, 1, 30, 5)
        x = (row(10, 5, 6, 1), row(11, 5, 8, 1), row(12, 5, 14, 2))
        s = row(3, 4, 11, 1)
        for batches in ([(a, b)], [(c, b)]), ([x], [(a, b)], [],
                                              [(s, c, b)]):
            memo = RowMemo()
            for batch in batches:
                for rows in batch:
                    got = generate_init_diagram(9, rows, 40, row_memo=memo)
                    assert_same_rows(got, generate_init_diagram(9, rows, 40))
                memo.age()

    def test_a_row_survives_one_unused_batch(self, monkeypatch):
        fills = counting_fills(monkeypatch)
        ab = (row(0, 3, 7, 2), row(2, 1, 30, 5))
        c = (row(1, 3, 9, 3),)
        memo = RowMemo()
        for batch in (ab, c, ab, c, (), ab):
            if batch:
                generate_init_diagram(9, batch, 40, row_memo=memo)
            memo.age()
        # `ab` is filled, kept through `c`'s batch and hit; `c` likewise.
        # Unused in the empty batch and the one before it, `ab` is gone.
        assert fills == [0, 1, 0, 0, 1]
        assert (len(memo.rows), len(memo.last), len(memo.earlier)) == (0, 2, 0)

    def test_a_hit_is_copied_and_a_shorter_one_refilled(self, monkeypatch):
        fills = counting_fills(monkeypatch)
        rows = (row(0, 3, 7, 2), row(1, 2, 9, 3), row(2, 1, 30, 5))
        memo = RowMemo()
        generate_init_diagram(9, rows, 40, row_memo=memo)
        assert fills == [0, 1, 2]
        # Shorter horizon, same path: every row is a truncated copy.
        generate_init_diagram(9, rows, 25, row_memo=memo)
        assert fills == [0, 1, 2]
        # Row 1 skips an instance: it and the rows below take new paths.
        generate_init_diagram(9, rows, 25, removed={1: {0}}, row_memo=memo)
        assert fills == [0, 1, 2, 1, 2]
        # Longer than anything stored: every row is refilled.
        generate_init_diagram(9, rows, 60, row_memo=memo)
        assert fills == [0, 1, 2, 1, 2, 0, 1, 2]


@st.composite
def release_cases(draw):
    """A diagram, an indirect row and intermediates. With a *hog* (a
    lowest-priority row wanting every slot of its windows) among the
    intermediates every occupied slot is requested; without, windows of
    the indirect row may be releasable."""
    n = draw(st.integers(2, 8))
    dtime = draw(st.integers(4, 200))
    rows = [row(i, draw(st.integers(2, 5)), draw(st.integers(2, 80)),
                draw(st.integers(1, 8))) for i in range(n)]
    if draw(st.booleans()):
        period = draw(st.integers(2, 80))
        rows.append(row(n, 1, period, period))
    removed = {draw(st.integers(0, n - 1)): {draw(st.integers(0, 3))}}
    diagram = generate_init_diagram(99, by_priority(rows), dtime,
                                    removed=removed)
    ids = [s.stream_id for s in rows]
    k = draw(st.sampled_from(ids))
    inter = draw(st.sets(st.sampled_from([i for i in ids if i != k]),
                         min_size=1))
    return diagram, k, inter


class TestReleaseEarlyExit:
    @given(case=release_cases())
    @PROPERTY
    def test_equals_the_window_scan(self, case):
        diagram, k, inter = case
        assert releasable_instances(diagram, k, inter) == \
            releasable_windows_scan(diagram, k, inter)


def test_indirect_ids_follow_adds():
    hp = HPSet(0, (HPEntry.direct(1), HPEntry.indirect(3, {1})))
    assert hp.indirect_ids() == (3,)
    hp.add(HPEntry.indirect(2, {1}))
    assert hp.indirect_ids() == (2, 3)


def draw_stream(rng, sid, nodes, levels):
    src, dst = rng.sample(range(nodes), 2)
    period = rng.randint(30, 120)
    return MessageStream(sid, src, dst, priority=rng.randint(1, levels),
                         period=period, length=rng.randint(1, 8),
                         deadline=rng.randint(period // 2, period))


@contextlib.contextmanager
def backends_at_margin(margin):
    """The registered backends' names or, for a positive ``margin``, the
    names of their twins at that residency margin, registered for the
    block."""
    with contextlib.ExitStack() as stack:
        yield tuple(
            stack.enter_context(temporary_backend(dataclasses.replace(
                backends.get(name), name=f"{name}-margin{margin}",
                refines=None, residency_margin=margin,
            ))).name if margin else name
            for name in backends.names()
        )


class TestRefreshSharesRows:
    @pytest.mark.parametrize("kind", ["xy", "updown"])
    def test_backends_share_one_memo(self, kind):
        """The engine hands one memo to the analyzers of every backend
        in a refresh: the same owner's rows under ``kim98`` and under
        ``tighter`` (capped instances skipped) or ``buffered`` (lengths
        inflated) must not be mistaken for each other."""
        rng = random.Random(f"shared-rows-backends-{kind}")
        routing = routing_for(kind, 4)
        for _ in range(100):
            streams = StreamSet(
                draw_stream(rng, sid, 16, 2)
                for sid in range(rng.randint(2, 10)))
            memo = RowMemo()
            for name in backends.names():
                backend = backends.get(name)
                shared = FeasibilityAnalyzer(streams, routing, backend=backend)
                shared.row_memo = memo
                private = FeasibilityAnalyzer(streams, routing,
                                              backend=backend)
                for s in shared.streams:
                    assert shared.cal_u(s.stream_id) == \
                        private.cal_u(s.stream_id), name

    @pytest.mark.parametrize("kind", ["xy", "updown"])
    @pytest.mark.parametrize("seed", range(4))
    def test_one_refresh_equals_private_analyzers(self, kind, seed,
                                                  monkeypatch):
        """Adopted under every backend at once, the admitted set settles
        in one refresh, whose memo serves all of its diagrams; each
        verdict equals the one an analyzer of its own computes. Odd
        seeds run every backend at residency margin 1, through
        declarations registered for the test."""
        rng = random.Random(f"shared-rows-{kind}-{seed}")
        routing = routing_for(kind, 4)
        engine = IncrementalAdmissionEngine(routing)
        with backends_at_margin(seed % 2) as names:
            for sid in range(24):
                engine.adopt(draw_stream(rng, sid, 16, 1),
                             analysis=names[sid % len(names)])
            fills = counting_fills(monkeypatch)
            report = engine.current_report()
            shared = len(fills)
            del fills[:]
            for sid, got in report.verdicts.items():
                analyzer = FeasibilityAnalyzer(
                    engine.admitted, routing,
                    backend=backends.get(engine.analysis_of(sid)))
                assert got == analyzer.cal_u(sid), (kind, seed, sid)
        assert shared < len(fills), (shared, len(fills))


class TestReusedId:
    @pytest.mark.parametrize("change", [
        {"deadline": 60}, {"deadline": 60, "priority": 1},
    ])
    def test_a_rolled_back_id_decides_a_new_spec_afresh(self, change):
        """A rejected admit leaves verdict-memo entries and rows made
        for its spec. Once ``reset_next_id`` hands its id out again, a
        different spec under that id hits none of those verdicts and is
        decided as a fresh analyzer decides it."""
        routing = routing_for("xy", 4)
        engine = IncrementalAdmissionEngine(routing)
        rng = random.Random("reused-id")
        for sid in range(10):
            engine.try_admit(draw_stream(rng, sid, 16, 2))
        before = list(engine.admitted)
        mark = engine.next_id
        sid = engine.fresh_id()
        tight = MessageStream(sid, 0, 15, priority=2, period=60, length=4,
                              deadline=3)
        assert not engine.try_admit(tight).admitted
        engine.reset_next_id(mark)
        assert engine.fresh_id() == sid
        spec = dataclasses.replace(tight, **change)
        hits = engine.stats.verdict_memo_hits
        decision = engine.try_admit(spec)
        assert decision.admitted
        # Every dirty verdict's closure holds the new spec.
        assert engine.stats.verdict_memo_hits == hits
        want = FeasibilityAnalyzer(
            StreamSet([*before, spec]), routing,
            backend=backends.get(engine.default_analysis),
        ).determine_feasibility()
        assert decision.report == want


class TestStreamHash:
    def test_copies_hash_and_compare_field_wise(self):
        s = MessageStream(3, 0, 5, priority=2, period=40, length=3,
                          deadline=30)
        t = s.with_latency(7)
        same = MessageStream(3, 0, 5, priority=2, period=40, length=3,
                             deadline=30, latency=7)
        assert t == same and hash(t) == hash(same) and t != s
        for name, value in (("src", 1), ("dst", 6), ("priority", 1),
                            ("period", 41), ("length", 2),
                            ("deadline", 31), ("latency", 7)):
            other = dataclasses.replace(s, **{name: value})
            back = dataclasses.replace(other, **{name: getattr(s, name)})
            assert other != s and back == s and hash(back) == hash(s)
        assert {s: "s"}[dataclasses.replace(s)] == "s"
        assert pickle.loads(pickle.dumps(t)) == t

    def test_a_hash_does_not_depend_on_the_process(self):
        """Streams cross processes (``map_seeds`` results), carrying the
        hash made where they were built; it must be the one a stream
        built in the receiving process gets, latency unset included."""
        code = ("from repro.core.streams import MessageStream as M\n"
                "print(hash(M(3, 0, 5, 2, 40, 3, 30)))")
        done = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) == hash(MessageStream(3, 0, 5, 2, 40, 3, 30))


def churn(seed, *, kind, width=4, levels=2, ops=40):
    """A shadowed engine through ``ops`` random admits (each under a
    random backend) and releases; every op's verdicts are compared with
    the from-scratch reference engine's."""
    rng = random.Random(f"shared-rows-churn-{kind}-{seed}")
    eng = ShadowedEngine(IncrementalAdmissionEngine(routing_for(kind, width)))
    names = backends.names()
    for _ in range(ops):
        live = sorted(eng.admitted.ids())
        if live and rng.random() < 0.35:
            eng.release(rng.sample(live, rng.randint(1, min(2, len(live)))))
            continue
        batch = [draw_stream(rng, eng.fresh_id(), width * width, levels)
                 for _ in range(rng.randint(1, 2))]
        try:
            eng.try_admit(batch, analysis=rng.choice(names))
        except RoutingError:
            pass
    return eng


@pytest.mark.parametrize("kind", ["xy", "updown"])
def test_churn_against_the_reference(kind):
    compared = sum(churn(seed, kind=kind).compared for seed in range(6))
    assert compared > 200


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["xy", "updown"])
def test_churn_sweep_nightly(kind):
    for seed in range(1000):
        churn(seed, kind=kind, width=3 + seed % 3)
