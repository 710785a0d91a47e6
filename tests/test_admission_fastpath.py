"""The PR 6 admission fast path: every shortcut must be invisible.

Four optimisation layers ride the admission path — the routing's path memo,
reach-delta HP maintenance, the dependency-sparse row refill of
``Modify_Diagram`` and the adaptive-horizon bitset diagram. These tests
pin the only contract any of them is allowed to have: the observed
decisions and report specs are byte-identical to the from-scratch
reference engine's, including after a chaos ``cache_storm``; a sparsely
refilled diagram equals one generated from scratch; the bitset row fill
agrees bit for bit with the paper's literal scan; and the window-wise
release test agrees with the per-instance rule.
"""

import dataclasses
import hashlib
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import backends, timing_diagram
from repro.core.feasibility import FeasibilityAnalyzer
from repro.core.modify import modify_diagram, releasable_instances
from repro.core.streams import MessageStream
from repro.core.timing_diagram import (
    TimingDiagram,
    generate_init_diagram,
    refill_rows,
)
from repro.io import report_to_spec
from repro.service.engine import IncrementalAdmissionEngine
from repro.topology.mesh import Mesh2D
from repro.topology.routing import XYRouting
from tests.reference import ReferenceEngine, fill_masks_scan
from tests.reference.diagram import erased_init_diagram
from tests.test_properties import XY, stream_sets

MESH_W = MESH_H = 6


def fuzz_trace(seed=0, ops=220, target_live=12):
    """A deterministic admit/release churn trace on the 6x6 mesh."""
    mesh = Mesh2D(MESH_W, MESH_H)
    rng = random.Random(seed)

    def draw(sid):
        while True:
            src = rng.randrange(mesh.num_nodes)
            dst = rng.randrange(mesh.num_nodes)
            if src != dst:
                break
        period = rng.randint(40, 200)
        return MessageStream(
            sid, src, dst,
            priority=rng.randint(1, 8), period=period,
            length=rng.randint(1, 6),
            deadline=rng.randint(period // 4, period),
        )

    trace, live, next_id = [], [], 0
    for _ in range(ops):
        if live and (len(live) >= target_live or rng.random() < 0.5):
            trace.append(("release", live.pop(rng.randrange(len(live)))))
        else:
            trace.append(("admit", draw(next_id)))
            live.append(next_id)
            next_id += 1
    return trace


def replay_digest(engine, trace):
    """Replay the trace; return a SHA-256 over every decision + report."""
    h = hashlib.sha256()
    for op, payload in trace:
        if op == "admit":
            d = engine.try_admit(payload)
            h.update(json.dumps(
                ["admit", payload.stream_id, d.admitted,
                 list(d.violations), report_to_spec(d.report)],
                sort_keys=True,
            ).encode())
        elif payload in engine.admitted:
            engine.release(payload)
            h.update(json.dumps(
                ["release", payload,
                 report_to_spec(engine.current_report())],
                sort_keys=True,
            ).encode())
    return h.hexdigest()


def fresh_engine(cls=IncrementalAdmissionEngine):
    return cls(XYRouting(Mesh2D(MESH_W, MESH_H)))


def row(sid, priority, period, length):
    return MessageStream(sid, 0, 1, priority=priority, period=period,
                         length=length, deadline=period)


@st.composite
def refill_cases(draw):
    """Rows (priority ties included), a horizon, a granularity, optional
    ``initial_removed`` seeds and a sequence of *growing* exclusions,
    each step touching one stream."""
    n = draw(st.integers(1, 12))
    dtime = draw(st.integers(4, 200))
    rows = sorted(
        (row(i, draw(st.integers(1, 4)), draw(st.integers(2, 60)),
             draw(st.integers(1, 6))) for i in range(n)),
        key=lambda s: (-s.priority, s.stream_id),
    )
    slot = draw(st.booleans())
    # Instance indices / slots may lie outside the diagram: both are
    # legal no-ops for the fill and must be for the refill.
    top = dtime + 3 if slot else dtime // 2 + 2
    batch = st.sets(st.integers(0, top), min_size=1, max_size=6)
    seeds = {} if slot else draw(st.dictionaries(
        st.integers(0, n - 1), batch, max_size=3))
    steps = draw(st.lists(
        st.tuples(st.integers(0, n - 1), batch), min_size=1, max_size=8))
    return tuple(rows), dtime, slot, seeds, steps


def assert_same_diagram(got, want, latencies):
    np.testing.assert_array_equal(got.to_grid(), want.to_grid())
    for r in range(got.num_rows):
        assert got.request_bits(r) == want.request_bits(r)
    for latency in latencies:
        assert got.upper_bound(latency) == want.upper_bound(latency)


@pytest.fixture()
def filled_rows(monkeypatch):
    """Row indices ``_fill_row`` is called for, in call order."""
    calls = []
    fill = timing_diagram._fill_row

    def counting(diagram, row, *args):
        calls.append(row)
        fill(diagram, row, *args)

    monkeypatch.setattr(timing_diagram, "_fill_row", counting)
    return calls


class TestSparseRefill:
    """``refill_rows`` touches only the rows a release can reach and
    still leaves exactly the diagram a from-scratch fill would."""

    @given(case=refill_cases())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_growing_exclusions_match_from_scratch(self, case):
        rows, dtime, slot, seeds, steps = case
        excl = {sid: set(idxs) for sid, idxs in seeds.items()}

        def from_scratch():
            if slot:
                return erased_init_diagram(99, rows, dtime, excl)
            return generate_init_diagram(99, rows, dtime, removed=excl)

        diagram = from_scratch()
        latencies = (1, 2, dtime // 2 + 1, dtime)
        for sid, idxs in steps:
            # Reading before the refill warms the per-row request
            # caches the refill has to invalidate (and only those).
            for r in range(diagram.num_rows):
                diagram.request_bits(r)
            excl.setdefault(sid, set()).update(idxs)
            refill_rows(
                diagram, {} if slot else excl,
                erased_slots=excl if slot else None,
                start_row=diagram.row_of(sid),
            )
            assert_same_diagram(diagram, from_scratch(), latencies)

    @given(streams=stream_sets(max_streams=8),
           fixpoint=st.booleans(), seeded=st.booleans())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_modify_result_is_its_own_from_scratch_diagram(
            self, streams, fixpoint, seeded):
        """Through ``modify_diagram`` (single pass and ``fixpoint=True``,
        with and without the ``tighter`` backend's ``initial_removed``
        seeds): the diagram it hands back equals a fresh fill with the
        exclusions it reports."""
        an = FeasibilityAnalyzer(streams, XY)
        for s in an.streams:
            hp = an.hp_sets[s.stream_id]
            seeds = {e.stream_id: {0} for e in hp} if seeded else None
            diagram, removed = modify_diagram(
                s, hp, an.streams, an.blockers, s.deadline,
                fixpoint=fixpoint, initial_removed=seeds,
            )
            assert_same_diagram(
                diagram,
                generate_init_diagram(
                    s.stream_id, diagram.row_streams, s.deadline,
                    removed=removed),
                (1, s.length, s.deadline),
            )

    def test_release_that_frees_nothing_below_stops_at_once(
            self, filled_rows):
        # Row 1's only window is fully covered by row 0: it waits on
        # every slot and allocates none, so removing it changes nothing
        # any lower row can see.
        rows = (row(0, 3, 4, 4), row(1, 2, 4, 2), row(2, 1, 4, 1),
                row(3, 1, 4, 1))
        diagram = generate_init_diagram(9, rows, 4)
        assert filled_rows == [0, 1, 2, 3]
        assert not diagram.allocated[1].any() and diagram.waiting[1].any()
        del filled_rows[:]
        refill_rows(diagram, {1: {0}}, start_row=1)
        assert filled_rows == [1]
        assert_same_diagram(
            diagram, generate_init_diagram(9, rows, 4, removed={1: {0}}),
            (1,))

    def test_change_passes_through_rows_it_misses(self, filled_rows):
        # Releasing row 0's second instance frees slots 11-12. Rows 1
        # and 2 were satisfied before slot 11 and never looked there;
        # row 3 is still hungry at slot 11 and is the only one refilled.
        rows = (row(0, 4, 10, 2), row(1, 3, 40, 1), row(2, 2, 40, 3),
                row(3, 1, 40, 30))
        diagram = generate_init_diagram(9, rows, 40)
        del filled_rows[:]
        refill_rows(diagram, {0: {1}}, start_row=0)
        assert filled_rows == [0, 3]
        assert diagram.allocated[3, 11] and diagram.allocated[3, 12]
        assert_same_diagram(
            diagram, generate_init_diagram(9, rows, 40, removed={0: {1}}),
            (1, 5))

    def test_erased_slot_still_counts_as_inspected(self, filled_rows):
        # Slot granularity. Row 1 waited on slot 1 and that slot is
        # erased from it, so its masks no longer show it; but its scan
        # did look there, and once row 0 gives slot 1 up, row 1 counts
        # a free slot earlier and no longer needs slot 4.
        rows = (row(0, 2, 10, 2), row(1, 1, 10, 2))
        diagram = erased_init_diagram(9, rows, 10, {1: {1}})
        assert diagram.allocated[1, 4]
        del filled_rows[:]
        erased = {0: {1}, 1: {1}}
        refill_rows(diagram, {}, erased_slots=erased, start_row=0)
        assert filled_rows == [0, 1]
        assert not diagram.allocated[1, 4]
        assert_same_diagram(
            diagram, erased_init_diagram(9, rows, 10, erased), (1, 2))

    def test_release_can_reach_the_last_row(self, filled_rows):
        # Each row allocates right behind the one above, so the two
        # freed slots shift every allocation, down to the last row.
        rows = tuple(row(i, 5 - i, 12, 2) for i in range(5))
        diagram = generate_init_diagram(9, rows, 12)
        last_before = diagram.allocated[4].copy()
        del filled_rows[:]
        refill_rows(diagram, {0: {0}}, start_row=0)
        assert filled_rows == [0, 1, 2, 3, 4]
        assert (diagram.allocated[4] != last_before).any()
        assert_same_diagram(
            diagram, generate_init_diagram(9, rows, 12, removed={0: {0}}),
            (1, 2))


class TestKnobByteIdentity:
    def test_every_escape_hatch_reproduces_the_default(self):
        """No shortcut may show: the digest over every decision and
        report equals the from-scratch reference engine's."""
        trace = fuzz_trace(seed=3)
        assert replay_digest(fresh_engine(), trace) == \
            replay_digest(fresh_engine(ReferenceEngine), trace)


class TestCacheStorm:
    def test_storm_recovers_bit_identical_and_rewarms(self):
        trace = fuzz_trace(seed=11, ops=120)
        engine = fresh_engine()
        for op, payload in trace:
            if op == "admit":
                engine.try_admit(payload)
            elif payload in engine.admitted:
                engine.release(payload)
        before = report_to_spec(engine.current_report())
        memo = engine.routing.route_memo
        live = {(s.src, s.dst) for s in engine.admitted}
        assert live <= memo.keys()
        for _ in range(3):
            misses = engine.stats.route_cache_misses
            engine.invalidate_caches()
            assert report_to_spec(engine.current_report()) == before
            # The storm emptied the routing's memo and the settle
            # refilled it with exactly the live pairs, each a miss.
            assert memo.keys() == live
            assert engine.stats.route_cache_misses - misses == len(live)
        assert engine.stats.forced_invalidations == 3


def to_bits(mask):
    """A boolean slot mask as the diagram's row int (bit t = slot t)."""
    return int.from_bytes(
        np.packbits(mask, bitorder="little").tobytes(), "little")


def fill_case(rng):
    """A random row against a random busy-from-above mask."""
    dtime = rng.choice((rng.randint(1, 40), rng.randint(41, 400),
                        rng.randint(1 << 12, 1 << 13)))
    period = rng.choice((rng.randint(1, 9), rng.randint(1, dtime),
                         rng.randint(dtime, dtime + 20)))
    # C may exceed the window: every window is then unsatisfied.
    length = rng.choice((rng.randint(1, 6), rng.randint(1, period + 3)))
    nwin = -(-dtime // period)
    skip = frozenset(rng.sample(range(nwin + 2), min(nwin + 2,
                                                     rng.randint(0, 3))))
    density = rng.choice((0.0, 0.1, 0.5, 0.9, 1.0))
    busy = np.zeros(dtime + 1, dtype=bool)
    busy[1:] = [rng.random() < density for _ in range(dtime)]
    return dtime, period, length, skip, busy


class TestKernelParity:
    """The bitset row fill against the paper's literal scan
    (``tests/reference/kernel.py``), arrays converted at the boundary."""

    def check(self, dtime, period, length, skip, busy):
        diagram = TimingDiagram(9, (row(0, 1, period, length),), dtime)
        timing_diagram._fill_row(diagram, 0, to_bits(busy), skip)
        alloc, wait = fill_masks_scan(
            busy, period, length, -(-dtime // period))
        for index in skip:
            alloc[index * period + 1 : (index + 1) * period + 1] = False
            wait[index * period + 1 : (index + 1) * period + 1] = False
        np.testing.assert_array_equal(diagram.allocated[0], alloc)
        np.testing.assert_array_equal(diagram.waiting[0], wait)

    def test_int_fill_matches_the_scan_on_fuzzed_rows(self):
        rng = random.Random(0)
        for _ in range(400):
            self.check(*fill_case(rng))

    @pytest.mark.parametrize("dtime", [(1 << 16) - 3, 1 << 16])
    def test_int_fill_matches_the_scan_on_long_horizons(self, dtime):
        rng = random.Random(dtime)
        busy = np.zeros(dtime + 1, dtype=bool)
        busy[1:] = [rng.random() < 0.6 for _ in range(dtime)]
        for period, length in ((5, 2), (13, 9), (997, 300),
                               (dtime // 3, 5000)):
            self.check(dtime, period, length, frozenset({1, 7}), busy)

    def test_windows_straddling_bytes_and_too_small_for_c(self):
        # Periods of 3, 5, 7 and 11 put window edges in every position
        # of a byte; C = 6 never fits a 3- or 5-slot window.
        for dtime in (7, 8, 9, 63, 64, 65):
            for period in (3, 5, 7, 11):
                busy = np.zeros(dtime + 1, dtype=bool)
                busy[2::3] = True
                self.check(dtime, period, 6, frozenset(), busy)
                self.check(dtime, period, 1, frozenset({0, 2}), busy)


class TestReleaseParity:
    def test_window_test_matches_the_per_instance_rule(self):
        """``releasable_instances`` reads whole windows off the row bits;
        the rule it implements is per record: an instance goes iff it
        occupies a slot and no intermediate requests any of them."""
        rng = random.Random(1)
        for _ in range(150):
            n = rng.randint(2, 8)
            dtime = rng.randint(4, 300)
            rows = tuple(sorted(
                (row(i, rng.randint(1, 4), rng.randint(2, 80),
                     rng.randint(1, 8)) for i in range(n)),
                key=lambda s: (-s.priority, s.stream_id)))
            removed = {rng.randrange(n): {rng.randrange(4)}}
            diagram = generate_init_diagram(99, rows, dtime, removed=removed)
            for k in range(n):
                others = [i for i in range(n) if i != k]
                inter = frozenset(rng.sample(others,
                                             rng.randint(1, len(others))))
                requested = 0
                for r in inter:
                    requested |= diagram.request_bits(diagram.row_of(r))
                want = tuple(
                    inst.index for inst in diagram.instances[k]
                    if inst.occupied()
                    and not any(requested >> t & 1 for t in inst.occupied())
                )
                assert releasable_instances(diagram, k, inter) == want


class TestAdaptiveHorizon:
    @given(streams=stream_sets(max_streams=6))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_adaptive_equals_deadline_horizon(self, streams):
        """The one horizon search equals a single diagram at its limit,
        under every backend: the deadline for ``cal_u``, ``max_horizon``
        for ``upper_bound``."""
        for name, use_modify in itertools.product(backends.names(),
                                                  (True, False)):
            an = FeasibilityAnalyzer(streams, XY, backend=dataclasses.replace(
                backends.get(name), use_modify=use_modify))
            for s in an.streams:
                fast = an.cal_u(s.stream_id)
                slow = an.cal_u(s.stream_id, horizon=s.deadline)
                assert fast.upper_bound == slow.upper_bound, name
                assert fast.feasible == slow.feasible, name
                assert fast.horizon == s.deadline
                assert an.upper_bound(s.stream_id, max_horizon=4096) == \
                    an.cal_u(s.stream_id, horizon=4096).upper_bound, name


class TestPhaseTimings:
    def test_stats_break_down_the_admission_path(self):
        trace = fuzz_trace(seed=5, ops=80)
        engine = fresh_engine()
        for op, payload in trace:
            if op == "admit":
                engine.try_admit(payload)
            elif payload in engine.admitted:
                engine.release(payload)
        st = engine.stats.to_dict()
        assert st["hp_rebuilt"] > 0
        # Every HP set comes from the maintained reach closures, one per
        # recomputed verdict; a memo hit builds none.
        assert st["hp_rebuilt"] == st["verdicts_recomputed"]
        assert st["route_cache_misses"] <= len({
            (p.src, p.dst) for op, p in trace if op == "admit"
        })
        for phase in ("route_seconds", "hp_seconds",
                      "diagram_seconds", "verdict_seconds"):
            assert st[phase] >= 0.0
        assert st["verdict_seconds"] >= st["diagram_seconds"]
