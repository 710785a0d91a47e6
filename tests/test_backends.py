"""Backend-conformance suite for the pluggable bound backends.

Every registered backend must (i) reproduce or soundly bound the paper's
section 4.4 worked example, (ii) respect the F-7 closure-feasibility
condition (a set with an infeasible member is rejected wholesale), and
(iii) pass a shared property battery over mesh, torus and hypercube
topologies: determinism, verdict stamping, and the pairwise dominance
relations (``tighter`` never looser than ``kim98``, ``buffered`` never
tighter than ``kim98``). The fuzz-facing half proves the cross-backend
oracle actually *catches* a backend that violates its declared
refinement.
"""

import contextlib
import dataclasses
import random

import pytest

from repro.core import backends
from repro.core.backends import BoundBackend
from repro.core.feasibility import FeasibilityAnalyzer
from repro.core.streams import MessageStream, StreamSet
from repro.errors import AnalysisError
from repro.service.engine import IncrementalAdmissionEngine
from repro.topology import (
    ECubeRouting,
    Hypercube,
    Mesh2D,
    Torus,
    TorusDimensionOrderRouting,
    XYRouting,
)
from tests.conftest import PAPER_EXAMPLE_U


@contextlib.contextmanager
def temporary_backend(backend):
    """Register ``backend`` for the duration of a ``with`` block, so a
    synthetic backend (e.g. a deliberately unsound one the oracle must
    catch) does not leak into other tests."""
    backends.register(backend)
    try:
        yield backend
    finally:
        backends._REGISTRY.pop(backend.name, None)


ALL = backends.names()


def _bounds(backend_name, streams, routing, **kw):
    return FeasibilityAnalyzer(
        streams, routing, backend=backends.get(backend_name), **kw
    ).determine_feasibility()


class TestRegistry:
    def test_required_backends_registered(self):
        assert {"kim98", "tighter", "buffered"} <= set(ALL)
        assert len([n for n in ALL if n != "kim98"]) >= 2

    def test_kim98_is_first_and_default(self, monkeypatch):
        monkeypatch.delenv(backends.ENV_VAR, raising=False)
        assert ALL[0] == "kim98"
        assert backends.default_name() == "kim98"
        assert backends.resolve_name(None) == "kim98"

    def test_get_unknown_raises_with_known_names(self):
        with pytest.raises(AnalysisError, match="kim98"):
            backends.get("kim99")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(AnalysisError, match="already registered"):
            backends.register(backends.get("kim98"))

    def test_refines_must_exist(self):
        with pytest.raises(AnalysisError, match="unknown backend"):
            backends.register(BoundBackend(
                name="x", summary="s", citation="c", refines="nope"
            ))

    def test_temporary_backend_scoped(self):
        b = BoundBackend(name="scratch", summary="s", citation="c")
        with temporary_backend(b):
            assert backends.get("scratch") is b
        with pytest.raises(AnalysisError):
            backends.get("scratch")

    def test_env_default_honoured(self, monkeypatch):
        monkeypatch.setenv(backends.ENV_VAR, "tighter")
        assert backends.default_name() == "tighter"
        assert backends.resolve_name(None) == "tighter"

    def test_env_typo_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(backends.ENV_VAR, "khim98")
        with pytest.raises(AnalysisError, match="khim98"):
            backends.default_name()

    def test_analyzer_default_is_kim98_whatever_the_env_says(
        self, monkeypatch, paper_streams, xy10
    ):
        monkeypatch.setenv(backends.ENV_VAR, "buffered")
        analyzer = FeasibilityAnalyzer(paper_streams, xy10)
        assert analyzer.backend is backends.get("kim98")
        assert {v.backend for v in
                analyzer.determine_feasibility().verdicts.values()} == \
            {"kim98"}


class TestDeclarationValidation:
    """A declaration is checked once, when it is built: no bad rule
    reaches an analysis, whatever stream set it is used on."""

    def test_unknown_granularity_rejected(self):
        # The analyzer only reads the granularity for streams with
        # indirect HP members, so an analysis could not be relied on to
        # catch this one.
        with pytest.raises(AnalysisError, match="modify_granularity"):
            BoundBackend(name="x", summary="s", citation="c",
                         modify_granularity="bogus")

    def test_instance_cap_needs_instance_granularity(self):
        # The cap discharges whole instances; with slot granularity the
        # conflict used to surface only inside Modify_Diagram, in the
        # middle of an analysis that happened to have indirect members.
        with pytest.raises(AnalysisError, match="instance granularity"):
            dataclasses.replace(backends.get("tighter"),
                                modify_granularity="slot")

    @pytest.mark.parametrize("rule",
                             ["residency_margin", "interference_margin"])
    def test_negative_margin_rejected(self, rule):
        with pytest.raises(AnalysisError, match=rule):
            dataclasses.replace(backends.get("kim98"), **{rule: -1})

    def test_registered_declarations_carry_their_rules(self):
        tighter = backends.get("tighter")
        assert tighter.modify_fixpoint and tighter.eqp_instance_cap
        assert backends.get("buffered").interference_margin == 1
        # A replaced declaration keeps its name, hence its labels.
        variant = dataclasses.replace(tighter, residency_margin=1)
        assert variant.name == "tighter"
        assert variant.modify_fixpoint and variant.residency_margin == 1


class TestPaperExample:
    """The section 4.4 worked example (the paper's Table-5 stream set)."""

    @pytest.mark.parametrize("name", ALL)
    def test_verdicts_stamped_with_backend(
        self, name, paper_streams, xy10
    ):
        report = _bounds(name, paper_streams, xy10)
        assert {v.backend for v in report.verdicts.values()} == {name}

    @pytest.mark.parametrize("name", ["kim98", "tighter"])
    def test_exact_printed_bounds(
        self, name, paper_streams, xy10, paper_hp_override
    ):
        # kim98 reproduces the paper verbatim; tighter's refinements are
        # all no-ops on this set (distinct priorities, stable fixpoint),
        # so it must land on the identical bounds.
        report = _bounds(name, paper_streams, xy10,
                         hp_override=paper_hp_override)
        assert report.upper_bounds() == PAPER_EXAMPLE_U
        assert report.success

    def test_buffered_is_pessimistic_not_wrong(
        self, paper_streams, xy10, paper_hp_override
    ):
        kim = _bounds("kim98", paper_streams, xy10,
                      hp_override=paper_hp_override).upper_bounds()
        buf = _bounds("buffered", paper_streams, xy10,
                      hp_override=paper_hp_override).upper_bounds()
        for sid, u in buf.items():
            if u > 0:
                assert u >= kim[sid]
        # The margin may push a bound past the horizon (-1): allowed —
        # pessimism can only reject more, never admit more.

    @pytest.mark.parametrize("name", ALL)
    def test_bounds_dominate_simulation(self, name, mesh10, xy10,
                                        paper_streams):
        """Every backend's *finite computed-HP* bounds dominate the
        simulated worst case on the example (the printed HP_3 is unsound
        for the printed coordinates — see test_paper_example)."""
        from repro.sim import WormholeSimulator

        report = _bounds(name, paper_streams, xy10)
        bounds = report.upper_bounds()
        sim = WormholeSimulator(mesh10, xy10, paper_streams)
        stats = sim.simulate_streams(3_000)
        for sid in stats.stream_ids():
            if bounds[sid] > 0:
                assert stats.max_delay(sid) <= bounds[sid], (
                    f"[{name}] stream {sid}: observed "
                    f"{stats.max_delay(sid)} > U = {bounds[sid]}"
                )


class TestClosureFeasibility:
    """F-7: a bound is only meaningful when the whole HP closure is
    feasible, so a set with an infeasible member must be rejected
    wholesale — under every backend."""

    def _pair(self, mesh):
        # A: hopeless deadline (latency 14 > D 2). B: trivially feasible
        # alone, but shares A's row channels so A is in B's HP closure.
        a = MessageStream(0, mesh.node_xy(0, 0), mesh.node_xy(5, 0),
                          priority=1, period=100, length=10, deadline=2)
        b = MessageStream(1, mesh.node_xy(0, 0), mesh.node_xy(5, 0),
                          priority=2, period=100, length=2, deadline=100)
        return a, b

    @pytest.mark.parametrize("name", ALL)
    def test_report_rejects_set_with_infeasible_member(self, name):
        mesh = Mesh2D(6, 6)
        a, b = self._pair(mesh)
        streams = StreamSet()
        streams.add(a)
        streams.add(b)
        report = _bounds(name, streams, XYRouting(mesh))
        assert not report.success
        assert not report.verdicts[0].feasible

    @pytest.mark.parametrize("name", ALL)
    def test_engine_enforces_closure_per_backend(self, name):
        mesh = Mesh2D(6, 6)
        a, b = self._pair(mesh)
        engine = IncrementalAdmissionEngine(XYRouting(mesh), analysis=name)
        assert engine.try_admit(b).admitted
        decision = engine.try_admit(a)
        assert not decision.admitted
        # The rejected batch must leave the admitted set untouched.
        assert engine.admitted.ids() == (b.stream_id,)
        assert engine.analysis_of(b.stream_id) == name


def _battery_workload(kind: str, seed: int):
    """A deterministic multi-priority workload on one of the three
    topology families."""
    rng = random.Random(seed)
    if kind == "mesh":
        topo = Mesh2D(6, 6)
        routing = XYRouting(topo)
    elif kind == "torus":
        topo = Torus((4, 4))
        routing = TorusDimensionOrderRouting(topo)
    else:
        topo = Hypercube(4)
        routing = ECubeRouting(topo)
    streams = StreamSet()
    n = topo.num_nodes
    for sid in range(12):
        src = rng.randrange(n)
        dst = rng.randrange(n)
        while dst == src:
            dst = rng.randrange(n)
        period = rng.randint(60, 240)
        streams.add(MessageStream(
            sid, src, dst, priority=rng.randint(1, 4), period=period,
            length=rng.randint(2, 6), deadline=period,
        ))
    return streams, routing


@pytest.mark.parametrize("kind", ["mesh", "torus", "hypercube"])
class TestPropertyBattery:
    """Shared cross-topology properties, checked for every backend."""

    def _reports(self, kind):
        out = {}
        for seed in range(4):
            streams, routing = _battery_workload(kind, seed)
            out[seed] = {
                name: _bounds(name, streams, routing) for name in ALL
            }
        return out

    def test_deterministic_per_backend(self, kind):
        for seed in range(4):
            streams, routing = _battery_workload(kind, seed)
            for name in ALL:
                first = _bounds(name, streams, routing).upper_bounds()
                again = _bounds(name, streams, routing).upper_bounds()
                assert first == again, (kind, seed, name)

    def test_tighter_never_looser_than_kim98(self, kind):
        for seed, reports in self._reports(kind).items():
            kim = reports["kim98"].upper_bounds()
            tight = reports["tighter"].upper_bounds()
            for sid, u in kim.items():
                if u > 0:
                    assert 0 < tight[sid] <= u, (kind, seed, sid)

    def test_tighter_admits_superset(self, kind):
        for seed, reports in self._reports(kind).items():
            kim_ok = {sid for sid, v in reports["kim98"].verdicts.items()
                      if v.feasible}
            tight_ok = {sid
                        for sid, v in reports["tighter"].verdicts.items()
                        if v.feasible}
            assert kim_ok <= tight_ok, (kind, seed)

    def test_buffered_never_tighter_than_kim98(self, kind):
        for seed, reports in self._reports(kind).items():
            kim = reports["kim98"].upper_bounds()
            buf = reports["buffered"].upper_bounds()
            for sid, u in buf.items():
                if u > 0:
                    assert u >= kim[sid], (kind, seed, sid)

    def test_highest_priority_unblocked_bound_is_latency(self, kind):
        """A stream with an empty HP set is never blocked, so every
        backend — margins and caps included — must return exactly its
        network latency."""
        for seed in range(4):
            streams, routing = _battery_workload(kind, seed)
            for name in ALL:
                analyzer = FeasibilityAnalyzer(
                    streams, routing, backend=backends.get(name))
                report = analyzer.determine_feasibility()
                for sid, verdict in report.verdicts.items():
                    if not analyzer.hp_sets[sid].ids():
                        assert (verdict.upper_bound
                                == verdict.stream.latency), (
                            kind, seed, name, sid)


class TestOracleCatchesBadRefinement:
    """The cross-backend fuzz oracle is only worth its keep if a backend
    that *breaks* its declared refinement is actually caught."""

    def test_bogus_refinement_trips_monotonicity(self):
        from repro.fuzz import GeneratorConfig, generate_case, run_case
        from repro.fuzz.shrink import shrink_case

        bogus = BoundBackend(
            name="bogus-loose",
            summary="deliberately looser than kim98, claims to refine it",
            citation="none",
            refines="kim98",
            interference_margin=3,
        )
        small = GeneratorConfig(width=3, height=3, sim_time=600)
        with temporary_backend(bogus):
            result = run_case(generate_case(0, small))
            assert "monotonicity" in result.kinds()
            hit = next(v for v in result.violations
                       if v.kind == "monotonicity")
            assert hit.backend == "bogus-loose"
            assert hit.to_spec()["backend"] == "bogus-loose"
            # The generic shrinker minimises the new kind too.
            shrunk = shrink_case(result.case, {"monotonicity"},
                                 max_evals=60)
            assert "monotonicity" in run_case(shrunk.case).kinds()

    def test_clean_registry_has_no_monotonicity_violations(self):
        from repro.fuzz import GeneratorConfig, generate_case, run_case

        small = GeneratorConfig(width=3, height=3, sim_time=600)
        for seed in range(10):
            result = run_case(generate_case(seed, small))
            assert "monotonicity" not in result.kinds(), (
                seed, [v.detail for v in result.violations])


def paired_churn_trace():
    """Paired bulk+monitor admit/release churn on a 12x12 mesh, 12
    priority levels, 60 live streams, 150 churn ops, seed 0. Each pair is a bulk transfer plus a same-priority monitor
    heartbeat sourced at the penultimate node of the bulk's X-Y route, so
    it crosses only the bulk's last channel. The monitor's short period
    puts many of its instances inside the bulk's deadline horizon — the
    shape where the FCFS equal-priority instance cap separates
    ``tighter`` from ``kim98``."""
    side, levels, target_live, churn_ops = 12, 12, 60, 150
    mesh = Mesh2D(side, side)
    rng = random.Random(0)

    def draw_pair(nid):
        while True:
            sx, sy = rng.randrange(side), rng.randrange(side)
            if rng.random() < 0.5:
                # Half the bulks aim at the mesh centre: a mild hotspot
                # keeps channel sharing (and hence HP sets) non-trivial.
                dx, dy = rng.randint(4, 7), rng.randint(4, 7)
            else:
                dx = min(side - 1, max(0, sx + rng.randint(-5, 5)))
                dy = min(side - 1, max(0, sy + rng.randint(-5, 5)))
            if (sx, sy) != (dx, dy):
                break
        pr = rng.randint(1, levels)
        length = rng.randint(4, 10)
        period = rng.randint(240, 600)
        latency = abs(dx - sx) + abs(dy - sy) + length - 1
        bulk = MessageStream(
            nid + 1, mesh.node_xy(sx, sy), mesh.node_xy(dx, dy),
            priority=pr, period=period, length=length,
            deadline=min(latency + rng.randint(20, 100), period),
        )
        # The y-leg comes last unless the route is x-only.
        if dy != sy:
            px, py = dx, dy - (1 if dy > sy else -1)
        else:
            px, py = dx - (1 if dx > sx else -1), dy
        mperiod = rng.randint(24, 40)
        monitor = MessageStream(
            nid, mesh.node_xy(px, py), mesh.node_xy(dx, dy),
            priority=pr, period=mperiod, length=rng.randint(2, 4),
            deadline=mperiod,
        )
        return [monitor, bulk]

    trace, live, nid = [], [], 0

    def admit_pair():
        nonlocal nid
        for s in draw_pair(nid):
            trace.append(("admit", s))
            live.append(s.stream_id)
        nid += 2

    while len(live) < target_live:
        admit_pair()
    for _ in range(churn_ops):
        if live and (len(live) >= target_live or rng.random() < 0.5):
            trace.append(("release", live.pop(rng.randrange(len(live)))))
        else:
            admit_pair()
    return mesh, trace


class TestAdmissionRateDominance:
    def test_refinement_buys_capacity_on_paired_churn(self):
        """One trace replayed with each backend as the engine default.
        The trial sets drift apart along a churn trace, so the ordering
        is asserted on the aggregate counts of the pinned seed:
        ``tighter`` must buy real admission capacity over ``kim98`` here,
        and an interference margin can only shrink the schedulable
        region."""
        mesh, trace = paired_churn_trace()
        accepted = {}
        for name in ("kim98", "tighter", "buffered"):
            engine = IncrementalAdmissionEngine(
                XYRouting(mesh), analysis=name
            )
            accepted[name] = 0
            for op, payload in trace:
                if op == "admit":
                    accepted[name] += engine.try_admit(payload).admitted
                elif payload in engine.admitted:
                    engine.release(payload)
        assert sum(op == "admit" for op, _ in trace) == 156
        assert accepted == {"kim98": 143, "tighter": 144, "buffered": 138}
