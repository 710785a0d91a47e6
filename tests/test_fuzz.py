"""Tests for the differential soundness-fuzzing subsystem (repro.fuzz)."""

import dataclasses
import json

import pytest

from repro.analysis.observe import admitted_scope
from repro.errors import ReproError
from repro.fuzz import (
    FuzzCase,
    FuzzStream,
    GeneratorConfig,
    generate_case,
    load_counterexample,
    replay,
    run_case,
    run_fuzz_campaign,
    run_self_test,
    shrink_case,
    write_counterexample,
)
from repro.fuzz.corpus import counterexample_spec
from repro.fuzz.oracle import FuzzViolation

SMALL = GeneratorConfig(width=3, height=3, sim_time=600)
#: The paper's traffic model, periods inflated to T := U.
PAPER = GeneratorConfig(
    width=10, height=10, max_streams=8, priority_levels=2,
    period_range=(200, 500), length_range=(10, 40), sim_time=4_000,
    presets=("paper",),
)
#: Finding F-4: seed 3 of the high-interference regime converges in one
#: inflation pass with all 15 streams at 0 < U <= T.
F4 = GeneratorConfig(
    width=10, height=10, max_streams=15, period_range=(100, 250),
    length_range=(8, 20), sim_time=8_000, residency_margin=0,
    presets=("paper",), phase_probability=0.0,
)


def _case(streams, width=3, height=3, sim_time=400, **kw):
    return FuzzCase(
        width=width, height=height, streams=tuple(streams),
        sim_time=sim_time, **kw,
    )


def _stream(sid, src, dst, priority=1, period=50, length=4,
            deadline=None, phase=0):
    return FuzzStream(
        stream_id=sid, src_xy=src, dst_xy=dst, priority=priority,
        period=period, length=length,
        deadline=period if deadline is None else deadline, phase=phase,
    )


class TestGenerator:
    def test_same_seed_same_case(self):
        assert generate_case(7, SMALL) == generate_case(7, SMALL)

    def test_different_seeds_differ(self):
        cases = {generate_case(s, SMALL) for s in range(20)}
        assert len(cases) > 15  # collisions would mean a broken PRNG reseed

    def test_spec_roundtrip(self):
        for seed in range(12):
            case = generate_case(seed, SMALL)
            assert FuzzCase.from_spec(case.to_spec()) == case

    def test_cases_are_well_formed(self):
        for seed in range(30):
            case = generate_case(seed, SMALL)
            assert 1 <= len(case.streams) <= SMALL.max_streams
            sources = [s.src_xy for s in case.streams]
            assert len(sources) == len(set(sources))
            for s in case.streams:
                assert s.src_xy != s.dst_xy
                assert 1 <= s.length
                assert s.length < s.period
                assert 0 < s.deadline <= s.period

    def test_presets_all_reachable(self):
        seen = {generate_case(s, SMALL).preset for s in range(120)}
        assert seen == {"uniform", "chain", "hotspot", "funnel"}

    def test_build_produces_simulatable_network(self):
        case = generate_case(3, SMALL)
        mesh, routing, streams = case.build()
        assert mesh.num_nodes == case.width * case.height
        assert len(streams) == len(case.streams)

    def test_invalid_case_rejected(self):
        with pytest.raises(ReproError):
            _case([_stream(0, (0, 0), (0, 0))])  # src == dst
        with pytest.raises(ReproError):
            _case([_stream(0, (0, 0), (5, 5))])  # off-mesh
        with pytest.raises(ReproError):
            _case([
                _stream(0, (0, 0), (1, 0)),
                _stream(1, (0, 0), (2, 0)),  # duplicate source
            ])


class TestOracle:
    def test_clean_case_has_no_violations(self):
        result = run_case(generate_case(0, SMALL))
        assert result.ok
        assert result.kinds() == ()

    def test_bound_delta_forces_soundness_violation(self):
        case = dataclasses.replace(
            generate_case(0, SMALL), bound_delta=1 << 20
        )
        result = run_case(case)
        assert "soundness" in result.kinds()
        v = next(v for v in result.violations if v.kind == "soundness")
        assert v.observed is not None and v.bound is not None
        assert v.observed > v.bound

    def test_admission_requires_feasible_hp_closure(self):
        """A stream whose blocker is itself infeasible must not be checked:
        the diagram confines each HP instance to its period window, an
        assumption that fails for infeasible members (finding F-7)."""
        bounds = {1: 10, 2: 40}
        hp_ids = {1: (2,), 2: ()}
        case = _case([
            _stream(1, (0, 0), (2, 0), priority=1, period=50, length=4),
            _stream(2, (0, 1), (2, 1), priority=2, period=30, length=4),
        ])
        # Member 2's bound exceeds its period: 1 must be dropped with it.
        assert admitted_scope(case.streams, bounds, hp_ids) == ()
        # With a feasible member, both are admitted.
        assert admitted_scope(case.streams, {1: 10, 2: 20}, hp_ids) == (1, 2)

    def test_closure_is_transitive(self):
        case = _case([
            _stream(1, (0, 0), (2, 0), priority=1, period=50, length=2),
            _stream(2, (0, 1), (2, 1), priority=2, period=50, length=2),
            _stream(3, (0, 2), (2, 2), priority=3, period=50, length=2),
        ])
        bounds = {1: 10, 2: 10, 3: 9999}
        hp_ids = {1: (2,), 2: (3,), 3: ()}
        # 3 infeasible -> 2 dropped -> 1 dropped.
        assert admitted_scope(case.streams, bounds, hp_ids) == ()

    def test_violation_spec_roundtrip_fields(self):
        v = FuzzViolation(
            kind="soundness", detail="d", stream_id=3, observed=9, bound=8
        )
        spec = v.to_spec()
        assert spec == {
            "kind": "soundness", "detail": "d",
            "stream_id": 3, "observed": 9, "bound": 8,
        }


class TestShrink:
    def test_shrinks_to_single_stream_under_always_true(self):
        case = generate_case(1, SMALL)
        result = shrink_case(
            case, ("soundness",), predicate=lambda c: True, max_evals=300
        )
        assert len(result.case.streams) == 1
        assert result.improved
        s = result.case.streams[0]
        assert s.length == 1
        assert result.case.sim_time < case.sim_time

    def test_never_accepts_when_predicate_false(self):
        case = generate_case(1, SMALL)
        result = shrink_case(
            case, ("soundness",), predicate=lambda c: False, max_evals=50
        )
        assert result.case == case
        assert not result.improved

    def test_respects_eval_budget(self):
        calls = []

        def pred(c):
            calls.append(1)
            return True

        shrink_case(generate_case(2, SMALL), ("x",), predicate=pred,
                    max_evals=17)
        assert len(calls) <= 17

    def test_crops_mesh_to_bounding_box(self):
        case = _case(
            [_stream(0, (2, 2), (4, 2))], width=6, height=6
        )
        result = shrink_case(
            case, ("x",), predicate=lambda c: True, max_evals=60
        )
        assert (result.case.width, result.case.height) == (3, 1)
        s = result.case.streams[0]
        assert s.src_xy == (0, 0) and s.dst_xy == (2, 0)

    def test_shrunk_case_still_violates(self):
        """End to end on a real (injected) violation: the minimised case
        reproduces the same violation kind through the oracle."""
        case = dataclasses.replace(
            generate_case(0, SMALL), bound_delta=1 << 20
        )
        kinds = run_case(case).kinds()
        assert "soundness" in kinds
        result = shrink_case(case, kinds, max_evals=120)
        assert len(result.case.streams) <= len(case.streams)
        assert "soundness" in run_case(result.case).kinds()


class TestCorpus:
    def _violating_case(self):
        case = dataclasses.replace(
            generate_case(0, SMALL), bound_delta=1 << 20
        )
        return case, run_case(case)

    def test_write_load_roundtrip(self, tmp_path):
        case, result = self._violating_case()
        spec = counterexample_spec(
            "soundness", case, result.violations,
            original=case, shrink_evals=0,
        )
        path = write_counterexample(tmp_path, spec)
        assert path.name.startswith("cex-soundness-seed0-")
        kind, loaded, full = load_counterexample(path)
        assert kind == "soundness"
        assert loaded == case
        assert full["shrink"]["streams_before"] == len(case.streams)

    def test_write_is_idempotent(self, tmp_path):
        case, result = self._violating_case()
        spec = counterexample_spec("soundness", case, result.violations)
        p1 = write_counterexample(tmp_path, spec)
        p2 = write_counterexample(tmp_path, spec)
        assert p1 == p2
        assert len(list(tmp_path.glob("cex-*.json"))) == 1

    def test_replay_reproduces(self, tmp_path):
        case, result = self._violating_case()
        spec = counterexample_spec("soundness", case, result.violations)
        path = write_counterexample(tmp_path, spec)
        rep = replay(path)
        assert rep.reproduced
        assert "REPRODUCED" in rep.summary()

    def test_replay_not_reproduced_on_fixed_case(self, tmp_path):
        case, result = self._violating_case()
        spec = counterexample_spec("soundness", case, result.violations)
        # Drop the perturbation: the stored case no longer violates.
        spec["case"]["bound_delta"] = 0
        path = write_counterexample(tmp_path, spec)
        rep = replay(path)
        assert not rep.reproduced
        assert "not reproduced" in rep.summary()

    def test_load_rejects_bad_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "kind": "x", "case": {}}))
        with pytest.raises(ReproError):
            load_counterexample(path)
        path.write_text(json.dumps({"schema": 1}))
        with pytest.raises(ReproError):
            load_counterexample(path)


class TestCampaign:
    def test_small_campaign_is_sound(self):
        report = run_fuzz_campaign(seeds=8, generator=SMALL, jobs=1)
        assert report.sound
        assert report.seeds_run == 8
        assert report.checked > 0
        assert "sound: 0 violations" in report.summary()

    def test_campaign_deterministic(self):
        a = run_fuzz_campaign(seeds=5, generator=SMALL, jobs=1)
        b = run_fuzz_campaign(seeds=5, generator=SMALL, jobs=1)
        assert a.checked == b.checked
        assert a.outcomes_by_preset == b.outcomes_by_preset

    def test_violations_shrunk_and_persisted(self, tmp_path):
        cfg = dataclasses.replace(SMALL, bound_delta=1 << 20)
        report = run_fuzz_campaign(
            seeds=2, generator=cfg, jobs=1, max_shrink=1,
            corpus_dir=str(tmp_path),
        )
        assert not report.sound
        assert len(report.counterexamples) == 1
        record = report.counterexamples[0]
        assert record.path is not None
        assert record.streams_after <= record.streams_before
        assert replay(record.path).reproduced
        assert "UNSOUND" in report.summary()

    def test_time_budget_stops_early(self):
        report = run_fuzz_campaign(
            seeds=64, generator=SMALL, jobs=1, time_budget=0.0,
            batch_size=4,
        )
        assert report.stopped_early
        assert report.seeds_run < 64

    def test_rejects_bad_arguments(self):
        with pytest.raises(ReproError):
            run_fuzz_campaign(seeds=0)
        with pytest.raises(ReproError):
            run_fuzz_campaign(seeds=1, jobs=-1)

    def test_self_test_end_to_end(self, tmp_path):
        ok, text = run_self_test(
            corpus_dir=str(tmp_path), generator=SMALL, seeds=2, jobs=1
        )
        assert ok, text
        assert "self-test ok" in text
        assert list(tmp_path.glob("cex-*.json"))

    def test_parallel_matches_serial(self):
        serial = run_fuzz_campaign(seeds=6, generator=SMALL, jobs=1)
        parallel = run_fuzz_campaign(seeds=6, generator=SMALL, jobs=2)
        assert serial.checked == parallel.checked
        assert serial.admitted == parallel.admitted
        assert serial.outcomes_by_preset == parallel.outcomes_by_preset


class TestPaperPreset:
    """``presets=("paper",)``: the paper's draw with T := U, the campaign
    that ``repro fuzz --preset paper`` runs."""

    def test_small_campaign_is_sound(self):
        report = run_fuzz_campaign(seeds=2, generator=PAPER, jobs=1)
        assert report.sound
        assert report.checked > 0
        assert report.outcomes_by_preset == {"paper": 2}
        assert "sound: 0 violations" in report.summary()

    def test_campaign_deterministic(self):
        a = run_fuzz_campaign(seeds=2, seed0=5, generator=PAPER, jobs=1)
        b = run_fuzz_campaign(seeds=2, seed0=5, generator=PAPER, jobs=1)
        assert (a.checked, a.admitted) == (b.checked, b.admitted)

    def test_zero_seeds_rejected(self):
        with pytest.raises(ReproError):
            run_fuzz_campaign(seeds=0, generator=PAPER)

    def test_seed0_changes_workloads(self):
        assert generate_case(0, PAPER).streams != \
            generate_case(50, PAPER).streams

    def test_case_stores_inflated_periods(self):
        case = generate_case(4, PAPER)
        assert case.preset == "paper" and len(case.streams) == 8
        assert {s.priority for s in case.streams} <= {1, 2}
        assert all(s.deadline == s.period for s in case.streams)
        # The case carries the inflated periods; a replay reads them back.
        assert FuzzCase.from_spec(case.to_spec()) == case
        result = run_case(case)
        bounds = result.backend_bounds["kim98"]
        assert all(0 < bounds[s.stream_id] <= s.period
                   for s in case.streams)

    def test_random_phases_keep_the_draw(self):
        zero = generate_case(1, PAPER)
        phased = generate_case(
            1, dataclasses.replace(PAPER, phase_probability=1.0)
        )
        assert any(s.phase for s in phased.streams)
        assert [dataclasses.replace(s, phase=0) for s in phased.streams] \
            == list(zero.streams)

    def test_f4_raw_analysis_violated_by_one_slot(self):
        case = generate_case(3, F4)
        result = run_case(case)
        assert len(result.admitted) == len(case.streams) == 15
        kim98 = [v for v in result.violations
                 if v.kind == "soundness" and v.backend == "kim98"]
        assert [(v.stream_id, v.observed - v.bound) for v in kim98] \
            == [(11, 1)]

    def test_f4_margin_one_is_sound(self):
        case = generate_case(
            3, dataclasses.replace(F4, residency_margin=1)
        )
        assert run_case(case).ok
