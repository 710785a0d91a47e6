"""Fault-plane, crash-recovery and idempotency tests for the broker.

Covers the hardening half of the chaos subsystem in isolation: the
seeded fault plane, every persistence fault kind fired through
``BrokerState.append``, torn-tail repair, read-only degraded mode with
rollback, and the request-id (rid) idempotency table — in memory, across
compaction and across restarts. The end-to-end campaign lives in
``test_chaos.py``.
"""

import json

import pytest

from repro.errors import ReproError
from repro.faults.plane import (
    LAYER_OF,
    PERSISTENCE_FAULTS,
    SITE_JOURNAL_APPEND,
    FaultPlane,
    FaultSpec,
    InjectedCrash,
)
from repro.service.persistence import BrokerState
from repro.service.protocol import ProtocolError, coerce_rid, retry_backoff
from repro.service.server import BrokerServer

MESH = {"type": "mesh", "width": 6, "height": 6}


def spec(src=0, dst=3, priority=1, period=100, length=4):
    return {"src": src, "dst": dst, "priority": priority,
            "period": period, "length": length, "deadline": period}


def _armed_server(tmp_path, kind, **payload):
    """A persistent broker with one ``kind`` fault armed at the journal."""
    plane = FaultPlane(seed=5)
    server = BrokerServer(MESH, state_dir=tmp_path / "state",
                          fault_plane=plane)
    plane.arm(SITE_JOURNAL_APPEND, FaultSpec(kind, dict(payload)))
    return server, plane


class TestFaultPlane:
    def test_taxonomy_covers_four_layers(self):
        assert set(LAYER_OF.values()) == {
            "persistence", "protocol", "engine", "link",
        }

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meteor_strike")
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlane().record("meteor_strike")

    def test_arm_take_is_one_shot_and_counted(self):
        plane = FaultPlane(seed=3)
        plane.arm("site", FaultSpec("disk_full"))
        fault = plane.take("site")
        assert fault is not None and fault.kind == "disk_full"
        assert plane.take("site") is None
        assert plane.fired == {"disk_full": 1}
        assert plane.total_fired() == 1
        assert plane.counts_by_layer()["persistence"] == {"disk_full": 1}
        assert plane.layers_covered() == 1

    def test_disarm_discards_without_counting(self):
        plane = FaultPlane()
        plane.arm("site", FaultSpec("torn_write"))
        plane.arm("site", FaultSpec("fsync_error"))
        assert plane.disarm("site") == 2
        assert plane.total_fired() == 0
        assert plane.disarm("site") == 0

    def test_driver_side_faults_recorded(self):
        plane = FaultPlane()
        plane.record("cache_storm")
        plane.record("drop_after_send")
        plane.record("disk_full")
        assert plane.layers_covered() == 3


class TestRetryHelpers:
    def test_backoff_is_bounded_full_jitter(self):
        import random

        rng = random.Random(0)
        for attempt in range(10):
            delay = retry_backoff(attempt, base=0.05, cap=2.0, rng=rng)
            assert 0.0 <= delay < min(2.0, 0.05 * (2 ** attempt)) + 1e-9

    def test_coerce_rid(self):
        assert coerce_rid({}) is None
        assert coerce_rid({"rid": "abc"}) == "abc"
        with pytest.raises(ProtocolError):
            coerce_rid({"rid": ""})
        with pytest.raises(ProtocolError):
            coerce_rid({"rid": 7})


class TestPersistenceFaults:
    """Each persistence fault kind, fired through the real append path."""

    def test_disk_full_degrades_and_rolls_back(self, tmp_path):
        server, _ = _armed_server(tmp_path, "disk_full")
        resp = server.handle_request(
            {"op": "admit", "rid": "r1", "streams": [spec()]})
        assert not resp["ok"] and resp["code"] == "degraded"
        # Rolled back: memory agrees with the (empty) journal.
        assert len(server.engine.admitted) == 0
        assert server.engine.next_id == 0
        assert server.metrics.journal_errors == 1
        assert server.degraded

    def test_fsync_error_repairs_the_journal(self, tmp_path):
        server, _ = _armed_server(tmp_path, "fsync_error")
        resp = server.handle_request(
            {"op": "admit", "rid": "r1", "streams": [spec()]})
        assert resp["code"] == "degraded"
        # The half-written record was truncated away, not left behind.
        journal = (tmp_path / "state" / "journal.jsonl").read_bytes()
        assert journal == b""

    def test_release_rollback_restores_streams(self, tmp_path):
        server, plane = _armed_server(tmp_path, "disk_full")
        plane.disarm(SITE_JOURNAL_APPEND)  # admit cleanly first
        admit = server.handle_request(
            {"op": "admit", "rid": "a", "streams": [spec()]})
        assert admit["ok"] and admit["admitted"]
        plane.arm(SITE_JOURNAL_APPEND, FaultSpec("fsync_error"))
        resp = server.handle_request(
            {"op": "release", "rid": "b", "ids": [0]})
        assert resp["code"] == "degraded"
        # The released stream was re-admitted with identical analysis.
        assert server.engine.admitted.ids() == (0,)
        query = server.handle_request({"op": "query", "stream": 0})
        assert query["ok"] and query["feasible"]

    def test_degraded_refuses_mutations_allows_reads(self, tmp_path):
        server, _ = _armed_server(tmp_path, "disk_full")
        server.handle_request(
            {"op": "admit", "rid": "r1", "streams": [spec()]})
        assert server.degraded
        again = server.handle_request(
            {"op": "admit", "rid": "r2", "streams": [spec(src=6, dst=9)]})
        assert again["code"] == "degraded"
        release = server.handle_request({"op": "release", "ids": [0]})
        assert release["code"] == "degraded"
        for op in ("ping", "report", "stats"):
            assert server.handle_request({"op": op})["ok"]
        stats = server.handle_request({"op": "stats"})
        assert stats["degraded"] is True
        assert stats["service"]["faults"]["degraded_entered"] == 1
        assert "repro_broker_degraded 1" in server.prometheus_text()

    def test_snapshot_clears_degraded(self, tmp_path):
        server, _ = _armed_server(tmp_path, "disk_full")
        server.handle_request(
            {"op": "admit", "rid": "r1", "streams": [spec()]})
        snap = server.handle_request({"op": "snapshot"})
        assert snap["ok"] and snap["degraded_cleared"]
        assert not server.degraded
        retry = server.handle_request(
            {"op": "admit", "rid": "r1", "streams": [spec()]})
        assert retry["ok"] and retry["admitted"] and retry["ids"] == [0]
        assert "duplicate" not in retry  # first attempt never committed
        assert "repro_broker_degraded 0" in server.prometheus_text()

    def test_torn_write_crash_is_recoverable(self, tmp_path):
        server, plane = _armed_server(tmp_path, "torn_write")
        with pytest.raises(InjectedCrash):
            server.handle_request(
                {"op": "admit", "rid": "r1", "streams": [spec()]})
        server.state.close()
        # The journal holds a strict prefix of the record: a torn tail.
        journal = (tmp_path / "state" / "journal.jsonl").read_bytes()
        assert journal and not journal.endswith(b"\n")
        recovered = BrokerServer(MESH, state_dir=tmp_path / "state",
                                 fault_plane=plane)
        assert len(recovered.engine.admitted) == 0
        # The retry under the same rid commits exactly once.
        retry = recovered.handle_request(
            {"op": "admit", "rid": "r1", "streams": [spec()]})
        assert retry["ok"] and retry["admitted"] and retry["ids"] == [0]

    def test_crash_after_append_deduplicates_retry(self, tmp_path):
        server, plane = _armed_server(tmp_path, "crash_after_append")
        with pytest.raises(InjectedCrash):
            server.handle_request(
                {"op": "admit", "rid": "r1", "streams": [spec()]})
        server.state.close()
        recovered = BrokerServer(MESH, state_dir=tmp_path / "state",
                                 fault_plane=plane)
        # The record was durable; the lost-ack retry must not double-apply.
        assert recovered.engine.admitted.ids() == (0,)
        retry = recovered.handle_request(
            {"op": "admit", "rid": "r1", "streams": [spec()]})
        assert retry["ok"] and retry["duplicate"] and retry["ids"] == [0]
        assert recovered.engine.admitted.ids() == (0,)
        assert recovered.metrics.duplicates == 1

    def test_torn_cut_point_is_seeded(self, tmp_path):
        def torn_journal(seed):
            plane = FaultPlane(seed=seed)
            server = BrokerServer(MESH, state_dir=tmp_path / f"s{seed}",
                                  fault_plane=plane)
            plane.arm(SITE_JOURNAL_APPEND, FaultSpec("torn_write"))
            with pytest.raises(InjectedCrash):
                server.handle_request({"op": "admit", "streams": [spec()]})
            server.state.close()
            return (tmp_path / f"s{seed}" / "journal.jsonl").read_bytes()

        assert torn_journal(11) == torn_journal(11)


class TestTornTailRepair:
    """Regression: a torn tail must be *truncated*, not just skipped —
    otherwise the next append fuses with the partial bytes into one
    corrupt line that poisons the following recovery."""

    def test_append_after_torn_tail_recovery(self, tmp_path):
        state = tmp_path / "state"
        first = BrokerServer(MESH, state_dir=state)
        first.handle_request({"op": "admit", "streams": [spec()]})
        first.state.close()
        with open(state / "journal.jsonl", "a") as fh:
            fh.write('{"op": "admit", "streams": [{"src": 1,')
        second = BrokerServer(MESH, state_dir=state)
        assert second.engine.admitted.ids() == (0,)
        # Recovery compacted; appending and recovering again must work.
        second.handle_request(
            {"op": "admit", "streams": [spec(src=6, dst=9)]})
        second.state.close()
        third = BrokerServer(MESH, state_dir=state)
        assert third.engine.admitted.ids() == (0, 1)

    def test_torn_tail_truncated_even_without_snapshot(self, tmp_path):
        state = tmp_path / "state"
        BrokerState(state, MESH)  # creates the directory
        (state / "journal.jsonl").write_text('{"op": "admit", "str')
        broker_state = BrokerState(state, MESH)
        recovered = broker_state.recover()
        assert recovered.torn_tail and recovered.ops == []
        assert (state / "journal.jsonl").read_bytes() == b""

    def test_partial_record_beyond_good_tail(self, tmp_path):
        state = tmp_path / "state"
        BrokerState(state, MESH)
        (state / "journal.jsonl").write_text(
            '{"op": "release", "ids": [0]}\n{"op": "adm'
        )
        recovered = BrokerState(state, MESH).recover()
        assert recovered.torn_tail
        assert [op["op"] for op in recovered.ops] == ["release"]
        assert (state / "journal.jsonl").read_text() == (
            '{"op": "release", "ids": [0]}\n'
        )


class TestIdempotency:
    def test_duplicate_admit_not_reapplied(self, tmp_path):
        server = BrokerServer(MESH, state_dir=tmp_path / "s")
        first = server.handle_request(
            {"op": "admit", "rid": "x", "streams": [spec()]})
        dup = server.handle_request(
            {"op": "admit", "rid": "x", "streams": [spec()]})
        assert first["admitted"] and "duplicate" not in first
        assert dup["ok"] and dup["duplicate"] and dup["ids"] == first["ids"]
        assert len(server.engine.admitted) == 1
        # Only the first commit reached the journal.
        journal = (tmp_path / "s" / "journal.jsonl").read_text()
        assert journal.count('"op":"admit"') == 1

    def test_duplicate_release_not_reapplied(self, tmp_path):
        server = BrokerServer(MESH, state_dir=tmp_path / "s")
        server.handle_request({"op": "admit", "streams": [spec()]})
        first = server.handle_request(
            {"op": "release", "rid": "r", "ids": [0]})
        dup = server.handle_request(
            {"op": "release", "rid": "r", "ids": [0]})
        assert first["ok"] and dup["ok"] and dup["duplicate"]
        assert dup["released"] == [0]

    def test_rejected_admit_records_nothing(self):
        server = BrokerServer(MESH)
        # Infeasible on its own: the route is 3 hops, so the network
        # latency alone (hops + C - 1 = 6) exceeds the deadline of 4.
        tight = spec(period=4, length=4)
        rejected = server.handle_request(
            {"op": "admit", "rid": "again", "streams": [tight]})
        assert rejected["ok"] and not rejected["admitted"]
        # A retry re-evaluates (same verdict), it is not a "duplicate".
        retry = server.handle_request(
            {"op": "admit", "rid": "again", "streams": [tight]})
        assert not retry["admitted"] and "duplicate" not in retry
        # Trial ids of rejected batches are reclaimed: id stability.
        assert rejected["ids"] == retry["ids"]

    def test_rid_survives_restart_via_journal(self, tmp_path):
        server = BrokerServer(MESH, state_dir=tmp_path / "s")
        first = server.handle_request(
            {"op": "admit", "rid": "k", "streams": [spec()]})
        server.state.close()
        recovered = BrokerServer(MESH, state_dir=tmp_path / "s")
        dup = recovered.handle_request(
            {"op": "admit", "rid": "k", "streams": [spec()]})
        assert dup["duplicate"] and dup["ids"] == first["ids"]

    def test_rid_survives_compaction_and_restart(self, tmp_path):
        server = BrokerServer(MESH, state_dir=tmp_path / "s")
        server.handle_request(
            {"op": "admit", "rid": "k", "streams": [spec()]})
        server.handle_request({"op": "snapshot"})
        snapshot = json.loads((tmp_path / "s" / "snapshot.json").read_text())
        assert "k" in snapshot["applied"]
        server.state.close()
        recovered = BrokerServer(MESH, state_dir=tmp_path / "s")
        dup = recovered.handle_request(
            {"op": "admit", "rid": "k", "streams": [spec()]})
        assert dup["duplicate"] and dup["ids"] == [0]

    def test_rid_table_is_fifo_capped(self):
        from repro.service.persistence import RID_CAP

        server = BrokerServer(MESH)
        server._applied.record("first", "release", {"released": [0]})
        for i in range(RID_CAP):
            server._applied.record(f"r{i}", "release", {"released": [i]})
        assert len(server._applied) == RID_CAP
        assert "first" not in server._applied
        assert f"r{RID_CAP - 1}" in server._applied

    def test_bad_rid_rejected_on_the_wire(self):
        server = BrokerServer(MESH)
        resp = server.handle_request(
            {"op": "admit", "rid": 5, "streams": [spec()]})
        assert not resp["ok"] and resp["code"] == "protocol"


class TestEngineFaults:
    def test_cache_storm_preserves_verdicts(self):
        server = BrokerServer(MESH)
        for i in range(6):
            server.handle_request(
                {"op": "admit", "streams": [spec(src=i, dst=i + 12)]})
        before = server.handle_request({"op": "report"})
        server.engine.invalidate_caches()
        after = server.handle_request({"op": "report"})
        assert before["report"] == after["report"]
        assert server.engine.stats.forced_invalidations == 1
        assert "repro_engine_forced_invalidations_total 1" in (
            server.prometheus_text()
        )

    def test_reset_next_id_floors_at_admitted(self):
        server = BrokerServer(MESH)
        server.handle_request({"op": "admit", "streams": [spec()]})
        server.engine.reset_next_id(0)
        # Never below max(admitted) + 1: id 0 is taken.
        assert server.engine.next_id == 1


class TestFaultSpecKinds:
    def test_every_persistence_kind_fires_through_append(self, tmp_path):
        for kind in PERSISTENCE_FAULTS:
            plane = FaultPlane(seed=1)
            state = BrokerState(tmp_path / kind, MESH, fault_plane=plane)
            plane.arm(SITE_JOURNAL_APPEND, FaultSpec(kind))
            try:
                state.append({"op": "release", "ids": [1]})
            except InjectedCrash:
                assert kind in ("torn_write", "crash_after_append")
            except OSError:
                assert kind in ("disk_full", "fsync_error")
            else:  # pragma: no cover - every kind must raise
                raise AssertionError(f"{kind} did not fire")
            assert plane.fired == {kind: 1}
            state.close()

    def test_explicit_cut_payload_respected(self, tmp_path):
        plane = FaultPlane()
        state = BrokerState(tmp_path / "s", MESH, fault_plane=plane)
        plane.arm(SITE_JOURNAL_APPEND, FaultSpec("torn_write", {"cut": 3}))
        with pytest.raises(InjectedCrash):
            state.append({"op": "release", "ids": [1]})
        state.close()
        assert (tmp_path / "s" / "journal.jsonl").read_bytes() == b'{"i'
