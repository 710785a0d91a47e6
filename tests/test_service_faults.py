"""Fault-plane, crash-recovery and idempotency tests for the broker.

Covers the hardening half of the chaos subsystem in isolation: the
seeded fault plane, every persistence fault kind fired through
``BrokerState.append``, torn-tail repair, read-only degraded mode with
rollback, and the request-id (rid) idempotency table — in memory, across
compaction and across restarts; then a crash or an ``OSError`` at each
step of a compaction, and journals driven past the size that triggers
one. The end-to-end campaign lives in ``test_chaos.py``.

The crash-point sweep runs more seeds nightly (``-m slow``).
"""

import errno
import json
import os
import random

import pytest

from repro.errors import ReproError
from repro.fleet.shards import TenantHost
from repro.faults.plane import (
    LAYER_OF,
    PERSISTENCE_FAULTS,
    SITE_JOURNAL_APPEND,
    FaultPlane,
    FaultSpec,
    InjectedCrash,
)
from repro.service import host as host_module
from repro.service import persistence
from repro.service.host import EngineHost
from repro.service.persistence import COMPACT_AT, RID_CAP, BrokerState
from repro.service.protocol import (
    ProtocolError, coerce_rid, retry_backoff,
)
from repro.service.server import BrokerServer
from repro.topology import normalize_link

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
        server.close()

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
        recovered.close()

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
        recovered.close()

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
        third.close()

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
        server.close()

    def test_duplicate_release_not_reapplied(self, tmp_path):
        server = BrokerServer(MESH, state_dir=tmp_path / "s")
        server.handle_request({"op": "admit", "streams": [spec()]})
        first = server.handle_request(
            {"op": "release", "rid": "r", "ids": [0]})
        dup = server.handle_request(
            {"op": "release", "rid": "r", "ids": [0]})
        assert first["ok"] and dup["ok"] and dup["duplicate"]
        assert dup["released"] == [0]
        server.close()

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
        recovered.close()

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
        recovered.close()

    def test_rid_table_is_fifo_capped(self):
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


# ---------------------------------------------------------------------- #
# Compaction crash points
# ---------------------------------------------------------------------- #

#: The steps of ``BrokerState.compact`` ("Compaction" in
#: ``repro.service.persistence``), each as the n-th call of the file
#: operation that performs it, counted from the tmp snapshot's open.
COMPACTION_STEPS = {
    "write tmp": ("open", 1),
    "set journal aside": ("replace", 1),
    "promote tmp": ("replace", 2),
    "drop old journal": ("unlink", 1),
    "create journal": ("open", 2),
}
FAULTS = {
    "crash": lambda: InjectedCrash("injected fault: crash in compaction"),
    "oserror": lambda: OSError(errno.EIO, "injected fault: compaction I/O"),
}
#: What triggers the compaction: the journal's size, the ``snapshot``
#: op, a restart.
TRIGGERS = ("size", "snapshot", "recovery")
#: The size trigger's threshold in these tests (the rule is the same at
#: ``COMPACT_AT``; the long runs below use the real one).
SMALL_COMPACT_AT = 6


class _TornFile:
    """A file whose first write lands half its bytes and then raises."""

    def __init__(self, fh, exc):
        self.fh, self.exc = fh, exc

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        raise self.exc


def fail_compaction_step(monkeypatch, step, fault):
    """Fire ``fault`` once, at ``step`` of the next compaction (what
    runs before it, e.g. clearing an earlier failure's leftovers, is not
    counted); the returned dict's ``fired`` says whether it went off."""
    kind, nth = COMPACTION_STEPS[step]
    real = {"open": open, "replace": os.replace, "unlink": os.unlink}
    calls = dict.fromkeys(real, 0)
    armed = {"counting": False, "fired": False}

    def wrap(name):
        def call(path, *args, **kwargs):
            if name == "open" and str(path).endswith(".tmp"):
                armed["counting"] = True
            if armed["counting"] and not armed["fired"]:
                calls[name] += 1
                if (name, calls[name]) == (kind, nth):
                    armed["fired"] = True
                    if step == "write tmp":
                        return _TornFile(real[name](path, *args, **kwargs),
                                         FAULTS[fault]())
                    raise FAULTS[fault]()
            return real[name](path, *args, **kwargs)
        return call

    monkeypatch.setattr(persistence, "open", wrap("open"), raising=False)
    monkeypatch.setattr(os, "replace", wrap("replace"))
    monkeypatch.setattr(os, "unlink", wrap("unlink"))
    return armed


def next_mutation(rng, ref, n, *, rid_rate=0.8):
    """A random mutation against the streams ``ref`` holds: admits and
    releases churning around eight live streams, now and then a link
    failed under a live stream or restored; most carry a rid."""
    request = {"rid": f"m-{n}"} if rng.random() < rid_rate else {}
    live = ref.admitted_ids()
    roll = rng.random()
    if ref.failed_links and roll < 0.06:
        link = rng.choice(sorted(ref.failed_links))
        return {**request, "op": "restore_link", "link": list(link)}
    if live and roll < 0.1 and len(ref.failed_links) < 2:
        stream = ref.engine.admitted[rng.choice(live)]
        channels = ref.routing.route_channels(stream.src, stream.dst)
        link = normalize_link(*rng.choice(channels))
        return {**request, "op": "fail_link", "link": list(link)}
    if live and (len(live) > 8) == (rng.random() < 0.8):
        ids = rng.sample(live, min(len(live), rng.randint(1, 2)))
        return {**request, "op": "release", "ids": ids}
    nodes = ref.topology.num_nodes
    streams = []
    for _ in range(rng.randint(1, 2)):
        src, dst = rng.sample(range(nodes), 2)
        period = rng.randint(80, 400)
        streams.append(spec(src, dst, priority=rng.randint(1, 9),
                            period=period, length=rng.randint(1, 4)))
    return {**request, "op": "admit", "streams": streams}


class Mirrored:
    """A journaled host — or, with ``tenant``, a fleet tenant's — and an
    in-memory reference fed the same mutations; the reference is what
    recovery must give back."""

    def __init__(self, state_dir, seed, *, tenant=False):
        self.state_dir, self.tenant = state_dir, tenant
        self.rng = random.Random(f"compaction-{seed}")
        self.ref = EngineHost(MESH)
        self.sent = []
        self.restart()

    def restart(self):
        if self.tenant:
            self.live = TenantHost("t", MESH, state_dir=self.state_dir)
        else:
            self.live = EngineHost(MESH, state_dir=self.state_dir)

    def kill(self):
        """The process dies: nothing is flushed or cleaned up (every
        acked record is already fsynced). The OS releases the journal's
        descriptor; what Python buffered for it is dropped."""
        journal = self.live.state._journal_fh
        if journal is not None:
            journal.raw.close()
        self.live = None

    def close(self):
        """The end of a run: the live host shuts down cleanly."""
        self.live.close()

    def records(self):
        """What a restart replays."""
        return self.live.state.records

    def compactions(self):
        return self.live.state.compactions

    def mutation(self):
        # A tenant's ops all carry a rid: one cut short by a crash is
        # retried under it.
        return next_mutation(self.rng, self.ref, len(self.sent),
                             rid_rate=1.0 if self.tenant else 0.8)

    def apply(self, request):
        """One mutation on both; the live answer must be the
        reference's unless it crashed (``InjectedCrash`` propagates)."""
        self.sent.append(request)
        want = self.ref.handle_request(dict(request))
        got = self.live.handle_request(dict(request))
        assert got == want, (request, got, want)

    def step(self):
        self.apply(self.mutation())

    def drive_to(self, records):
        """Step until the journal holds ``records`` (a host appends at
        most one record per op, so it passes every count)."""
        while self.records() != records:
            self.step()
            assert self.records() < COMPACT_AT

    def assert_recovered(self):
        """A restart holds the reference's state, every rid the
        reference remembers replays as the duplicate it answers, and
        the state dir holds a snapshot and a journal, nothing else."""
        live, ref = self.live, self.ref
        assert live.fingerprint() == ref.fingerprint()
        assert live.next_id == ref.next_id
        assert list(live._applied.items()) == list(ref._applied.items())
        for request in self.sent:
            if request.get("rid") in ref._applied:
                want = ref.handle_request(dict(request))
                got = live.handle_request(dict(request))
                assert want["duplicate"]
                assert got == want
        assert sorted(p.name for p in live.state.dir.iterdir()) == [
            "journal.jsonl", "snapshot.json",
        ]


def check_crash_point(tmp_path, monkeypatch, seed, trigger, step, fault):
    """Fail ``step`` of a compaction ``trigger`` starts; the host that
    survives an ``OSError`` keeps serving (past its next compaction),
    and a restart after either recovers the reference's state."""
    monkeypatch.setattr(host_module, "COMPACT_AT", SMALL_COMPACT_AT)
    run = Mirrored(tmp_path / "state", seed)
    run.drive_to(SMALL_COMPACT_AT - 1)
    armed = fail_compaction_step(monkeypatch, step, fault)
    expected = InjectedCrash if fault == "crash" else OSError
    if trigger == "size":
        try:
            for _ in range(SMALL_COMPACT_AT):
                run.step()
                if armed["fired"]:
                    break
        except InjectedCrash:
            assert fault == "crash"
            run.kill()
        else:
            assert fault == "oserror"
            assert run.live.state.compaction_failures == 1
    elif trigger == "snapshot":
        if fault == "crash":
            with pytest.raises(InjectedCrash):
                run.live.handle_request({"op": "snapshot"})
            run.kill()
        else:
            answer = run.live.handle_request({"op": "snapshot"})
            assert answer["code"] == "degraded" and run.live.degraded
            assert run.live.handle_request({"op": "snapshot"})["ok"]
    else:
        run.kill()
        with pytest.raises(expected):
            run.restart()
    assert armed["fired"]
    if run.live is not None:
        # The survivor's next compaction clears what the failed one left.
        compactions = run.live.state.compactions
        while run.live.state.compactions == compactions:
            run.step()
        run.step()
        run.kill()
    run.restart()
    run.assert_recovered()
    run.close()


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("step", list(COMPACTION_STEPS))
@pytest.mark.parametrize("trigger", TRIGGERS)
def test_a_failure_at_any_compaction_step_loses_nothing_acked(
    tmp_path, monkeypatch, trigger, step, fault
):
    check_crash_point(tmp_path, monkeypatch, 0, trigger, step, fault)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(1, 21))
def test_compaction_crash_point_sweep_nightly(tmp_path, monkeypatch, seed):
    for trigger in TRIGGERS:
        for step in COMPACTION_STEPS:
            for fault in FAULTS:
                case = tmp_path / f"{trigger}-{step}-{fault}"
                case.mkdir()
                with monkeypatch.context() as patch:
                    check_crash_point(case, patch, seed, trigger, step, fault)


# ---------------------------------------------------------------------- #
# Long runs: past COMPACT_AT journaled ops, with kills
# ---------------------------------------------------------------------- #


def host_long_run(tmp_path, monkeypatch, seed, crash_step):
    """More than ``COMPACT_AT`` journaled ops through one host: a kill
    early on, the automatic compaction (or, with ``crash_step``, a kill
    at that step of it) and a kill after it. No journal ever reaches
    ``COMPACT_AT`` records, and every restart gives back the
    reference's state."""
    rng = random.Random(f"long-run-{seed}")
    run = Mirrored(tmp_path / "state", f"long-{seed}")
    run.drive_to(rng.randrange(50, 400))
    run.kill()
    run.restart()
    run.assert_recovered()
    run.drive_to(COMPACT_AT - 1)
    if crash_step is None:
        run.step()
        assert run.live.state.compactions == 2    # restart, size
        assert run.records() == 0
        applied = json.loads((run.state_dir / "snapshot.json").read_text())
        assert len(applied["applied"]) == RID_CAP
        assert (run.state_dir / "journal.jsonl").read_bytes() == b""
    else:
        armed = fail_compaction_step(monkeypatch, crash_step, "crash")
        with pytest.raises(InjectedCrash):
            while run.live.state.compactions == 1:
                run.step()
        assert armed["fired"]
        run.kill()
        run.restart()
        run.assert_recovered()
    run.drive_to(rng.randrange(20, 200))
    run.kill()
    run.restart()
    run.assert_recovered()
    run.close()


def fleet_long_run(tmp_path, monkeypatch, seed, crash_step):
    """The same through a fleet tenant: a kill early on (at a seeded
    step of its restart compaction with ``crash_step``), then on to its
    automatic compaction (a kill at that step of it with ``crash_step``,
    the cut-short op retried under its rid) and a kill after it."""
    rng = random.Random(f"fleet-long-run-{seed}")
    run = Mirrored(tmp_path / "fleet", f"fleet-long-{seed}", tenant=True)

    def restart():
        run.kill()
        if crash_step is not None:
            armed = fail_compaction_step(monkeypatch, crash_step, "crash")
            with pytest.raises(InjectedCrash):
                run.restart()
            assert armed["fired"]
            monkeypatch.undo()
        run.restart()
        run.assert_recovered()

    early = rng.randrange(50, 400)
    while run.records() < early:
        run.step()
    restart()
    compactions = run.compactions()
    armed = {"fired": False}
    if crash_step is not None:
        armed = fail_compaction_step(monkeypatch, crash_step, "crash")
    try:
        while run.compactions() == compactions and not armed["fired"]:
            run.step()
            assert run.records() < COMPACT_AT
    except InjectedCrash:
        crashed = run.sent[-1]
        run.kill()
        run.restart()
        assert run.live.handle_request(dict(crashed))["ok"]
        run.assert_recovered()
    monkeypatch.undo()
    assert armed["fired"] == (crash_step is not None)
    later = run.records() + rng.randrange(20, 200)
    while run.records() < later:
        run.step()
    restart()
    run.close()


def test_a_host_journal_stays_bounded_across_kills(tmp_path, monkeypatch):
    host_long_run(tmp_path, monkeypatch, 0, None)


def test_a_fleet_journal_stays_bounded_across_kills(tmp_path, monkeypatch):
    fleet_long_run(tmp_path, monkeypatch, 1, "promote tmp")


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(2, 12))
def test_long_runs_nightly(tmp_path, monkeypatch, seed):
    steps = [None, *COMPACTION_STEPS]
    crash_step = steps[seed % len(steps)]
    host_long_run(tmp_path / "host", monkeypatch, seed, crash_step)
    monkeypatch.undo()
    fleet_long_run(tmp_path / "fleet", monkeypatch, seed, crash_step)
