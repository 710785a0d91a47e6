"""Tenant tests: one engine host per tenant, its drill, its legacy fold.

A fleet tenant is a :class:`TenantHost` — an :class:`EngineHost` that
names its tenant and can be killed and failed over — so every answer it
gives must be byte-identical to a broker's holding the same streams
(the fuzzed proof lives in ``test_fleet_equivalence.py``; here are the
targeted edges). State dirs that a sharded fleet wrote
(``<tenant>/shard-<i>/``) fold into one host's when the tenant opens
(:func:`repro.fleet.shards.fold_shards`): the result must equal what
the sharded code recovered from the same dir, whatever step a crash
interrupts.
"""

import contextlib
import gc
import itertools
import json
import shutil
import threading
import time
import warnings

from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.faults.plane import (
    SITE_JOURNAL_APPEND,
    FaultPlane,
    FaultSpec,
    InjectedCrash,
)
from repro.fleet import shards
from repro.fleet.replication import ShardStandby
from repro.fleet.shards import Fleet, TenantHost, TenantSpec
from repro.service.host import EngineHost
from repro.service.metrics import export_stats
from repro.service.persistence import BrokerState

TOPO = {"type": "mesh", "width": 6, "height": 6}
GOLDEN = Path(__file__).parent / "golden"


def spec(src, dst, *, priority=5, period=300, length=4, deadline=300,
         **extra):
    out = {"src": src, "dst": dst, "priority": priority, "period": period,
           "length": length, "deadline": deadline}
    out.update(extra)
    return out


def admit(target, *streams, rid=None, **kw):
    request = {"op": "admit", "streams": list(streams), **kw}
    if rid is not None:
        request["rid"] = rid
    return target.handle_request(request)


def failing_next_append(host):
    """The next journal append of ``host`` raises ``ENOSPC``, once."""
    real_append = host.state.append

    def failing_append(op):
        host.state.append = real_append
        raise OSError(28, "injected: no space left on device")

    host.state.append = failing_append


# ---------------------------------------------------------------------- #
# One engine per tenant answers like one broker
# ---------------------------------------------------------------------- #


class TestPlacement:
    def test_bridge_mid_churn_matches_single_engine(self):
        """A stream that stitches two groups of streams together mid
        churn is decided against its whole closure, as one broker
        decides it; the spine ladder's sum of ``escalations`` stays 0."""
        tf = TenantHost("t", TOPO)
        ref = EngineHost(TOPO)

        def step(request):
            got = tf.handle_request(dict(request))
            want = ref.handle_request(dict(request))
            assert got == want, request
            return got

        step({"op": "admit", "streams": [spec(0, 2)]})          # id 0
        step({"op": "admit", "streams": [spec(3, 5)]})          # id 1
        # Churn: a third group comes and goes while the first two live.
        step({"op": "admit", "streams": [spec(30, 32)]})        # id 2
        step({"op": "release", "ids": [2]})
        # The bridge lands mid-churn and stitches groups 0 and 1.
        step({"op": "admit", "streams": [spec(1, 4, priority=7)]})  # id 3
        step({"op": "admit", "streams": [spec(24, 26)]})        # id 4
        step({"op": "release", "ids": [1]})
        step({"op": "report"})
        assert tf.fingerprint() == ref.fingerprint()
        fleet = Fleet([TenantSpec("t", "k", TOPO)], shards=2)
        assert sum(tf.escalations for tf in fleet.tenants.values()) == 0

    def test_verdicts_identical_to_single_engine(self):
        tf = TenantHost("t", TOPO)
        ref = EngineHost(TOPO)
        batches = [
            [spec(0, 2, priority=2), spec(1, 2, priority=9)],
            [spec(30, 32, priority=4)],
            [spec(18, 20, priority=6), spec(19, 20, priority=1)],
        ]
        for batch in batches:
            got = admit(tf, *batch)
            want = ref.handle_request(
                {"op": "admit", "streams": list(batch)}
            )
            assert got == want
        assert tf.fingerprint() == ref.fingerprint()


class TestIds:
    def test_fresh_ids_are_sequential_across_shards(self):
        """Ids come from the tenant's one engine, in admission order."""
        tf = TenantHost("t", TOPO)
        ids = []
        for src, dst in ((0, 2), (30, 32), (12, 14)):
            ids.extend(admit(tf, spec(src, dst))["ids"])
        assert ids == [0, 1, 2]

    def test_explicit_id_advances_high_water_mark(self):
        tf = TenantHost("t", TOPO)
        ref = EngineHost(TOPO)
        for request in (
            {"op": "admit", "streams": [spec(0, 2, id=7)]},
            {"op": "admit", "streams": [spec(30, 32)]},  # gets 8
        ):
            assert (tf.handle_request(dict(request))
                    == ref.handle_request(dict(request)))
        assert tf.admitted_ids() == [7, 8]

    def test_duplicate_ids_rejected_like_engine(self):
        tf = TenantHost("t", TOPO)
        ref = EngineHost(TOPO)
        admit(tf, spec(0, 2, id=3))
        ref.handle_request({"op": "admit", "streams": [spec(0, 2, id=3)]})
        request = {"op": "admit", "streams": [spec(30, 32, id=3)]}
        got = tf.handle_request(dict(request))
        want = ref.handle_request(dict(request))
        assert got == want
        assert not got["ok"]
        # The failed admit must not leak the advanced next_id.
        after = {"op": "admit", "streams": [spec(12, 14)]}
        assert (tf.handle_request(dict(after))
                == ref.handle_request(dict(after)))

    def test_rejected_admit_restores_next_id(self):
        tf = TenantHost("t", TOPO)
        ref = EngineHost(TOPO)
        tight = spec(0, 2, priority=1, period=5, length=8, deadline=5)
        for request in (
            {"op": "admit", "streams": [spec(0, 2)]},
            {"op": "admit", "streams": [tight]},          # rejected
            {"op": "admit", "streams": [spec(30, 32)]},   # reuses the id
        ):
            got = tf.handle_request(dict(request))
            want = ref.handle_request(dict(request))
            assert got == want
        assert tf.admitted_ids() == [0, 1]


# ---------------------------------------------------------------------- #
# A release of several streams is one journal record
# ---------------------------------------------------------------------- #


class TestCrossShardRelease:
    def _two_stream_release(self, tmp_path=None):
        tf = TenantHost("t", TOPO, state_dir=tmp_path)
        a = admit(tf, spec(0, 2))["ids"][0]
        b = admit(tf, spec(30, 32))["ids"][0]
        return tf, a, b

    def test_release_spanning_shards(self):
        """Two channel-disjoint streams (two shards' worth, once) go in
        one release."""
        tf, a, b = self._two_stream_release()
        response = tf.handle_request({"op": "release", "ids": [a, b]})
        assert response["ok"] and sorted(response["released"]) == [a, b]
        assert tf.admitted_ids() == []

    def test_rollback_restores_both_shards(self, tmp_path):
        """A journal failure on the release leaves both streams as they
        were (the tenant's fingerprint unchanged), and the same-rid
        retry after a snapshot releases both."""
        tf, a, b = self._two_stream_release(tmp_path)
        before = tf.fingerprint()
        failing_next_append(tf)
        response = tf.handle_request(
            {"op": "release", "rid": "r-roll", "ids": [a, b]}
        )
        assert not response["ok"]
        assert response["code"] == "degraded"
        assert tf.admitted_ids() == sorted([a, b])
        assert tf.fingerprint() == before

        snap = tf.handle_request({"op": "snapshot"})
        assert snap["ok"], snap
        retry = tf.handle_request(
            {"op": "release", "rid": "r-roll", "ids": [a, b]}
        )
        assert retry["ok"] and not retry.get("duplicate")
        assert tf.admitted_ids() == []

        # And the state survives a disk recovery.
        recovered = TenantHost("t", TOPO, state_dir=tmp_path)
        assert recovered.fingerprint() == tf.fingerprint()
        recovered.close()
        tf.close()

    def test_release_unknown_id_matches_engine_message(self):
        tf, a, b = self._two_stream_release()
        ref = EngineHost(TOPO)
        got = tf.handle_request({"op": "release", "ids": [a, 99]})
        want = ref.handle_request({"op": "release", "ids": [99]})
        assert not got["ok"] and not want["ok"]
        assert got["error"] == "cannot release stream id(s) [99]: not admitted"
        assert got["code"] == want["code"] == "stream"
        # Atomic: the known id was not released either.
        assert a in tf.admitted_ids()


def test_a_failed_release_retries_to_what_the_journal_holds(
    tmp_path, monkeypatch
):
    """Two streams, ``release [0, 1]`` under rid ``x`` while the append
    that would record stream 1's release fails (``ENOSPC`` from the
    fault plane), a restart on the same state dir, then a retry of
    ``x``. The journal holds no release, so the retry must release both
    — never answer ``{"released": [0], "duplicate": true}`` while both
    streams are live. (With ``shards=2`` the sharded fleet released 0
    on one shard, compensated in memory only, and the restart brought
    the rid back.)"""
    plane = FaultPlane()
    real_append = BrokerState.append

    def append(state, op):
        if op.get("rid") == "x" and 1 in op.get("ids", ()):
            plane.arm(SITE_JOURNAL_APPEND, FaultSpec("disk_full"))
        return real_append(state, op)

    monkeypatch.setattr(BrokerState, "append", append)
    tenants = [TenantSpec("t", "k", TOPO)]
    fleet = Fleet(tenants, shards=2, state_dir=tmp_path, fault_plane=plane)
    assert admit_in(fleet, spec(0, 2))["ids"] == [0]
    assert admit_in(fleet, spec(30, 32))["ids"] == [1]
    failed = fleet.handle_request(
        "t", {"op": "release", "rid": "x", "ids": [0, 1]}
    )
    assert not failed["ok"] and failed["code"] == "degraded"
    assert plane.fired == {"disk_full": 1}
    fleet.close()

    monkeypatch.setattr(BrokerState, "append", real_append)
    fleet = Fleet(tenants, shards=2, state_dir=tmp_path)
    live = fleet.handle_request("t", {"op": "report"})["report"]["streams"]
    assert sorted(map(int, live)) == [0, 1]
    retry = fleet.handle_request(
        "t", {"op": "release", "rid": "x", "ids": [0, 1]}
    )
    assert retry == {"released": [0, 1], "ok": True}
    live = fleet.handle_request("t", {"op": "report"})["report"]["streams"]
    assert live == {}
    fleet.close()


def admit_in(fleet, *streams):
    return fleet.handle_request(
        "t", {"op": "admit", "streams": list(streams)}
    )


# ---------------------------------------------------------------------- #
# Recovery, and the fold of a sharded state dir
# ---------------------------------------------------------------------- #


def legacy_shard(root, shard):
    """An engine host over ``<root>/t/shard-<shard>/``: one shard of a
    state dir as the sharded fleet wrote it."""
    return EngineHost(TOPO, state_dir=Path(root) / "t" / f"shard-{shard}")


def open_tenant(root):
    return TenantHost("t", TOPO, state_dir=Path(root) / "t")


class TestRecovery:
    def test_recovery_is_bit_identical(self, tmp_path):
        tf = TenantHost("t", TOPO, state_dir=tmp_path)
        admit(tf, spec(0, 2))
        admit(tf, spec(3, 5))
        admit(tf, spec(1, 4))
        tf.handle_request({"op": "release", "ids": [0]})
        sha, _ = tf.fingerprint()
        tf.close()

        recovered = TenantHost("t", TOPO, state_dir=tmp_path)
        assert recovered.fingerprint()[0] == sha
        assert recovered.admitted_ids() == [1, 2]
        recovered.close()

    def test_recovery_repairs_spanning_component(self, tmp_path):
        """Streams that share channels but sit on different shards of a
        legacy dir (a migration torn by a crash) fold into one engine,
        which equals one engine holding all three."""
        s0, s1 = legacy_shard(tmp_path, 0), legacy_shard(tmp_path, 1)
        admit(s0, spec(0, 2))
        admit(s1, spec(3, 5, id=1))
        admit(s1, spec(1, 4, id=5))
        s0.close(), s1.close()

        recovered = open_tenant(tmp_path)
        assert recovered.admitted_ids() == [0, 1, 5]
        ref = EngineHost(TOPO)
        ref.handle_request({"op": "admit", "streams": [spec(0, 2)]})
        ref.handle_request({"op": "admit", "streams": [spec(3, 5)]})
        ref.handle_request({"op": "admit", "streams": [spec(1, 4, id=5)]})
        assert recovered.fingerprint() == ref.fingerprint()
        recovered.close()

    def test_restart_replays_merged_rid_outcomes(self, tmp_path):
        """A release spanning shards and a broadcast link op left their
        rid on both shards of a legacy dir, each recording its share;
        the fold merges the shares, so a retry gets the whole answer,
        exactly as one engine gives it."""
        s0, s1 = legacy_shard(tmp_path, 0), legacy_shard(tmp_path, 1)
        a = admit(s0, spec(0, 2))["ids"][0]
        b = admit(s0, spec(30, 32, id=1))["ids"][0]
        c = admit(s1, spec(12, 15, id=2))["ids"][0]
        ridded = [
            {"op": "fail_link", "rid": "L", "link": [0, 1]},
            {"op": "fail_link", "rid": "E", "link": [0, 6]},  # evicts a
            # Ascending: the merged share is sorted (no shard recorded
            # the request order).
            {"op": "release", "rid": "R", "ids": [b, c]},
        ]
        for request in ridded[:2]:
            for host in (s0, s1):
                assert host.handle_request(dict(request))["ok"]
        assert s0.handle_request({"op": "release", "rid": "R",
                                  "ids": [b]})["ok"]
        assert s1.handle_request({"op": "release", "rid": "R",
                                  "ids": [c]})["ok"]
        s0.close(), s1.close()
        ref = EngineHost(TOPO)
        for pair in ((0, 2), (30, 32), (12, 15)):
            admit(ref, spec(*pair))
        for request in ridded:
            assert ref.handle_request(dict(request))["ok"]
        assert a == 0

        recovered = open_tenant(tmp_path)
        for request in ridded:
            got = recovered.handle_request(dict(request))
            assert got["duplicate"], got
            assert got == ref.handle_request(dict(request)), request
        assert recovered.fingerprint() == ref.fingerprint()
        recovered.close()

    def test_recovery_dedupes_doubled_stream(self, tmp_path):
        """A crash between a migration's admit and its source release
        left the stream on two shards; the fold keeps one copy."""
        s0, s1 = legacy_shard(tmp_path, 0), legacy_shard(tmp_path, 1)
        admit(s0, spec(0, 2))
        admit(s1, spec(0, 2, id=0))
        s0.close(), s1.close()

        recovered = open_tenant(tmp_path)
        assert recovered.admitted_ids() == [0]
        ref = EngineHost(TOPO)
        ref.handle_request({"op": "admit", "streams": [spec(0, 2)]})
        assert recovered.fingerprint() == ref.fingerprint()
        recovered.close()


#: ``tests/golden/sharded_tenant/``, written by the sharded fleet (two
#: shards, 6x6 mesh) with its schedule in ``sharded_tenant.json``; the
#: same file holds what that code recovered from the dir.
LEGACY = GOLDEN / "sharded_tenant"
LEGACY_TOPO = {"type": "mesh", "width": 6, "height": 6, "routing": "default"}


def _legacy_copy(tmp_path):
    root = tmp_path / "state"
    shutil.copytree(LEGACY, root / "t")
    return root


def _assert_matches_sharded_recovery(root):
    """The tenant opened on ``root`` answers what the sharded fleet's
    recovery of the golden dir answered, and holds no shard dir."""
    expected = json.loads((GOLDEN / "sharded_tenant.json").read_text())
    fleet = Fleet([TenantSpec("t", "k", LEGACY_TOPO)], shards=2,
                  state_dir=root)
    try:
        ask = lambda request: fleet.handle_request("t", dict(request))
        assert ask({"op": "report"}) == expected["report"]
        assert ask({"op": "links"}) == expected["links"]
        assert ask({"op": "stats"})["next_id"] == expected["next_id"]
        for retry in expected["retries"]:
            assert ask(retry["request"]) == retry["answer"], retry
        assert sorted(p.name for p in (root / "t").iterdir()) == [
            "journal.jsonl", "snapshot.json"]
    finally:
        fleet.close()


class TestLegacyFold:
    def test_fold_matches_the_sharded_recovery(self, tmp_path):
        """Churn, releases spanning shards, a link failed and restored
        (rerouting a stream), two migrations, one in a snapshot and one
        in a journal: the fold answers ``report``, ``next_id`` and every
        rid's retry as the sharded code did."""
        _assert_matches_sharded_recovery(_legacy_copy(tmp_path))

    #: Where a crash can land in a fold: after each shard's recovery,
    #: after each compaction (both shards', then the tenant's snapshot),
    #: after the link catch-up, after each shard dir's removal.
    CRASH_POINTS = [
        (shards, "EngineHost", 1), (shards, "EngineHost", 2),
        (BrokerState, "compact", 1), (BrokerState, "compact", 2),
        (BrokerState, "compact", 3), (shards, "_catch_up_links", 1),
        (shards.shutil, "rmtree", 1), (shards.shutil, "rmtree", 2),
    ]

    @pytest.mark.parametrize(
        "owner,name,nth", CRASH_POINTS,
        ids=[f"{name}-{nth}" for _, name, nth in CRASH_POINTS],
    )
    def test_a_crash_after_each_fold_step_restarts_into_the_same_state(
        self, tmp_path, monkeypatch, owner, name, nth
    ):
        root = _legacy_copy(tmp_path)
        real = getattr(owner, name)
        calls = itertools.count(1)

        def crash_after(*args, **kwargs):
            out = real(*args, **kwargs)
            if next(calls) == nth:
                if isinstance(out, EngineHost) and out.state._journal_fh:
                    # The process dies: the OS releases the journal's
                    # descriptor, and what Python buffered is dropped.
                    out.state._journal_fh.raw.close()
                raise InjectedCrash(f"after {name} #{nth}")
            return out

        with monkeypatch.context() as patch:
            patch.setattr(owner, name, crash_after)
            with pytest.raises(InjectedCrash):
                Fleet([TenantSpec("t", "k", LEGACY_TOPO)], state_dir=root)
        _assert_matches_sharded_recovery(root)

    def test_a_crashed_fold_leaves_no_file_open(self, tmp_path, monkeypatch):
        """Whatever step of a fold crashes, every journal opened before
        it is closed: nothing is left for the collector to finalise. (A
        real crash closes everything; the simulated one closes what the
        crashing call itself returned.)"""
        gc.collect()    # what earlier tests left is theirs, not the fold's
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for owner, name, nth in self.CRASH_POINTS:
                real, calls = getattr(owner, name), itertools.count(1)

                def crash_after(*args, real=real, calls=calls, nth=nth,
                                **kwargs):
                    out = real(*args, **kwargs)
                    if next(calls) == nth:
                        if isinstance(out, EngineHost):
                            out.close()
                        raise InjectedCrash(f"after #{nth}")
                    return out

                root = _legacy_copy(tmp_path / f"{name}-{nth}")
                with monkeypatch.context() as patch:
                    patch.setattr(owner, name, crash_after)
                    with pytest.raises(InjectedCrash):
                        Fleet([TenantSpec("t", "k", LEGACY_TOPO)],
                              state_dir=root)
            gc.collect()   # a leaked journal would be finalised here
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)
                and str(tmp_path) in str(w.message)] == []

    def test_a_tenant_that_cannot_open_closes_those_before_it(
        self, tmp_path
    ):
        """A fleet whose second tenant refuses its state dir (another
        topology's) leaves no journal of the first one open."""
        other = {"type": "mesh", "width": 4, "height": 4}
        for name, topo in (("a", TOPO), ("b", other)):
            host = TenantHost(name, topo, state_dir=tmp_path / name)
            admit(host, spec(0, 2))
            assert host.handle_request({"op": "snapshot"})["ok"]
            host.close()
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ReproError, match="topology"):
                Fleet([TenantSpec("a", "ka", TOPO),
                       TenantSpec("b", "kb", TOPO)], state_dir=tmp_path)
            gc.collect()
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)
                and str(tmp_path) in str(w.message)] == []

    def test_shard_dirs_beside_a_tenant_snapshot_are_dropped(self, tmp_path):
        """A tenant snapshot means the fold finished: shard dirs left
        beside it are leftovers, not state."""
        host = open_tenant(tmp_path)
        admit(host, spec(0, 2))
        assert host.handle_request({"op": "snapshot"})["ok"]
        host.close()
        leftover = legacy_shard(tmp_path, 0)
        admit(leftover, spec(30, 32))
        leftover.close()

        reopened = open_tenant(tmp_path)
        assert reopened.admitted_ids() == [0]
        assert not (tmp_path / "t" / "shard-0").exists()
        reopened.close()


# ---------------------------------------------------------------------- #
# Kill / failover
# ---------------------------------------------------------------------- #


class TestDeadShards:
    def test_ops_on_dead_shard_fail_clearly(self):
        tf = TenantHost("t", TOPO)
        a = admit(tf, spec(0, 2))["ids"][0]
        assert tf.handle_request({"op": "kill"}) == {
            "killed": "t", "ok": True}
        response = tf.handle_request({"op": "release", "ids": [a]})
        assert not response["ok"]
        assert "down" in response["error"]
        q = tf.handle_request({"op": "query", "stream": a})
        assert not q["ok"] and "down" in q["error"]
        rep = tf.handle_request({"op": "report"})
        assert not rep["ok"] and "down" in rep["error"]

    def test_down_refusals_carry_their_own_code(self):
        """Retry loops key on ``code: "down"`` (fail over, then retry),
        never on the message."""
        tf = TenantHost("t", TOPO)
        a = admit(tf, spec(0, 2))["ids"][0]
        tf.handle_request({"op": "kill"})
        for request in (
            {"op": "admit", "streams": [spec(0, 3)]},
            {"op": "query", "stream": a},
            {"op": "report"},
            {"op": "stats"},
        ):
            response = tf.handle_request(request)
            assert not response["ok"] and response["code"] == "down", (
                request, response)

    def test_other_shards_keep_serving(self):
        """A killed tenant takes no other tenant down."""
        fleet = Fleet([TenantSpec("a", "ka", TOPO),
                       TenantSpec("b", "kb", TOPO)])
        for name in ("a", "b"):
            assert fleet.handle_request(
                name, {"op": "admit", "streams": [spec(0, 2)]})["ok"]
        assert fleet.handle_request("a", {"op": "kill"})["ok"]
        assert fleet.handle_request("b", {"op": "query", "stream": 0})["ok"]
        healthy, rows = fleet.health(fleet.stats())
        assert not healthy
        assert rows == {
            "a": {"admitted": None, "dead": True, "degraded": False},
            "b": {"admitted": 1, "dead": False, "degraded": False},
        }

    def test_replace_host_revives_shard(self, tmp_path):
        """Failover reopens the tenant the way a restart does (its
        journal replayed): it serves again, and keeps journaling what a
        fresh, independent reading of its journal agrees with."""
        tf = TenantHost("t", TOPO, state_dir=tmp_path)
        a = admit(tf, spec(0, 2))["ids"][0]
        admit(tf, spec(30, 32))
        tf.handle_request({"op": "kill"})
        assert not tf.handle_request({"op": "query", "stream": a})["ok"]
        assert tf.handle_request({"op": "failover"}) == {
            "recovered": "t", "admitted": 2, "ok": True}
        assert tf.handle_request({"op": "query", "stream": a})["ok"]
        assert not tf.dead
        assert admit(tf, spec(5, 7))["ok"]
        assert_books_exact(tf)
        oracle = ShardStandby(tmp_path, TOPO)
        oracle.catch_up()
        assert oracle.fingerprint()[0] == tf.fingerprint()[0]
        tf.close()

    def test_failover_keeps_the_counters_and_counts_itself(self, tmp_path):
        """The service counters are the tenant's: a failover reopens its
        host, not its books, and is itself an op that was served."""
        tf = TenantHost("t", TOPO, state_dir=tmp_path)
        for _ in range(5):
            tf.handle_request({"op": "ping"})
        admit(tf, spec(0, 2))
        assert tf.handle_request({"op": "stats"})["service"]["ops"] == {
            "admit": 1, "ping": 5}
        tf.handle_request({"op": "kill"})
        assert tf.handle_request({"op": "failover"})["ok"]
        service = tf.handle_request({"op": "stats"})["service"]
        assert service["ops"] == {
            "admit": 1, "failover": 1, "kill": 1, "ping": 5, "stats": 1}
        assert service["admit"]["accepted"] == 1
        # The journal figures are the reopened host's.
        assert service["journal"]["records"] == tf.state.records
        tf.close()

    def test_fleet_recover_swaps_and_recovers_again(self, tmp_path):
        """Through the multi-tenant shell: the tenant can be killed and
        failed over twice, its journal still agreeing with an
        independent reading of it."""
        fleet = Fleet(
            [TenantSpec("t", "k", TOPO)], shards=2, state_dir=tmp_path
        )
        tf = fleet.tenants["t"]
        a = fleet.handle_request(
            "t", {"op": "admit", "streams": [spec(0, 2)]}
        )["ids"][0]
        fleet.handle_request("t", {"op": "admit", "streams": [spec(8, 10)]})

        assert fleet.handle_request("t", {"op": "kill"})["ok"]
        assert not fleet.handle_request(
            "t", {"op": "query", "stream": a}
        )["ok"]
        assert fleet.handle_request("t", {"op": "failover"})["ok"]
        assert fleet.handle_request("t", {"op": "query", "stream": a})["ok"]

        fleet.handle_request("t", {"op": "admit", "streams": [spec(5, 7)]})
        sha = tf.fingerprint()[0]
        fleet.handle_request("t", {"op": "kill"})
        fleet.handle_request("t", {"op": "failover"})
        assert tf.fingerprint()[0] == sha
        oracle = ShardStandby(tmp_path / "t", TOPO)
        oracle.catch_up()
        assert oracle.fingerprint()[0] == sha
        fleet.close()

    def test_recover_shard_requires_persistence(self):
        tf = TenantHost("t", TOPO)
        tf.handle_request({"op": "kill"})
        response = tf.handle_request({"op": "failover"})
        assert not response["ok"] and response["code"] == "protocol"
        assert "persistent" in response["error"]
        assert tf.dead

    def test_recover_after_a_snapshot_that_holds_failed_links(
        self, tmp_path
    ):
        """A tenant failed over from a snapshot taken while a link was
        down restores the link set before the streams, and its
        fingerprint does not move."""
        tf = TenantHost("t", TOPO, state_dir=tmp_path)
        for request in (
            {"op": "admit", "streams": [spec(0, 3)]},
            {"op": "fail_link", "link": [1, 2]},
            {"op": "snapshot"},
        ):
            assert tf.handle_request(request)["ok"]
        sha = tf.fingerprint()[0]
        tf.handle_request({"op": "kill"})
        tf.handle_request({"op": "failover"})
        assert tf.links_spec() == [[1, 2]]
        assert tf.fingerprint()[0] == sha

        # And the other way: restored again before the next snapshot.
        for request in (
            {"op": "restore_link", "link": [1, 2]},
            {"op": "snapshot"},
        ):
            assert tf.handle_request(request)["ok"]
        sha = tf.fingerprint()[0]
        tf.handle_request({"op": "kill"})
        tf.handle_request({"op": "failover"})
        assert tf.links_spec() == []
        assert tf.fingerprint()[0] == sha
        tf.close()

    def test_recovered_shard_still_trips_an_armed_journal_fault(
        self, tmp_path
    ):
        """A failed-over tenant is opened like every tenant: on the
        fleet's fault plane, so chaos keeps injecting into it."""
        plane = FaultPlane()
        tf = TenantHost("t", TOPO, state_dir=tmp_path, fault_plane=plane)
        assert admit(tf, spec(0, 2))["ok"]
        tf.handle_request({"op": "kill"})
        tf.handle_request({"op": "failover"})
        plane.arm(SITE_JOURNAL_APPEND, FaultSpec("crash_after_append"))
        with pytest.raises(InjectedCrash):
            admit(tf, spec(4, 6))
        assert plane.fired == {"crash_after_append": 1}
        tf.close()

    def test_kill_bounds_checked(self):
        """A kill names a tenant the caller may act on: an unknown one
        is an ``auth`` refusal and kills nothing."""
        fleet = Fleet([TenantSpec("t", "k", TOPO)])
        response = fleet.handle_request("nope", {"op": "kill"})
        assert not response["ok"] and response["code"] == "auth"
        assert not fleet.tenants["t"].dead


# ---------------------------------------------------------------------- #
# Fleet (multi-tenant shell)
# ---------------------------------------------------------------------- #


class TestFleet:
    def _fleet(self, **kw):
        return Fleet(
            [TenantSpec("acme", "k1", TOPO),
             TenantSpec("beta", "k2", TOPO)],
            **kw,
        )

    def test_tenants_are_isolated(self):
        fleet = self._fleet()
        r1 = fleet.handle_request(
            "acme", {"op": "admit", "streams": [spec(0, 2)]}
        )
        r2 = fleet.handle_request(
            "beta", {"op": "admit", "streams": [spec(0, 2)]}
        )
        # Identical specs, identical ids: separate id spaces, separate
        # engines, no interference between the bounds.
        assert r1["ids"] == r2["ids"] == [0]
        assert fleet.handle_request("beta", {"op": "query", "stream": 0})["ok"]
        fleet.handle_request("beta", {"op": "release", "ids": [0]})
        assert fleet.handle_request(
            "acme", {"op": "query", "stream": 0}
        )["ok"], "acme's stream must survive beta's release"

    def test_unknown_tenant_is_auth_error(self):
        fleet = self._fleet()
        response = fleet.handle_request("nope", {"op": "hello"})
        assert not response["ok"] and response["code"] == "auth"

    def test_key_routing(self):
        fleet = self._fleet()
        assert fleet.tenant_for_key("k1") == "acme"
        assert fleet.tenant_for_key("k2") == "beta"
        assert fleet.tenant_for_key("wrong") is None
        assert fleet.tenant_for_key(None) is None

    def test_duplicate_names_or_keys_rejected(self):
        with pytest.raises(ReproError):
            Fleet([TenantSpec("a", "k1", TOPO), TenantSpec("a", "k2", TOPO)])
        with pytest.raises(ReproError):
            Fleet([TenantSpec("a", "k", TOPO), TenantSpec("b", "k", TOPO)])

    def test_prometheus_rollup(self):
        fleet = self._fleet()
        fleet.handle_request(
            "acme", {"op": "admit", "streams": [spec(0, 2)]}
        )
        text = export_stats(fleet.stats()).render()
        assert 'repro_engine_admitted_streams{tenant="acme"} 1' in text
        assert 'repro_engine_admitted_streams{tenant="beta"} 0' in text
        assert 'repro_broker_degraded{tenant="acme"} 0' in text
        assert 'repro_engine_admits_total{tenant="acme"} 1' in text
        assert 'repro_broker_journal_records{tenant="acme"}' in text
        assert 'repro_broker_ops_total{op="admit",tenant="acme"} 1' in text
        for gone in ("repro_fleet_shard_", "repro_fleet_escalations_total",
                     "repro_fleet_migrated_streams_total",
                     "repro_fleet_tenant_", "repro_fleet_ops_total"):
            assert gone not in text

    def test_scrape_while_another_thread_places_streams(self, tmp_path):
        """With workers, one caller's thread may run a tenant's ops while
        another renders ``/metrics`` from its ``stats`` answer: the
        worker answers one request at a time, so a scrape never catches
        the engine mid-update (``dictionary changed size during
        iteration``). A tenant in this process is single-writer (the
        gateway's loop thread)."""
        fleet = self._fleet(state_dir=tmp_path, workers=1)
        live = []

        def place(count):
            # One-hop streams: many small closures, cheap to analyse.
            for i in range(count):
                src = 6 * (i % 6) + i // 6 % 5
                response = fleet.handle_request("acme", {
                    "op": "admit",
                    "streams": [spec(src, src + 1, priority=1 + i % 9,
                                     period=500_000, length=1,
                                     deadline=500_000)],
                })
                assert response["admitted"], response
                live.extend(response["ids"])

        place(400)   # a set long enough to be caught inside
        stop = threading.Event()
        failures = []

        def churn():
            try:
                while not stop.is_set():
                    fleet.handle_request(
                        "acme", {"op": "release", "ids": [live.pop(0)]}
                    )
                    place(1)
                    time.sleep(0)   # let the scraper at the client's lock
            except Exception as exc:  # the assertion below reports it
                failures.append(exc)

        driver = threading.Thread(target=churn)
        scrapes = 0
        try:
            driver.start()
            # Twenty scrapes while the other thread churns (how long
            # they take depends on who wins the client's lock).
            deadline = time.monotonic() + 30
            while (scrapes < 20 and time.monotonic() < deadline
                   and driver.is_alive()):
                text = export_stats(fleet.stats()).render()
                assert "repro_engine_admitted_streams" in text
                scrapes += 1
        finally:
            stop.set()
            driver.join(timeout=60)
            fleet.close()
        assert not driver.is_alive() and not failures
        assert scrapes >= 20

    def test_hello_names_tenant(self):
        fleet = self._fleet(shards=2)
        hello = fleet.handle_request("acme", {"op": "hello"})
        assert hello["server"] == "repro-fleet"
        assert hello["tenant"] == "acme"
        assert "shards" not in hello

    def test_fingerprint_spec_shape_matches_host(self):
        """The tenant fingerprint is byte-compatible with EngineHost's —
        that equality is what every oracle comparison rests on."""
        tf = TenantHost("t", TOPO)
        ref = EngineHost(TOPO)
        for target in (tf, ref):
            target.handle_request(
                {"op": "admit", "streams": [spec(0, 2)]}
            )
        sha_f, spec_f = tf.fingerprint()
        sha_r, spec_r = ref.fingerprint()
        assert sha_f == sha_r
        assert json.dumps(spec_f, sort_keys=True) == json.dumps(
            spec_r, sort_keys=True
        )


# ---------------------------------------------------------------------- #
# The books: what a tenant holds in memory is what its disk recovers
# ---------------------------------------------------------------------- #


_copies = itertools.count()


def assert_books_exact(host):
    """A tenant's memory equals what its journal holds, right now.

    A fresh host recovered from a copy of its state dir must have the
    same fingerprint, next_id, per-stream analyses and rid table — the
    fuzzes call this after every op, so no op history can make memory
    and disk drift.
    """
    state_dir = host.state.dir
    copy = state_dir.parent / f"{state_dir.name}-books-{next(_copies)}"
    shutil.copytree(state_dir, copy)
    fresh = EngineHost(host.topology_spec, state_dir=copy)
    try:
        assert fresh.fingerprint() == host.fingerprint()
        assert fresh._admitted_analyses() == host._admitted_analyses()
        assert dict(fresh._applied) == dict(host._applied)
    finally:
        fresh.close()
        shutil.rmtree(copy)


@contextlib.contextmanager
def recovered_copy(state_dir, tenants):
    """An in-process :class:`Fleet` opened over a copy of ``state_dir``
    (a worker fleet's, live): what a restart would recover, read without
    touching the original."""
    state_dir = Path(state_dir)
    copy = state_dir.parent / f"{state_dir.name}-copy-{next(_copies)}"
    shutil.copytree(state_dir, copy,
                    ignore=shutil.ignore_patterns("workers"))
    fleet = Fleet(tenants, state_dir=copy)
    try:
        yield fleet
    finally:
        fleet.close()
        shutil.rmtree(copy)


class TestPlacementTable:
    def test_books_follow_admit_escalate_release_and_recovery(self, tmp_path):
        """Memory and journal agree through an admit under a second
        backend, a batch bridging two groups of streams, a release and
        a restart, which keeps each stream's analysis."""
        tf = TenantHost("t", TOPO, state_dir=tmp_path)
        admit(tf, spec(0, 2), analysis="tighter")
        assert_books_exact(tf)
        admit(tf, spec(3, 5))
        assert_books_exact(tf)
        admit(tf, spec(0, 2, priority=4), spec(3, 5, priority=4))
        assert_books_exact(tf)
        tf.handle_request({"op": "release", "ids": [1]})
        assert_books_exact(tf)
        analyses = tf._admitted_analyses()
        assert analyses[0] == "tighter"
        tf.close()
        recovered = TenantHost("t", TOPO, state_dir=tmp_path)
        assert recovered._admitted_analyses() == analyses
        assert_books_exact(recovered)
        recovered.close()

    def test_rejected_admit_leaves_no_trial_bounds_behind(self):
        tf = TenantHost("t", TOPO)
        admit(tf, spec(0, 2))
        tight = spec(0, 2, priority=1, period=5, length=8, deadline=5)
        assert not admit(tf, tight)["admitted"]
        # The bound the refused trial would have caused is not served.
        other = admit(tf, spec(30, 32))
        ref = EngineHost(TOPO)
        ref.handle_request({"op": "admit", "streams": [spec(0, 2)]})
        ref.handle_request({"op": "admit", "streams": [tight]})
        want = ref.handle_request({"op": "admit", "streams": [spec(30, 32)]})
        assert other["bounds"] == want["bounds"]

    def test_compensated_cross_shard_release_keeps_the_books(self, tmp_path):
        """A release whose journal append fails is rolled back in
        memory, analyses included, and memory still matches the disk."""
        tf = TenantHost("t", TOPO, state_dir=tmp_path)
        a = admit(tf, spec(0, 2), analysis="tighter")["ids"][0]
        b = admit(tf, spec(30, 32))["ids"][0]
        before = tf.fingerprint()
        analyses = tf._admitted_analyses()
        failing_next_append(tf)
        response = tf.handle_request({"op": "release", "ids": [a, b]})
        assert not response["ok"] and response["code"] == "degraded"
        assert tf._admitted_analyses() == analyses
        assert_books_exact(tf)
        assert tf.fingerprint() == before
        tf.close()

    def test_link_rollback_keeps_the_books(self, tmp_path):
        """A link op that evicts a stream and then fails to journal
        restores the link and re-admits the evicted stream."""
        tf = TenantHost("t", TOPO, state_dir=tmp_path)
        tf.handle_request({"op": "fail_link", "link": [0, 6]})
        a = admit(tf, spec(0, 2), analysis="tighter")["ids"][0]
        admit(tf, spec(30, 32))
        before = tf.fingerprint()
        failing_next_append(tf)
        # With 0-6 already down, losing 0-1 disconnects node 0: the op
        # evicts stream `a` before its journal append fails.
        response = tf.handle_request({"op": "fail_link", "link": [0, 1]})
        assert not response["ok"] and response["code"] == "degraded"
        assert tf.links_spec() == [[0, 6]]
        assert a in tf.engine.admitted, "evicted stream not re-admitted"
        assert tf.engine.analysis_of(a) == "tighter"
        assert_books_exact(tf)
        assert tf.handle_request({"op": "snapshot"})["ok"]
        assert tf.fingerprint() == before
        tf.close()
