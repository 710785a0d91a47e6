"""Shard manager tests: placement, escalation, atomicity, recovery.

The fleet's contract is that sharding is *invisible* in every verdict:
placement by channel-connected components plus escalation-by-migration
must produce responses byte-identical to one engine holding the whole
tenant (the fuzzed proof lives in ``test_fleet_equivalence.py``; here
are the targeted edges).
"""

import contextlib
import itertools
import json
import shutil
import sys
import threading
import time

from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.faults.plane import (
    SITE_JOURNAL_APPEND,
    FaultPlane,
    FaultSpec,
    InjectedCrash,
)
from repro.fleet.regions import ChannelIndex, entry_channels
from repro.fleet.replication import ShardStandby
from repro.fleet.shards import Fleet, TenantFleet, TenantSpec
from repro.service.host import EngineHost
from repro.topology.route_table import shared_route_table

TOPO = {"type": "mesh", "width": 6, "height": 6}


def spec(src, dst, *, priority=5, period=300, length=4, deadline=300,
         **extra):
    out = {"src": src, "dst": dst, "priority": priority, "period": period,
           "length": length, "deadline": deadline}
    out.update(extra)
    return out


def admit(fleet, *streams, rid=None, **kw):
    request = {"op": "admit", "streams": list(streams), **kw}
    if rid is not None:
        request["rid"] = rid
    return fleet.handle_request(request)


# ---------------------------------------------------------------------- #
# ChannelIndex
# ---------------------------------------------------------------------- #


class TestChannelIndex:
    def test_components_split_and_merge(self):
        tf = TenantFleet("t", TOPO, shards=1)
        table = shared_route_table(tf.routing)
        a = entry_channels(table, tf.topology, 0, 2)       # links 0-1, 1-2
        b = entry_channels(table, tf.topology, 3, 5)       # links 3-4, 4-5
        bridge = entry_channels(table, tf.topology, 1, 4)  # 1-2, 2-3, 3-4

        idx = ChannelIndex()
        idx.add(1, a)
        idx.add(2, b)
        assert idx.component(a) == {1}
        assert idx.component(b) == {2}
        assert sorted(map(sorted, idx.components())) == [[1], [2]]

        # The bridge stream's channel set touches both -> one component.
        assert idx.component(bridge) == {1, 2}
        idx.add(3, bridge)
        assert sorted(map(sorted, idx.components())) == [[1, 2, 3]]

        # Removing the bridge splits the component again.
        idx.remove(3)
        assert sorted(map(sorted, idx.components())) == [[1], [2]]

    def test_touching_is_direct_only(self):
        tf = TenantFleet("t", TOPO, shards=1)
        table = shared_route_table(tf.routing)
        idx = ChannelIndex()
        # A chain: 1 and 2 share link 1-2, 2 and 3 share link 2-3.
        idx.add(1, entry_channels(table, tf.topology, 0, 2))
        idx.add(2, entry_channels(table, tf.topology, 1, 3))
        idx.add(3, entry_channels(table, tf.topology, 2, 4))
        probe = entry_channels(table, tf.topology, 0, 1)
        # Direct sharing reaches only stream 1; the component closure
        # walks the chain 1-2-3.
        assert idx.touching(probe) == {1}
        assert idx.component(probe) == {1, 2, 3}


# ---------------------------------------------------------------------- #
# Placement + escalation
# ---------------------------------------------------------------------- #


class TestPlacement:
    def test_disjoint_streams_spread_over_shards(self):
        tf = TenantFleet("t", TOPO, shards=2)
        admit(tf, spec(0, 2))    # row 0
        admit(tf, spec(30, 32))  # row 5
        shards = {tf.owner[sid] for sid in tf.owner}
        assert shards == {0, 1}
        assert tf.escalations == 0

    def test_bridge_stream_escalates_and_migrates(self):
        """A stream bridging two regions forces them onto one shard."""
        tf = TenantFleet("t", TOPO, shards=2)
        r1 = admit(tf, spec(0, 2))
        r2 = admit(tf, spec(3, 5))
        assert tf.owner[r1["ids"][0]] != tf.owner[r2["ids"][0]]

        r3 = admit(tf, spec(1, 4))  # shares links with both regions
        assert r3["ok"], r3
        owners = {tf.owner[sid] for sid in tf.owner}
        assert len(owners) == 1, "bridged component must live on one shard"
        assert tf.escalations == 1
        assert tf.migrated_streams >= 1
        # The moved stream is gone from its source engine.
        for i, host in enumerate(tf.hosts):
            expected = [s for s, o in tf.owner.items() if o == i]
            assert list(host.engine.admitted.ids()) == sorted(expected)

    def test_bridge_mid_churn_matches_single_engine(self):
        """Escalation under interleaved admits/releases stays
        bit-identical to the unsharded reference."""
        tf = TenantFleet("t", TOPO, shards=2)
        ref = EngineHost(TOPO)

        def step(request):
            got = tf.handle_request(dict(request))
            want = ref.handle_request(dict(request))
            assert got == want, request
            return got

        step({"op": "admit", "streams": [spec(0, 2)]})          # id 0
        step({"op": "admit", "streams": [spec(3, 5)]})          # id 1
        assert tf.owner[0] != tf.owner[1]
        # Churn: a third region comes and goes while the first two live.
        step({"op": "admit", "streams": [spec(30, 32)]})        # id 2
        step({"op": "release", "ids": [2]})
        # The bridge lands mid-churn and stitches regions 0 and 1.
        step({"op": "admit", "streams": [spec(1, 4, priority=7)]})  # id 3
        assert tf.escalations == 1
        assert len({tf.owner[sid] for sid in (0, 1, 3)}) == 1
        step({"op": "admit", "streams": [spec(24, 26)]})        # id 4
        step({"op": "release", "ids": [1]})
        step({"op": "report"})
        assert tf.fingerprint() == ref.fingerprint()

    def test_verdicts_identical_to_single_engine(self):
        tf = TenantFleet("t", TOPO, shards=4)
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


# ---------------------------------------------------------------------- #
# Tenant-level ids mirror the engine exactly
# ---------------------------------------------------------------------- #


class TestIds:
    def test_fresh_ids_are_sequential_across_shards(self):
        tf = TenantFleet("t", TOPO, shards=2)
        ids = []
        for src, dst in ((0, 2), (30, 32), (12, 14)):
            ids.extend(admit(tf, spec(src, dst))["ids"])
        assert ids == [0, 1, 2]

    def test_explicit_id_advances_high_water_mark(self):
        tf = TenantFleet("t", TOPO, shards=2)
        ref = EngineHost(TOPO)
        for request in (
            {"op": "admit", "streams": [spec(0, 2, id=7)]},
            {"op": "admit", "streams": [spec(30, 32)]},  # gets 8
        ):
            assert (tf.handle_request(dict(request))
                    == ref.handle_request(dict(request)))
        assert sorted(tf.owner) == [7, 8]

    def test_duplicate_ids_rejected_like_engine(self):
        tf = TenantFleet("t", TOPO, shards=2)
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
        tf = TenantFleet("t", TOPO, shards=2)
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
        assert sorted(tf.owner) == [0, 1]


# ---------------------------------------------------------------------- #
# Cross-shard release atomicity
# ---------------------------------------------------------------------- #


class TestCrossShardRelease:
    def _two_shard_release(self, tmp_path=None):
        tf = TenantFleet(
            "t", TOPO, shards=2,
            state_dir=None if tmp_path is None else tmp_path,
        )
        a = admit(tf, spec(0, 2))["ids"][0]
        b = admit(tf, spec(30, 32))["ids"][0]
        assert tf.owner[a] != tf.owner[b]
        return tf, a, b

    def test_release_spanning_shards(self):
        tf, a, b = self._two_shard_release()
        response = tf.handle_request({"op": "release", "ids": [a, b]})
        assert response["ok"] and sorted(response["released"]) == [a, b]
        assert not tf.owner and len(tf.index) == 0

    def test_rollback_restores_both_shards(self, tmp_path):
        """Journal failure on the *second* shard: the first shard's
        already-committed release must be compensated, leaving the
        fleet's state (and fingerprint) exactly as before the op."""
        tf, a, b = self._two_shard_release(tmp_path)
        before = tf.fingerprint()
        second = tf.hosts[max(tf.owner[a], tf.owner[b])]

        # One-shot injected journal failure on the higher shard only
        # (releases iterate shards ascending, so the lower one commits
        # first and must be rolled back).
        real_append = second.state.append

        def failing_append(op):
            second.state.append = real_append
            raise OSError(28, "injected: no space left on device")

        second.state.append = failing_append
        response = tf.handle_request(
            {"op": "release", "rid": "r-roll", "ids": [a, b]}
        )
        assert not response["ok"]
        assert response["code"] == "degraded"

        # Nothing released anywhere; bounds and closures unchanged.
        assert sorted(tf.owner) == sorted([a, b])
        assert tf.fingerprint() == before
        for sid in (a, b):
            host = tf.hosts[tf.owner[sid]]
            assert sid in host.engine.admitted

        # Clear degraded mode, then the *same rid* retry releases both
        # (the rollback must have dropped the partial rid record).
        snap = tf.handle_request({"op": "snapshot"})
        assert snap["ok"], snap
        retry = tf.handle_request(
            {"op": "release", "rid": "r-roll", "ids": [a, b]}
        )
        assert retry["ok"] and not retry.get("duplicate")
        assert not tf.owner

        # And the rolled-back state survives a disk recovery.
        recovered = TenantFleet("t", TOPO, shards=2, state_dir=tmp_path)
        assert recovered.fingerprint() == tf.fingerprint()
        recovered.close()
        tf.close()

    def test_release_unknown_id_matches_engine_message(self):
        tf, a, b = self._two_shard_release()
        ref = EngineHost(TOPO)
        got = tf.handle_request({"op": "release", "ids": [a, 99]})
        want = ref.handle_request({"op": "release", "ids": [99]})
        assert not got["ok"] and not want["ok"]
        assert got["error"] == "cannot release stream id(s) [99]: not admitted"
        assert got["code"] == want["code"] == "stream"
        # Atomic: the known id was not released either.
        assert a in tf.owner


# ---------------------------------------------------------------------- #
# Fleet recovery
# ---------------------------------------------------------------------- #


class TestRecovery:
    def test_recovery_is_bit_identical(self, tmp_path):
        tf = TenantFleet("t", TOPO, shards=2, state_dir=tmp_path)
        admit(tf, spec(0, 2))
        admit(tf, spec(3, 5))
        admit(tf, spec(1, 4))  # escalation -> migration journaled
        tf.handle_request({"op": "release", "ids": [0]})
        sha, _ = tf.fingerprint()
        owner = dict(tf.owner)
        tf.close()

        recovered = TenantFleet("t", TOPO, shards=2, state_dir=tmp_path)
        assert recovered.fingerprint()[0] == sha
        assert recovered.owner == owner
        recovered.close()

    def test_recovery_repairs_spanning_component(self, tmp_path):
        """Streams that share channels but recovered onto different
        shards (e.g. a migration torn by a crash) are re-merged."""
        tf = TenantFleet("t", TOPO, shards=2, state_dir=tmp_path)
        admit(tf, spec(0, 2))
        admit(tf, spec(3, 5))
        # Forge the torn state: admit the bridge directly on whichever
        # shard does NOT hold stream 0, bypassing fleet placement.
        target = 1 - tf.owner[0]
        tf.hosts[target].handle_request(
            {"op": "admit", "streams": [spec(1, 4, id=5)]}
        )
        tf.close()

        recovered = TenantFleet("t", TOPO, shards=2, state_dir=tmp_path)
        assert sorted(recovered.owner) == [0, 1, 5]
        owners = {recovered.owner[sid] for sid in (0, 1, 5)}
        assert len(owners) == 1, "connected component must be re-merged"
        # The merged state equals one engine holding all three.
        ref = EngineHost(TOPO)
        ref.handle_request({"op": "admit", "streams": [spec(0, 2)]})
        ref.handle_request({"op": "admit", "streams": [spec(3, 5)]})
        ref.handle_request({"op": "admit", "streams": [spec(1, 4, id=5)]})
        assert recovered.fingerprint() == ref.fingerprint()
        recovered.close()

    def test_restart_replays_merged_rid_outcomes(self, tmp_path):
        """A cross-shard release and a broadcast link op leave their rid
        on several shards, each recording its own share; a fleet
        restarted from disk merges the shares, so a retry gets the whole
        answer, exactly as one engine gives it."""
        tf = TenantFleet("t", TOPO, shards=2, state_dir=tmp_path)
        ref = EngineHost(TOPO)
        a, b, c = (admit(tf, spec(*pair))["ids"][0]
                   for pair in ((0, 2), (30, 32), (12, 15)))
        assert tf.owner[b] != tf.owner[c]
        ridded = [
            {"op": "fail_link", "rid": "L", "link": [0, 1]},
            {"op": "fail_link", "rid": "E", "link": [0, 6]},  # evicts a
            # Ascending: the merged share is sorted (no shard records
            # the request order).
            {"op": "release", "rid": "R", "ids": [b, c]},
        ]
        for pair in ((0, 2), (30, 32), (12, 15)):
            admit(ref, spec(*pair))
        for request in ridded:
            got = tf.handle_request(dict(request))
            assert got == ref.handle_request(dict(request)), request
        tf.close()

        recovered = TenantFleet("t", TOPO, shards=2, state_dir=tmp_path)
        for request in ridded:
            got = recovered.handle_request(dict(request))
            assert got["duplicate"], got
            assert got == ref.handle_request(dict(request)), request
        assert recovered.fingerprint() == ref.fingerprint()
        recovered.close()

    def test_recovery_dedupes_doubled_stream(self, tmp_path):
        """A crash between migration admit and source release leaves the
        stream on two shards; recovery keeps one copy."""
        tf = TenantFleet("t", TOPO, shards=2, state_dir=tmp_path)
        admit(tf, spec(0, 2))
        # Duplicate stream 0 onto the other shard, as a torn migration
        # (admit-then-release, crashed before the release) would.
        other = 1 - tf.owner[0]
        tf.hosts[other].handle_request(
            {"op": "admit", "streams": [spec(0, 2, id=0)]}
        )
        tf.close()

        recovered = TenantFleet("t", TOPO, shards=2, state_dir=tmp_path)
        assert sorted(recovered.owner) == [0]
        copies = sum(
            1 for host in recovered.hosts if 0 in host.engine.admitted
        )
        assert copies == 1
        ref = EngineHost(TOPO)
        ref.handle_request({"op": "admit", "streams": [spec(0, 2)]})
        assert recovered.fingerprint() == ref.fingerprint()
        recovered.close()


# ---------------------------------------------------------------------- #
# Kill / failover gating
# ---------------------------------------------------------------------- #


class TestDeadShards:
    def test_ops_on_dead_shard_fail_clearly(self):
        tf = TenantFleet("t", TOPO, shards=2)
        a = admit(tf, spec(0, 2))["ids"][0]
        tf.kill_host(tf.owner[a])
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
        tf = TenantFleet("t", TOPO, shards=2)
        a = admit(tf, spec(0, 2))["ids"][0]
        tf.kill_host(tf.owner[a])
        for request in (
            {"op": "admit", "streams": [spec(0, 3)]},
            {"op": "query", "stream": a},
            {"op": "report"},
        ):
            response = tf.handle_request(request)
            assert not response["ok"] and response["code"] == "down", (
                request, response)

    def test_other_shards_keep_serving(self):
        tf = TenantFleet("t", TOPO, shards=2)
        a = admit(tf, spec(0, 2))["ids"][0]
        b = admit(tf, spec(30, 32))["ids"][0]
        tf.kill_host(tf.owner[a])
        q = tf.handle_request({"op": "query", "stream": b})
        assert q["ok"]

    def test_replace_host_revives_shard(self, tmp_path):
        """Failover replaces the dead host with the one a restart opens
        (its journal replayed): the shard serves again, and keeps
        journaling what a fresh, independent reading of its journal
        agrees with."""
        tf = TenantFleet("t", TOPO, shards=2, state_dir=tmp_path)
        a = admit(tf, spec(0, 2))["ids"][0]
        admit(tf, spec(30, 32))
        shard = tf.owner[a]
        tf.kill_host(shard)
        assert not tf.handle_request({"op": "query", "stream": a})["ok"]
        tf.recover_shard(shard)
        assert tf.handle_request({"op": "query", "stream": a})["ok"]
        assert not tf.dead
        assert admit(tf, spec(5, 7))["ok"]
        assert_books_exact(tf)
        for i, host in enumerate(tf.hosts):
            oracle = ShardStandby(tmp_path / f"shard-{i}", TOPO)
            oracle.catch_up()
            assert oracle.fingerprint()[0] == host.fingerprint()[0]
        tf.close()

    def test_fleet_recover_swaps_and_recovers_again(self, tmp_path):
        """Through the multi-tenant shell: the recovered host replaces
        the dead one, and the same shard can be killed and recovered a
        second time, its journal still agreeing with an independent
        reading of it."""
        fleet = Fleet(
            [TenantSpec("t", "k", TOPO)], shards=2, state_dir=tmp_path
        )
        tf = fleet.tenants["t"]
        a = fleet.handle_request(
            "t", {"op": "admit", "streams": [spec(0, 2)]}
        )["ids"][0]
        fleet.handle_request("t", {"op": "admit", "streams": [spec(8, 10)]})

        shard = tf.owner[a]
        dead = tf.hosts[shard]
        tf.kill_host(shard)
        assert not fleet.handle_request(
            "t", {"op": "query", "stream": a}
        )["ok"]
        tf.recover_shard(shard)
        assert tf.hosts[shard] is not dead
        assert fleet.handle_request("t", {"op": "query", "stream": a})["ok"]
        assert not tf.dead

        fleet.handle_request("t", {"op": "admit", "streams": [spec(5, 7)]})
        sha = tf.fingerprint()[0]
        tf.kill_host(shard)
        tf.recover_shard(shard)
        assert tf.fingerprint()[0] == sha
        for i, host in enumerate(tf.hosts):
            oracle = ShardStandby(tmp_path / "t" / f"shard-{i}", TOPO)
            oracle.catch_up()
            assert oracle.fingerprint()[0] == host.fingerprint()[0]
        fleet.close()

    def test_recover_shard_requires_persistence(self):
        tf = TenantFleet("t", TOPO, shards=2)
        tf.kill_host(0)
        with pytest.raises(ReproError, match="persistent"):
            tf.recover_shard(0)
        assert tf.dead == {0}

    def test_recover_after_a_snapshot_that_holds_failed_links(
        self, tmp_path
    ):
        """The snapshot's fifth field: a shard recovered from a snapshot
        taken while a link was down restores the link set before the
        streams, and the tenant's fingerprint does not move."""
        tf = TenantFleet("t", TOPO, shards=2, state_dir=tmp_path)
        for request in (
            {"op": "admit", "streams": [spec(0, 3)]},
            {"op": "fail_link", "link": [1, 2]},
            {"op": "snapshot"},
        ):
            assert tf.handle_request(request)["ok"]
        sha = tf.fingerprint()[0]
        tf.kill_host(0)
        tf.recover_shard(0)
        assert tf.hosts[0].links_spec() == [[1, 2]]
        assert tf.fingerprint()[0] == sha

        # And the other way: restored again before the next snapshot.
        for request in (
            {"op": "restore_link", "link": [1, 2]},
            {"op": "snapshot"},
        ):
            assert tf.handle_request(request)["ok"]
        sha = tf.fingerprint()[0]
        tf.kill_host(1)
        tf.recover_shard(1)
        assert tf.hosts[1].links_spec() == []
        assert tf.fingerprint()[0] == sha
        tf.close()

    def test_recovered_shard_still_trips_an_armed_journal_fault(
        self, tmp_path
    ):
        """A recovered shard is opened like every other shard: on the
        tenant's fault plane, so chaos keeps injecting into it."""
        plane = FaultPlane()
        tf = TenantFleet("t", TOPO, shards=1, state_dir=tmp_path,
                         fault_plane=plane)
        assert admit(tf, spec(0, 2))["ok"]
        tf.kill_host(0)
        tf.recover_shard(0)
        plane.arm(SITE_JOURNAL_APPEND, FaultSpec("crash_after_append"))
        with pytest.raises(InjectedCrash):
            admit(tf, spec(4, 6))
        assert plane.fired == {"crash_after_append": 1}
        tf.close()

    def test_kill_bounds_checked(self):
        tf = TenantFleet("t", TOPO, shards=2)
        with pytest.raises(ReproError):
            tf.kill_host(5)


# ---------------------------------------------------------------------- #
# Fleet (multi-tenant shell)
# ---------------------------------------------------------------------- #


class TestFleet:
    def _fleet(self, **kw):
        return Fleet(
            [TenantSpec("acme", "k1", TOPO),
             TenantSpec("beta", "k2", TOPO)],
            shards=2, **kw,
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
        text = fleet.prometheus_text(fleet.stats())
        assert 'repro_fleet_tenant_streams{tenant="acme"} 1' in text
        assert 'repro_fleet_tenant_streams{tenant="beta"} 0' in text
        assert "repro_fleet_shard_streams" in text
        assert 'op="admit"' in text

    def test_scrape_while_another_thread_places_streams(self, tmp_path):
        """With workers, one caller's thread may run a tenant's ops while
        another renders ``/metrics`` from its ``stats`` answer: the
        worker answers one request at a time, so a scrape never catches
        the placement map mid-update (``dictionary changed size during
        iteration``). A ``TenantFleet`` in this process is single-writer
        (the gateway's loop thread)."""
        fleet = self._fleet(state_dir=tmp_path, workers=1)
        live = []

        def place(count):
            # One-hop streams: many small components, cheap to analyse.
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

        place(400)   # a map long enough to be caught inside
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
                text = fleet.prometheus_text(fleet.stats())
                assert "repro_fleet_shard_streams" in text
                scrapes += 1
        finally:
            stop.set()
            driver.join(timeout=60)
            fleet.close()
        assert not driver.is_alive() and not failures
        assert scrapes >= 20

    def test_hello_names_tenant(self):
        fleet = self._fleet()
        hello = fleet.handle_request("acme", {"op": "hello"})
        assert hello["server"] == "repro-fleet"
        assert hello["tenant"] == "acme"
        assert hello["shards"] == 2

    def test_fingerprint_spec_shape_matches_host(self):
        """The tenant fingerprint is byte-compatible with EngineHost's —
        that equality is what every oracle comparison rests on."""
        tf = TenantFleet("t", TOPO, shards=2)
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
# The placement table (what the fleet keeps instead of asking shards)
# ---------------------------------------------------------------------- #


def assert_books_exact(tf):
    """The fleet's books equal what its shards hold, right now.

    ``placed`` (spec + analysis name, by owner shard) must equal the
    union of the shards' full dumps — the fuzzes call this after every
    op, so no op history can make the books drift.
    """
    held = {}
    for shard, host in enumerate(tf.hosts):
        for entry in host.shard_dump()["streams"]:
            sid = entry["stream"]["id"]
            assert sid not in held, f"stream {sid} is on two shards"
            held[sid] = (shard, entry["stream"], entry["analysis"])
    assert set(tf.placed) == set(tf.owner)
    assert {sid: (tf.owner[sid], *tf.placed[sid]) for sid in tf.owner} == held


_copies = itertools.count()


@contextlib.contextmanager
def recovered_copy(state_dir, tenants, *, shards):
    """An in-process :class:`Fleet` opened over a copy of ``state_dir``
    (a worker fleet's, live): what a restart would recover, read without
    touching the original. Its tenants' books are the worker's books."""
    state_dir = Path(state_dir)
    copy = state_dir.parent / f"{state_dir.name}-copy-{next(_copies)}"
    shutil.copytree(state_dir, copy,
                    ignore=shutil.ignore_patterns("workers"))
    fleet = Fleet(tenants, shards=shards, state_dir=copy)
    try:
        yield fleet
    finally:
        fleet.close()
        shutil.rmtree(copy)


class TestPlacementTable:
    def test_books_follow_admit_escalate_release_and_recovery(self, tmp_path):
        tf = TenantFleet("t", TOPO, shards=2, state_dir=tmp_path)
        admit(tf, spec(0, 2), analysis="tighter")
        assert_books_exact(tf)
        admit(tf, spec(3, 5))
        assert_books_exact(tf)
        # One batch touching both shards' streams: an escalation.
        admit(tf, spec(0, 2, priority=4), spec(3, 5, priority=4))
        assert tf.escalations == 1
        assert_books_exact(tf)
        assert tf.placed[0][1] == "tighter", "analysis must move with it"
        tf.handle_request({"op": "release", "ids": [0]})
        assert_books_exact(tf)
        tf.close()
        recovered = TenantFleet("t", TOPO, shards=2, state_dir=tmp_path)
        assert recovered.placed == tf.placed
        assert_books_exact(recovered)
        recovered.close()

    def test_rejected_admit_leaves_no_trial_bounds_behind(self):
        tf = TenantFleet("t", TOPO, shards=2)
        admit(tf, spec(0, 2))
        tight = spec(0, 2, priority=1, period=5, length=8, deadline=5)
        assert not admit(tf, tight)["admitted"]
        assert_books_exact(tf)
        # The bound the refused trial would have caused is not served.
        other = admit(tf, spec(30, 32))
        ref = EngineHost(TOPO)
        ref.handle_request({"op": "admit", "streams": [spec(0, 2)]})
        ref.handle_request({"op": "admit", "streams": [tight]})
        want = ref.handle_request({"op": "admit", "streams": [spec(30, 32)]})
        assert other["bounds"] == want["bounds"]

    def test_lost_ack_is_adopted_from_the_shard(self):
        """The shard commits an admit, the answer never arrives (a
        worker death after the journal write); the same-rid retry gets
        the shard's duplicate answer and the fleet books what the shard
        holds — spec and analysis included."""
        tf = TenantFleet("t", TOPO, shards=2)
        admit(tf, spec(0, 2))
        target = tf._least_loaded()
        real = tf.hosts[target].handle_request

        def lose_the_ack(request):
            tf.hosts[target].handle_request = real
            assert real(request)["ok"]
            return {"ok": False, "code": "worker", "error": "ack lost"}

        tf.hosts[target].handle_request = lose_the_ack
        request = {"op": "admit", "rid": "lost-1", "analysis": "tighter",
                   "streams": [spec(30, 32)]}
        first = tf.handle_request(dict(request))
        assert not first["ok"] and first["code"] == "worker"
        assert 1 not in tf.owner
        retry = tf.handle_request(dict(request))
        assert retry["ok"] and retry["duplicate"] and retry["ids"] == [1]
        assert tf.placed[1][1] == "tighter"
        assert_books_exact(tf)

    def test_compensated_cross_shard_release_keeps_the_books(self, tmp_path):
        tf = TenantFleet("t", TOPO, shards=2, state_dir=tmp_path)
        a = admit(tf, spec(0, 2), analysis="tighter")["ids"][0]
        b = admit(tf, spec(30, 32))["ids"][0]
        assert tf.owner[a] != tf.owner[b]
        before = tf.fingerprint()
        placed = dict(tf.placed)
        second = tf.hosts[max(tf.owner[a], tf.owner[b])]
        real_append = second.state.append

        def failing_append(op):
            second.state.append = real_append
            raise OSError(28, "injected: no space left on device")

        second.state.append = failing_append
        response = tf.handle_request({"op": "release", "ids": [a, b]})
        assert not response["ok"] and response["code"] == "degraded"
        assert tf.placed == placed
        assert_books_exact(tf)
        assert tf.fingerprint() == before
        tf.close()

    def test_link_rollback_keeps_the_books(self, tmp_path):
        """The link op commits on shard 0 (evicting a stream there) and
        fails on shard 1: `_compensate_link` restores the link and
        re-admits the evicted stream from the table."""
        tf = TenantFleet("t", TOPO, shards=2, state_dir=tmp_path)
        tf.handle_request({"op": "fail_link", "link": [0, 6]})
        a = admit(tf, spec(0, 2), analysis="tighter")["ids"][0]
        b = admit(tf, spec(30, 32))["ids"][0]
        assert (tf.owner[a], tf.owner[b]) == (0, 1)
        before = tf.fingerprint()
        placed = dict(tf.placed)
        second = tf.hosts[1]
        real_append = second.state.append

        def failing_append(op):
            second.state.append = real_append
            raise OSError(28, "injected: no space left on device")

        second.state.append = failing_append
        # With 0-6 already down, losing 0-1 disconnects node 0: shard 0
        # evicts stream `a` before shard 1 fails to journal the op.
        response = tf.handle_request({"op": "fail_link", "link": [0, 1]})
        assert not response["ok"] and response["code"] == "degraded"
        assert tf.links_spec() == [[0, 6]]
        assert tf.placed == placed
        assert a in tf.hosts[0].engine.admitted, "evicted stream not re-admitted"
        assert_books_exact(tf)
        assert tf.handle_request({"op": "snapshot"})["ok"]
        assert tf.fingerprint() == before
        tf.close()
