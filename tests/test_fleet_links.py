"""Fleet-wide link faults: broadcast, merge, migration, recovery.

A link failure is a *global* event — every shard of a tenant must swap to
the same fault-aware routing or verdicts diverge between shards. These
tests pin the fleet semantics: merged deltas equal one engine holding
the whole tenant, components that the new routing fuses migrate onto one
shard, rids deduplicate across the broadcast, and the failed-link set is
reconciled across shard journals at recovery (including shards a crash
left behind).
"""

import pytest

from repro.faults.plane import (
    SITE_JOURNAL_APPEND,
    FaultPlane,
    FaultSpec,
    InjectedCrash,
)
from repro.fleet.shards import TenantFleet
from repro.service.host import EngineHost

TOPO = {"type": "mesh", "width": 6, "height": 6}


def spec(src, dst, *, priority=5, period=300, length=4, deadline=300,
         **extra):
    out = {"src": src, "dst": dst, "priority": priority, "period": period,
           "length": length, "deadline": deadline}
    out.update(extra)
    return out


def admit(fleet, *streams, **kw):
    return fleet.handle_request(
        {"op": "admit", "streams": list(streams), **kw}
    )


def reference(*requests):
    """One engine executing the same logical op sequence."""
    host = EngineHost(TOPO)
    for request in requests:
        response = host.handle_request(request)
        assert response["ok"], response
    return host


class TestFleetLinkOps:
    def test_fail_link_matches_single_engine(self):
        tf = TenantFleet("t", TOPO, shards=2)
        assert admit(tf, spec(0, 2))["ok"]
        assert admit(tf, spec(30, 32))["ok"]
        response = tf.handle_request({"op": "fail_link", "link": [1, 2]})
        assert response["ok"]
        assert response["failed_links"] == [[1, 2]]
        assert tf.links_spec() == [[1, 2]]
        # Every live shard swapped to the same fault-aware routing.
        for host in tf.hosts:
            assert host.links_spec() == [[1, 2]]
        ref = reference(
            {"op": "admit", "streams": [spec(0, 2)]},
            {"op": "admit", "streams": [spec(30, 32)]},
            {"op": "fail_link", "link": [1, 2]},
        )
        assert tf.fingerprint() == ref.fingerprint()
        tf.close()

    def test_disconnection_evicts_across_shards(self):
        tf = TenantFleet("t", TOPO, shards=2)
        sid = admit(tf, spec(0, 2))["ids"][0]
        assert admit(tf, spec(30, 32))["ok"]
        assert tf.handle_request(
            {"op": "fail_link", "link": [0, 1]}
        )["ok"]
        response = tf.handle_request({"op": "fail_link", "link": [0, 6]})
        assert response["ok"]
        assert sid in response["evicted"]
        assert sid in response["disconnected"]
        assert sid not in tf.owner
        ref = reference(
            {"op": "admit", "streams": [spec(0, 2)]},
            {"op": "admit", "streams": [spec(30, 32)]},
            {"op": "fail_link", "link": [0, 1]},
            {"op": "fail_link", "link": [0, 6]},
        )
        assert tf.fingerprint() == ref.fingerprint()
        tf.close()

    def test_detour_that_fuses_components_migrates_first(self):
        """Failing 1-2 detours 0→2 over 7-8, which 6→8 on the other
        shard uses: placement is judged under the *new* routing, so the
        two streams share a shard before the broadcast."""
        tf = TenantFleet("t", TOPO, shards=2)
        a = admit(tf, spec(0, 2))["ids"][0]
        b = admit(tf, spec(6, 8))["ids"][0]
        assert tf.owner[a] != tf.owner[b]
        response = tf.handle_request({"op": "fail_link", "link": [1, 2]})
        assert response["ok"] and response["rerouted"] == [a]
        assert tf.owner[a] == tf.owner[b] and tf.escalations == 1
        ref = reference(
            {"op": "admit", "streams": [spec(0, 2)]},
            {"op": "admit", "streams": [spec(6, 8)]},
            {"op": "fail_link", "link": [1, 2]},
        )
        assert tf.fingerprint() == ref.fingerprint()
        tf.close()

    def test_restore_round_trip(self):
        tf = TenantFleet("t", TOPO, shards=2)
        assert admit(tf, spec(0, 5))["ok"]
        assert tf.handle_request(
            {"op": "fail_link", "link": [2, 3]}
        )["ok"]
        restore = tf.handle_request(
            {"op": "restore_link", "link": [3, 2]}
        )
        assert restore["ok"] and restore["failed_links"] == []
        assert type(tf.routing).__name__ != "FaultAwareRouting"
        ref = reference(
            {"op": "admit", "streams": [spec(0, 5)]},
            {"op": "fail_link", "link": [2, 3]},
            {"op": "restore_link", "link": [2, 3]},
        )
        assert tf.fingerprint() == ref.fingerprint()
        tf.close()

    def test_rid_dedupes_across_fleet(self):
        tf = TenantFleet("t", TOPO, shards=2)
        assert admit(tf, spec(0, 2))["ok"]
        first = tf.handle_request(
            {"op": "fail_link", "link": [1, 2], "rid": "L1"}
        )
        assert first["ok"] and not first.get("duplicate")
        again = tf.handle_request(
            {"op": "fail_link", "link": [1, 2], "rid": "L1"}
        )
        assert again["ok"] and again.get("duplicate")
        assert again["evicted"] == first["evicted"]
        assert tf.links_spec() == [[1, 2]]
        tf.close()

    def test_validation_mirrors_host(self):
        tf = TenantFleet("t", TOPO, shards=2)
        bad = tf.handle_request({"op": "fail_link", "link": [0, 35]})
        assert not bad["ok"]
        assert tf.handle_request(
            {"op": "fail_link", "link": [0, 1]}
        )["ok"]
        dup = tf.handle_request({"op": "fail_link", "link": [1, 0]})
        assert not dup["ok"]
        missing = tf.handle_request(
            {"op": "restore_link", "link": [4, 5]}
        )
        assert not missing["ok"]
        tf.close()

    def test_links_op_reports_state(self):
        tf = TenantFleet("t", TOPO, shards=2)
        links = tf.handle_request({"op": "links"})
        assert links["ok"] and links["failed_links"] == []
        assert tf.handle_request(
            {"op": "fail_link", "link": [7, 8]}
        )["ok"]
        links = tf.handle_request({"op": "links"})
        assert links["failed_links"] == [[7, 8]]
        assert links["routing"] == "FaultAwareRouting"
        tf.close()


class TestFleetLinkRecovery:
    def test_failed_links_survive_fleet_recovery(self, tmp_path):
        tf = TenantFleet("t", TOPO, shards=2, state_dir=tmp_path)
        assert admit(tf, spec(0, 2))["ok"]
        assert admit(tf, spec(30, 32))["ok"]
        assert tf.handle_request(
            {"op": "fail_link", "link": [1, 2]}
        )["ok"]
        sha, fleet_spec = tf.fingerprint()
        assert fleet_spec["failed_links"] == [[1, 2]]
        tf.close()

        recovered = TenantFleet("t", TOPO, shards=2, state_dir=tmp_path)
        assert recovered.links_spec() == [[1, 2]]
        assert recovered.fingerprint()[0] == sha
        recovered.close()

    def test_lagging_shard_is_reconciled(self, tmp_path):
        """A crash mid-broadcast leaves the link journaled on only some
        shards; recovery re-applies it as the union across journals."""
        tf = TenantFleet("t", TOPO, shards=2, state_dir=tmp_path)
        assert admit(tf, spec(0, 2))["ok"]
        assert admit(tf, spec(30, 32))["ok"]
        # Forge the torn broadcast: one shard journals the failure, the
        # fleet (and the other shard) never hears about it.
        assert tf.hosts[0].handle_request(
            {"op": "fail_link", "link": [13, 14]}
        )["ok"]
        tf.close()

        recovered = TenantFleet("t", TOPO, shards=2, state_dir=tmp_path)
        assert recovered.links_spec() == [[13, 14]]
        for host in recovered.hosts:
            assert host.links_spec() == [[13, 14]]
        ref = reference(
            {"op": "admit", "streams": [spec(0, 2)]},
            {"op": "admit", "streams": [spec(30, 32)]},
            {"op": "fail_link", "link": [13, 14]},
        )
        assert recovered.fingerprint() == ref.fingerprint()
        recovered.close()

    @pytest.mark.parametrize("shards", [2, 3])
    @pytest.mark.parametrize("op", ["fail_link", "restore_link"])
    def test_torn_broadcast_rolls_forward_under_its_rid(
        self, tmp_path, op, shards
    ):
        """Crash after shard 0 journaled a broadcast link op: recovery
        brings the lagging shards to shard 0's set — fail or restore —
        under the op's own rid, so the client's retry is answered with
        the complete delta and the link really is in the acked state."""
        setup = [
            {"op": "admit", "streams": [spec(0, 2)]},
            {"op": "admit", "streams": [spec(2, 0)]},
            {"op": "admit", "streams": [spec(30, 32)]},
        ]
        if op == "restore_link":
            setup.append({"op": "fail_link", "link": [1, 2], "rid": "a"})
        request = {"op": op, "link": [1, 2], "rid": "b"}
        plane = FaultPlane(0)
        tf = TenantFleet("t", TOPO, shards=shards, state_dir=tmp_path,
                         fault_plane=plane)
        for step in setup:
            assert tf.handle_request(step)["ok"]
        assert len(set(tf.owner.values())) == shards
        plane.arm(SITE_JOURNAL_APPEND, FaultSpec("crash_after_append"))
        with pytest.raises(InjectedCrash):
            tf.handle_request(request)
        assert tf.hosts[0].links_spec() != tf.hosts[1].links_spec()
        tf.close()

        recovered = TenantFleet("t", TOPO, shards=shards,
                                state_dir=tmp_path)
        retried = recovered.handle_request(request)
        ref = reference(*setup)
        want = ref.handle_request(request)
        assert retried["ok"] and retried["duplicate"], retried
        for key in ("rerouted", "evicted", "disconnected", "survivors"):
            assert retried[key] == want[key], key
        assert (recovered.handle_request({"op": "links"})["failed_links"]
                == want["failed_links"])
        for host in recovered.hosts:
            assert host.links_spec() == want["failed_links"]
        assert recovered.fingerprint() == ref.fingerprint()
        recovered.close()

    def test_refused_admit_holds_no_id_across_restart(self, tmp_path):
        """An admit refused because failed links disconnect its pair
        must not burn a stream id only memory remembers."""
        steps = [
            {"op": "admit", "streams": [spec(14, 16)]},
            {"op": "fail_link", "link": [0, 1]},
            {"op": "fail_link", "link": [0, 6]},
        ]
        cut_off = {"op": "admit", "streams": [spec(0, 8)]}
        after = {"op": "admit", "streams": [spec(20, 22)]}
        tf = TenantFleet("t", TOPO, shards=2, state_dir=tmp_path)
        for step in steps:
            assert tf.handle_request(step)["ok"]
        refused = tf.handle_request(cut_off)
        assert not refused["ok"] and "disconnect" in refused["error"]
        tf.close()

        restarted = TenantFleet("t", TOPO, shards=2, state_dir=tmp_path)
        ref = reference(*steps)
        assert ref.handle_request(cut_off)["error"] == refused["error"]
        assert (restarted.handle_request(after)["ids"]
                == ref.handle_request(after)["ids"] == [1])
        assert restarted.fingerprint() == ref.fingerprint()
        restarted.close()

    def test_link_op_on_dead_shard_fails_clearly(self):
        tf = TenantFleet("t", TOPO, shards=2)
        assert admit(tf, spec(0, 2))["ok"]
        tf.kill_host(0)
        response = tf.handle_request({"op": "fail_link", "link": [1, 2]})
        assert not response["ok"] and "down" in response["error"]
        # Nothing half-applied: the live shard still runs base routing.
        assert tf.links_spec() == []
        tf.close()


class TestLinkSchedules:
    """Fuzzed fail/restore/admit/release schedules: the fleet equals one
    engine at the end, and after *every* op its placement table equals
    what the shards hold (link ops evict, migrate and re-index, all of
    it from the table rather than from shard dumps)."""

    @pytest.mark.parametrize("workers", [0, 1], ids=["inprocess", "workers"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_books_never_drift(self, seed, workers, tmp_path):
        import random

        from repro.fleet.shards import Fleet, TenantSpec
        from tests.test_fleet_shards import assert_books_exact

        fleet = Fleet(
            [TenantSpec("t", "key", TOPO)], shards=3,
            state_dir=tmp_path, workers=workers,
        )
        tf = fleet.tenants["t"]
        ref = EngineHost(TOPO)
        rng = random.Random(seed)
        # Links at the four corners, and half the streams starting in
        # one: two failures there cut a node off, which evicts.
        corners = (0, 5, 30, 35)
        links = sorted(
            {tuple(sorted(c)) for c in tf.topology.channels()
             if set(c) & set(corners)}
        )
        failed, link_ops, evictions = [], 0, 0
        try:
            for step in range(90):
                roll = rng.random()
                live = sorted(tf.owner)
                if roll < 0.2:
                    if failed and (len(failed) >= 5 or rng.random() < 0.3):
                        link = failed.pop(rng.randrange(len(failed)))
                        request = {"op": "restore_link", "link": list(link)}
                    else:
                        link = rng.choice(
                            [l for l in links if l not in failed]
                        )
                        failed.append(link)
                        request = {"op": "fail_link", "link": list(link)}
                    link_ops += 1
                elif roll < 0.75 or not live:
                    src, dst = rng.sample(range(36), 2)
                    if rng.random() < 0.5:
                        src = rng.choice([c for c in corners if c != dst])
                    period = rng.randint(40, 160)
                    request = {"op": "admit", "streams": [spec(
                        src, dst, priority=rng.randint(1, 8), period=period,
                        length=rng.randint(2, 8),
                        deadline=rng.randint(period // 3, period),
                    )], "analysis": rng.choice(["kim98", "tighter"])}
                else:
                    request = {"op": "release",
                               "ids": rng.sample(live, min(2, len(live)))}
                got = fleet.handle_request("t", dict(request))
                want = ref.handle_request(dict(request))
                assert got.get("ok") == want.get("ok"), (step, request, got)
                if request["op"] == "admit":
                    assert got == want, (step, request, got, want)
                evictions += len(got.get("evicted", ()))
                assert_books_exact(tf)
            assert link_ops >= 5 and evictions >= 1
            assert tf.fingerprint() == ref.fingerprint()
        finally:
            fleet.close()
