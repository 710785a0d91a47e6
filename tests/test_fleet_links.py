"""Tenant link faults: one engine's answers, and legacy torn broadcasts.

A link failure is a *global* event for a tenant: its one engine swaps
to the fault-aware routing and re-derives the reroute/evict delta, which
must equal a broker's holding the same streams. A state dir that a
sharded fleet wrote can hold a torn broadcast — the op journaled on
shard 0 and not on the others — and the fold that opens it must roll
the lagging shards forward under the op's rid, so a client's retry is
answered with the complete delta.
"""

from pathlib import Path

import pytest

from repro.fleet.shards import TenantHost
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


def legacy_shards(root, count):
    """Engine hosts over ``<root>/t/shard-<i>/``: a state dir as the
    sharded fleet wrote it."""
    return [EngineHost(TOPO, state_dir=Path(root) / "t" / f"shard-{i}")
            for i in range(count)]


class TestFleetLinkOps:
    def test_fail_link_matches_single_engine(self):
        tf = TenantHost("t", TOPO)
        assert admit(tf, spec(0, 2))["ok"]
        assert admit(tf, spec(30, 32))["ok"]
        response = tf.handle_request({"op": "fail_link", "link": [1, 2]})
        assert response["ok"]
        assert response["failed_links"] == [[1, 2]]
        assert tf.links_spec() == [[1, 2]]
        ref = reference(
            {"op": "admit", "streams": [spec(0, 2)]},
            {"op": "admit", "streams": [spec(30, 32)]},
            {"op": "fail_link", "link": [1, 2]},
        )
        assert tf.fingerprint() == ref.fingerprint()
        tf.close()

    def test_disconnection_evicts_across_shards(self):
        tf = TenantHost("t", TOPO)
        sid = admit(tf, spec(0, 2))["ids"][0]
        assert admit(tf, spec(30, 32))["ok"]
        assert tf.handle_request(
            {"op": "fail_link", "link": [0, 1]}
        )["ok"]
        response = tf.handle_request({"op": "fail_link", "link": [0, 6]})
        assert response["ok"]
        assert sid in response["evicted"]
        assert sid in response["disconnected"]
        assert sid not in tf.admitted_ids()
        ref = reference(
            {"op": "admit", "streams": [spec(0, 2)]},
            {"op": "admit", "streams": [spec(30, 32)]},
            {"op": "fail_link", "link": [0, 1]},
            {"op": "fail_link", "link": [0, 6]},
        )
        assert tf.fingerprint() == ref.fingerprint()
        tf.close()

    def test_detour_that_fuses_components_migrates_first(self):
        """Failing 1-2 detours 0→2 over 7-8, which 6→8 uses: the two
        streams, independent before, are decided together after, in the
        same engine, exactly as one broker decides them."""
        tf = TenantHost("t", TOPO)
        a = admit(tf, spec(0, 2))["ids"][0]
        b = admit(tf, spec(6, 8))["ids"][0]
        assert a not in tf.engine.closure(b)
        response = tf.handle_request({"op": "fail_link", "link": [1, 2]})
        assert response["ok"] and response["rerouted"] == [a]
        ref = reference(
            {"op": "admit", "streams": [spec(0, 2)]},
            {"op": "admit", "streams": [spec(6, 8)]},
            {"op": "fail_link", "link": [1, 2]},
        )
        assert tf.fingerprint() == ref.fingerprint()
        tf.close()

    def test_restore_round_trip(self):
        tf = TenantHost("t", TOPO)
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
        tf = TenantHost("t", TOPO)
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
        tf = TenantHost("t", TOPO)
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
        tf = TenantHost("t", TOPO)
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
        tf = TenantHost("t", TOPO, state_dir=tmp_path)
        assert admit(tf, spec(0, 2))["ok"]
        assert admit(tf, spec(30, 32))["ok"]
        assert tf.handle_request(
            {"op": "fail_link", "link": [1, 2]}
        )["ok"]
        sha, fleet_spec = tf.fingerprint()
        assert fleet_spec["failed_links"] == [[1, 2]]
        tf.close()

        recovered = TenantHost("t", TOPO, state_dir=tmp_path)
        assert recovered.links_spec() == [[1, 2]]
        assert recovered.fingerprint()[0] == sha
        recovered.close()

    def test_lagging_shard_is_reconciled(self, tmp_path):
        """A crash mid-broadcast left a sharded state dir with the link
        journaled on shard 0 only; the fold brings the other shard to
        shard 0's set before it takes the union."""
        s0, s1 = legacy_shards(tmp_path, 2)
        assert admit(s0, spec(0, 2))["ok"]
        assert admit(s1, spec(30, 32, id=1))["ok"]
        assert s0.handle_request(
            {"op": "fail_link", "link": [13, 14]}
        )["ok"]
        s0.close(), s1.close()

        recovered = TenantHost("t", TOPO, state_dir=tmp_path / "t")
        assert recovered.links_spec() == [[13, 14]]
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
        """A sharded state dir where shard 0 journaled a broadcast link
        op and the crash stopped it there: the fold brings the lagging
        shards to shard 0's set — fail or restore — under the op's own
        rid, so the client's retry is answered with the complete delta
        and the link really is in the acked state."""
        setup = [
            {"op": "admit", "streams": [spec(0, 2)]},
            {"op": "admit", "streams": [spec(2, 0)]},
            {"op": "admit", "streams": [spec(30, 32)]},
        ]
        if op == "restore_link":
            setup.append({"op": "fail_link", "link": [1, 2], "rid": "a"})
        request = {"op": op, "link": [1, 2], "rid": "b"}
        hosts = legacy_shards(tmp_path, shards)
        for sid, step in enumerate(setup[:3]):
            entry = dict(step["streams"][0], id=sid)
            assert admit(hosts[sid % shards], entry)["ok"]
        for step in setup[3:]:
            for host in hosts:
                assert host.handle_request(dict(step))["ok"]
        assert hosts[0].handle_request(dict(request))["ok"]
        assert hosts[0].links_spec() != hosts[1].links_spec()
        for host in hosts:
            host.close()

        recovered = TenantHost("t", TOPO, state_dir=tmp_path / "t")
        retried = recovered.handle_request(request)
        ref = reference(*setup)
        want = ref.handle_request(request)
        assert retried["ok"] and retried["duplicate"], retried
        for key in ("rerouted", "evicted", "disconnected", "survivors"):
            assert retried[key] == want[key], key
        assert (recovered.handle_request({"op": "links"})["failed_links"]
                == want["failed_links"])
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
        tf = TenantHost("t", TOPO, state_dir=tmp_path)
        for step in steps:
            assert tf.handle_request(step)["ok"]
        refused = tf.handle_request(cut_off)
        assert not refused["ok"] and "disconnect" in refused["error"]
        tf.close()

        restarted = TenantHost("t", TOPO, state_dir=tmp_path)
        ref = reference(*steps)
        assert ref.handle_request(cut_off)["error"] == refused["error"]
        assert (restarted.handle_request(after)["ids"]
                == ref.handle_request(after)["ids"] == [1])
        assert restarted.fingerprint() == ref.fingerprint()
        restarted.close()

    def test_link_op_on_dead_shard_fails_clearly(self):
        tf = TenantHost("t", TOPO)
        assert admit(tf, spec(0, 2))["ok"]
        tf.handle_request({"op": "kill"})
        response = tf.handle_request({"op": "fail_link", "link": [1, 2]})
        assert not response["ok"] and response["code"] == "down"
        # Nothing applied: the tenant still runs base routing.
        assert tf.links_spec() == []
        tf.close()


class TestLinkSchedules:
    """Fuzzed fail/restore/admit/release schedules: the tenant equals
    one engine at the end, and after *every* op its memory equals what
    its journal recovers (link ops evict, and a rollback re-admits)."""

    @pytest.mark.parametrize("workers", [0, 1], ids=["inprocess", "workers"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_books_never_drift(self, seed, workers, tmp_path):
        """With a worker, the tenant lives in another process: after
        every op a recovery of a copy of its state dir is checked, and
        the worker's own counts — admitted streams, the next id — must
        match the copy's."""
        import random

        from repro.fleet.shards import Fleet, TenantSpec
        from repro.io import topology_from_spec
        from tests.test_fleet_shards import assert_books_exact, recovered_copy

        tenants = [TenantSpec("t", "key", TOPO)]
        state = tmp_path / "state"
        fleet = Fleet(tenants, state_dir=state, workers=workers)
        ref = EngineHost(TOPO)

        def books():
            if not workers:
                assert_books_exact(fleet.tenants["t"])
                return fleet.tenants["t"].fingerprint()
            live = fleet.handle_request("t", {"op": "stats"})
            with recovered_copy(state, tenants) as copy:
                tf = copy.tenants["t"]
                assert_books_exact(tf)
                assert live["admitted"] == tf.admitted_count()
                assert live["next_id"] == tf.next_id
                return tf.fingerprint()

        rng = random.Random(seed)
        # Links at the four corners, and half the streams starting in
        # one: two failures there cut a node off, which evicts.
        corners = (0, 5, 30, 35)
        links = sorted(
            {tuple(sorted(c))
             for c in topology_from_spec(TOPO)[0].channels()
             if set(c) & set(corners)}
        )
        failed, link_ops, evictions = [], 0, 0
        try:
            for step in range(90):
                roll = rng.random()
                live = ref.admitted_ids()
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
                books()
            assert link_ops >= 5 and evictions >= 1
            assert books() == ref.fingerprint()
        finally:
            fleet.close()
