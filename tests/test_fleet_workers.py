"""Supervised worker processes (``repro.fleet.workers``).

The units here are the supervision contract itself: a SIGKILLed worker
is detected, respawned, and recovers its shards from their journals; a
mid-RPC kill surfaces as the retryable ``worker`` error code and the
rid idempotency table makes the retry exactly-once; detach hands a
shard back to the parent for standby promotion. The gateway tests run
the same machinery behind HTTP: /healthz worker rows, /metrics worker
gauges, and /admin/kill_worker with supervised convergence.
"""

import asyncio
import gc
import threading
import time
import warnings

import pytest

from repro.errors import ReproError
from repro.fleet.client import GatewayClient
from repro.fleet.gateway import GatewayServer
from repro.fleet.replication import StandbyPool
from repro.fleet.shards import Fleet, TenantSpec
from repro.fleet.workers import WorkerClient, WorkerDied, WorkerSupervisor

TOPO = {"type": "mesh", "width": 4, "height": 4}


def spec(src=0, dst=2, priority=5, period=300, length=4):
    return {"src": src, "dst": dst, "priority": priority, "period": period,
            "length": length, "deadline": period}


def make_fleet(tmp_path, *, workers=1, shards=2):
    return Fleet(
        [TenantSpec("t", "key", TOPO)],
        shards=shards, state_dir=tmp_path, workers=workers,
    )


def admit_ok(fleet, rid, *, attempts=16):
    """Admit one stream, retrying on the retryable worker code."""
    response = None
    for _ in range(attempts):
        response = fleet.handle_request(
            "t", {"op": "admit", "rid": rid, "streams": [spec()]}
        )
        if response.get("code") == "worker":
            time.sleep(0.01)
            continue
        break
    assert response.get("ok"), response
    return response


class TestSupervisorRestart:
    def test_kill_then_ensure_recovers_from_journal(self, tmp_path):
        fleet = make_fleet(tmp_path)
        try:
            sup = fleet.supervisor
            admit_ok(fleet, "r0")
            pid = sup.kill_worker(0)
            assert pid > 0
            assert not sup.workers[0].alive
            assert sup.ensure_all() == 1
            assert sup.workers[0].restarts == 1
            assert sup.workers[0].alive
            # The respawned child recovered the admit from the journal.
            report = fleet.handle_request("t", {"op": "report"})
            assert report["ok"] and report["admitted"] == 1
        finally:
            fleet.close()

    def test_ensure_all_is_a_noop_when_healthy(self, tmp_path):
        fleet = make_fleet(tmp_path)
        try:
            assert fleet.supervisor.ensure_all() == 0
            assert all(wp.restarts == 0 for wp in fleet.supervisor.workers)
        finally:
            fleet.close()

    def test_responsive_probe_tracks_socket_not_pid(self, tmp_path):
        fleet = make_fleet(tmp_path)
        try:
            wp = fleet.supervisor.workers[0]
            assert wp.responsive()
            fleet.supervisor.kill_worker(0)
            assert not wp.responsive()
        finally:
            fleet.close()

    def test_first_call_after_kill_is_retryable_worker_code(self, tmp_path):
        fleet = make_fleet(tmp_path)
        try:
            fleet.supervisor.kill_worker(0)
            first = fleet.handle_request("t", {"op": "report"})
            assert first["ok"] is False
            assert first["code"] == "worker"
            assert "retry" in first["error"]
            # The failed call already triggered the respawn.
            second = fleet.handle_request("t", {"op": "report"})
            assert second["ok"]
            assert fleet.supervisor.workers[0].restarts == 1
        finally:
            fleet.close()

    def test_healthy_reflects_worker_liveness(self, tmp_path):
        fleet = make_fleet(tmp_path)
        try:
            assert fleet.healthy()
            fleet.supervisor.kill_worker(0)
            assert not fleet.healthy()
            fleet.supervisor.ensure_all()
            assert fleet.healthy()
        finally:
            fleet.close()

    def test_status_rows_cover_every_worker(self, tmp_path):
        fleet = make_fleet(tmp_path, workers=1)
        try:
            rows = fleet.supervisor.status()
            assert len(rows) == 1
            row = rows[0]
            assert row["alive"] is True
            assert row["restarts"] == 0
            assert isinstance(row["pid"], int)
            assert sorted(row["shards"]) == ["t/shard-0", "t/shard-1"]
        finally:
            fleet.close()


class TestInflightKill:
    def test_mid_rpc_kill_is_exactly_once_via_rid(self, tmp_path):
        """SIGKILL lands after the admit's bytes are on the wire; the
        retry with the same rid must converge on exactly one admit
        whether or not the worker committed before dying."""
        fleet = make_fleet(tmp_path)
        try:
            fleet.supervisor.arm_inflight_kill()
            response = admit_ok(fleet, "inflight-1")
            assert response["ids"] == [0]
            report = fleet.handle_request("t", {"op": "report"})
            assert report["admitted"] == 1, "mid-RPC kill double-applied"
            assert sum(
                wp.restarts for wp in fleet.supervisor.workers
            ) >= 1, "armed kill never fired"
        finally:
            fleet.close()

    def test_disarm_drops_the_pending_kill(self, tmp_path):
        fleet = make_fleet(tmp_path)
        try:
            fleet.supervisor.arm_inflight_kill()
            fleet.supervisor.disarm_inflight_kill()
            response = fleet.handle_request(
                "t", {"op": "admit", "rid": "d1", "streams": [spec()]}
            )
            assert response["ok"]
            assert all(
                wp.restarts == 0 for wp in fleet.supervisor.workers
            )
        finally:
            fleet.close()


class TestWorkerFailover:
    def test_detach_and_promote_cross_process(self, tmp_path):
        """Standby promotion in worker mode: the dead shard is detached
        from its worker (so respawns exclude it) and replaced by an
        in-process promoted host, invisibly to clients."""
        fleet = make_fleet(tmp_path)
        pool = StandbyPool(fleet)
        try:
            admitted = admit_ok(fleet, "f1")
            sid = admitted["ids"][0]
            pool.catch_up()
            tf = fleet.tenants["t"]
            victim = tf.owner[sid]
            victim_key = f"t/shard-{victim}"
            tf.kill_host(victim)
            pool.promote("t", victim)
            # The supervisor no longer routes (or respawns) the shard.
            with pytest.raises(ReproError, match="no worker hosts"):
                fleet.supervisor.worker_for(victim_key)
            query = fleet.handle_request("t", {"op": "query", "stream": sid})
            assert query["ok"] and query["stream"]["id"] == sid
            # A worker restart after the detach must not resurrect the
            # promoted shard inside the child.
            fleet.supervisor.kill_worker(0)
            fleet.supervisor.ensure_all()
            report = fleet.handle_request("t", {"op": "report"})
            assert report["ok"] and report["admitted"] == 1
        finally:
            fleet.close()


def run_gateway(client_fn, tmp_path, *, workers=2, standbys=False):
    """test_fleet_gateway harness, worker-pool edition."""
    result = {}

    async def main():
        fleet = Fleet(
            [TenantSpec("t", "key", TOPO)],
            shards=2, state_dir=tmp_path, workers=workers,
        )
        pool = StandbyPool(fleet) if standbys else None
        gw = GatewayServer(fleet, standbys=pool, poll_interval=0.05)
        await gw.start("127.0.0.1", 0)
        thread = threading.Thread(
            target=lambda: result.update(client_fn(gw.port))
        )
        thread.start()
        await asyncio.wait_for(gw.serve_forever(), timeout=120)
        thread.join(timeout=10)
        result["gw"] = gw

    asyncio.run(main())
    return result


class TestGatewayWorkers:
    def test_healthz_reports_worker_rows(self, tmp_path):
        def client(port):
            with GatewayClient(f"127.0.0.1:{port}", api_key="key") as c:
                c.check("admit", streams=[spec()])
                health = c.get("/healthz")
                c.request("shutdown")
            return {"health": health}

        health = run_gateway(client, tmp_path)["health"]
        assert health["ok"]
        workers = health["workers"]
        assert [w["index"] for w in workers] == [0, 1]
        for w in workers:
            assert w["alive"] is True
            assert w["restarts"] == 0
            assert isinstance(w["pid"], int)
            assert w["journal_lag_bytes"] == 0  # no standbys -> no lag
        assert workers[0]["shards"] == ["t/shard-0", "t/shard-1"]

    def test_metrics_export_worker_gauges(self, tmp_path):
        def client(port):
            with GatewayClient(f"127.0.0.1:{port}", api_key="key") as c:
                text = c.get("/metrics")
                c.request("shutdown")
            return {"text": text}

        text = run_gateway(client, tmp_path)["text"]
        for name in ("repro_fleet_worker_up", "repro_fleet_worker_pid",
                     "repro_fleet_worker_restarts_total",
                     "repro_fleet_worker_journal_lag_bytes"):
            assert f'{name}{{worker="0"}}' in text, name
        assert 'repro_fleet_worker_up{worker="1"} 1' in text

    def test_admin_kill_worker_converges(self, tmp_path):
        """The drill CI runs: SIGKILL a worker over HTTP, watch the
        monitor task respawn it, and prove the shards still serve."""
        def client(port):
            out = {}
            with GatewayClient(f"127.0.0.1:{port}", api_key="key") as c:
                c.check("admit", rid="gk1", streams=[spec()])
                out["kill"] = c.admin("kill_worker", worker=0)
                deadline = time.monotonic() + 30.0
                health = {}
                while time.monotonic() < deadline:
                    health = c.get("/healthz")
                    workers = health.get("workers", [])
                    if (health.get("ok")
                            and any(w["restarts"] >= 1 for w in workers)):
                        break
                    time.sleep(0.05)
                out["health"] = health
                report = {}
                for _ in range(32):
                    report = c.request("report")
                    if report.get("code") != "worker":
                        break
                    time.sleep(0.05)
                out["report"] = report
                c.request("shutdown")
            return out

        result = run_gateway(client, tmp_path)
        assert result["kill"]["_status"] == 200
        assert result["kill"]["killed_worker"] == 0
        assert result["health"]["ok"], "monitor never respawned the worker"
        assert any(
            w["restarts"] >= 1 for w in result["health"]["workers"]
        )
        assert result["report"]["ok"]
        assert result["report"]["admitted"] == 1, "restart lost the admit"

    def test_admin_kill_worker_validates_index(self, tmp_path):
        def client(port):
            with GatewayClient(f"127.0.0.1:{port}", api_key="key") as c:
                bad = c.admin("kill_worker", worker=9)
                c.request("shutdown")
            return {"bad": bad}

        result = run_gateway(client, tmp_path)
        assert result["bad"]["_status"] == 400

    def test_admin_kill_worker_without_workers_is_400(self, tmp_path):
        def client(port):
            with GatewayClient(f"127.0.0.1:{port}", api_key="key") as c:
                response = c.admin("kill_worker", worker=0)
                c.request("shutdown")
            return {"response": response}

        result = run_gateway(client, tmp_path, workers=0)
        assert result["response"]["_status"] == 400
        assert "worker" in result["response"]["error"]


class TestSupervisorGuards:
    def test_needs_at_least_one_worker(self, tmp_path):
        with pytest.raises(ReproError, match="at least one worker"):
            WorkerSupervisor(tmp_path, 0)

    def test_worker_mode_requires_state_dir(self):
        with pytest.raises(ReproError, match="state"):
            Fleet([TenantSpec("t", "key", TOPO)], shards=2, workers=1)

    def test_failed_connect_closes_its_socket(self, tmp_path):
        """Spawn polling connects to a socket path nobody listens on yet,
        many times over; each refused attempt must close what it opened."""
        client = WorkerClient(tmp_path / "not-bound-yet.sock")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for _ in range(3):
                with pytest.raises(WorkerDied):
                    client.call({"op": "worker_hello"}, timeout=0.2)
            gc.collect()   # a leaked socket would be finalised here
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_assign_after_start_is_refused(self, tmp_path):
        fleet = make_fleet(tmp_path)
        try:
            with pytest.raises(ReproError, match="after start"):
                fleet.supervisor.assign_tenant("u", {})
        finally:
            fleet.close()


# ---------------------------------------------------------------------- #
# Round trips per op: the fleet keeps what it placed
# ---------------------------------------------------------------------- #


@pytest.fixture()
def rpc_log(monkeypatch):
    """Every ``WorkerClient.call`` made while the test runs, by op."""
    from repro.fleet.workers import WorkerClient

    log = []
    real_call = WorkerClient.call

    def counted(self, payload, **kw):
        log.append(payload["op"])
        return real_call(self, payload, **kw)

    monkeypatch.setattr(WorkerClient, "call", counted)
    return log


class TestRoundTripsPerOp:
    """A worker is asked only what the fleet cannot know: the spec and
    analysis of a stream it placed are in its table, and a shard's
    bounds are remembered until something is forwarded to that shard."""

    def _do(self, fleet, rpc_log, request):
        del rpc_log[:]
        response = fleet.handle_request("t", request)
        assert response["ok"], response
        return response, list(rpc_log)

    def test_single_shard_ops_are_one_round_trip_each(self, tmp_path, rpc_log):
        fleet = make_fleet(tmp_path)
        try:
            admit, calls = self._do(
                fleet, rpc_log, {"op": "admit", "streams": [spec()]}
            )
            assert calls == ["admit"]
            sid = admit["ids"][0]
            _, calls = self._do(fleet, rpc_log,
                                {"op": "query", "stream": sid})
            assert calls == ["query"]
            _, calls = self._do(fleet, rpc_log,
                                {"op": "release", "ids": [sid]})
            assert calls == ["release"]
        finally:
            fleet.close()

    def test_other_shards_bounds_are_asked_for_only_when_stale(
        self, tmp_path, rpc_log
    ):
        fleet = make_fleet(tmp_path)
        tf = fleet.tenants["t"]

        def admit(src, dst, priority):
            return self._do(fleet, rpc_log, {
                "op": "admit", "streams": [spec(src, dst, priority)],
            })

        try:
            # Two streams sharing a channel on one shard ...
            a, calls = admit(0, 1, 5)
            assert calls == ["admit"]
            a2, calls = admit(0, 1, 4)
            assert calls == ["admit"]
            # ... and two on the other. Each admit's answer carries its
            # own shard's bounds, so nobody is asked for the other's.
            b, calls = admit(2, 3, 5)
            assert calls == ["admit"]
            assert tf.owner[b["ids"][0]] != tf.owner[a["ids"][0]]
            assert set(b["bounds"]) == {"0", "1", "2"}
            _, calls = admit(2, 3, 4)
            assert calls == ["admit"]
            # A release mutates its shard: the next admit on the other
            # shard asks for the bounds once, the one after does not.
            _, calls = self._do(
                fleet, rpc_log, {"op": "release", "ids": a2["ids"]}
            )
            assert calls == ["release"]
            d, calls = admit(2, 3, 3)
            assert calls == ["admit", "worker_bounds"]
            assert set(d["bounds"]) == {"0", "2", "3", "4"}
            _, calls = admit(2, 3, 2)
            assert calls == ["admit"]
        finally:
            fleet.close()

    def test_rejected_admit_keeps_the_shards_bounds(self, tmp_path, rpc_log):
        fleet = make_fleet(tmp_path)
        tf = fleet.tenants["t"]
        try:
            a, _ = self._do(fleet, rpc_log,
                            {"op": "admit", "streams": [spec(0, 1, 5)]})
            b, _ = self._do(fleet, rpc_log,
                            {"op": "admit", "streams": [spec(2, 3, 5)]})
            assert tf.owner[a["ids"][0]] != tf.owner[b["ids"][0]]
            # Behind M_a on its channel, 8 slots in every 10 cannot fit.
            refused, calls = self._do(fleet, rpc_log, {
                "op": "admit",
                "streams": [spec(0, 1, 4, period=10, length=8)],
            })
            assert calls == ["admit"] and not refused["admitted"]
            # A's shard is as it was: B's next admit merges its bounds
            # from the cache instead of asking A's worker.
            _, calls = self._do(fleet, rpc_log,
                                {"op": "admit", "streams": [spec(2, 3, 4)]})
            assert calls == ["admit"]
        finally:
            fleet.close()

    def test_migration_asks_no_worker_for_specs(self, tmp_path, rpc_log):
        fleet = make_fleet(tmp_path)
        tf = fleet.tenants["t"]
        try:
            self._do(fleet, rpc_log, {"op": "admit", "streams": [spec(0, 1)]})
            self._do(fleet, rpc_log, {"op": "admit", "streams": [spec(2, 3)]})
            assert len(set(tf.owner.values())) == 2
            # One batch touching both shards' streams, whatever the routing.
            bridge, calls = self._do(fleet, rpc_log, {
                "op": "admit",
                "streams": [spec(0, 1, priority=4), spec(2, 3, priority=4)],
            })
            assert tf.escalations == 1 and bridge["admitted"]
            # Move (admit on the target, release on the source), decide.
            assert calls == ["admit", "release", "admit"]
            assert len(set(tf.owner.values())) == 1
        finally:
            fleet.close()
