"""Supervised worker processes (``repro.fleet.workers``).

The units here are the supervision contract itself: a SIGKILLed worker
is detected, respawned, and recovers its shards from their journals; a
mid-RPC kill surfaces as the retryable ``worker`` error code and the
rid idempotency table makes the retry exactly-once; failing a shard
over respawns its worker, which recovers the shard where it always
lived. The gateway tests run the same machinery behind HTTP: /healthz
worker rows, /metrics worker gauges, /admin/kill_worker with supervised
convergence, and /admin/kill + /admin/failover.
"""

import asyncio
import gc
import io
import json
import logging
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.fleet.client import GatewayClient
from repro.fleet.gateway import GatewayServer
from repro.fleet.shards import Fleet, TenantSpec
from repro.fleet.workers import (
    SPAWN_TIMEOUT,
    WorkerClient,
    WorkerDied,
    WorkerSupervisor,
)
from repro.obs import trace

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
    def test_failover_respawns_the_owning_worker(self, tmp_path):
        """Failover in worker mode: the dead shard's worker is killed
        and respawned, and recovers the shard from its journal — the
        shard never leaves its worker, invisibly to clients."""
        fleet = make_fleet(tmp_path)
        try:
            admitted = admit_ok(fleet, "f1")
            sid = admitted["ids"][0]
            tf = fleet.tenants["t"]
            victim = tf.owner[sid]
            wp = fleet.supervisor.worker_for(f"t/shard-{victim}")
            pid = wp.pid
            tf.kill_host(victim)
            tf.recover_shard(victim)
            assert not tf.dead
            assert wp.pid != pid and wp.alive and wp.restarts == 1
            query = fleet.handle_request("t", {"op": "query", "stream": sid})
            assert query["ok"] and query["stream"]["id"] == sid
            report = fleet.handle_request("t", {"op": "report"})
            assert report["ok"] and report["admitted"] == 1
        finally:
            fleet.close()

    @pytest.mark.parametrize("workers", [0, 2])
    def test_failover_keeps_the_tenant_analysis(self, tmp_path, workers):
        """A failed-over shard is the shard a restart would open: with
        the tenant's analysis, not the engine default."""
        fleet = Fleet(
            [TenantSpec("t", "key", TOPO, analysis="tighter")],
            shards=2, state_dir=tmp_path, workers=workers,
        )
        try:
            tf = fleet.tenants["t"]
            tf.kill_host(0)
            tf.recover_shard(0)
            assert [h.default_analysis for h in tf.hosts] == [
                "tighter", "tighter"]
            admitted = admit_ok(fleet, "a1")
            assert tf.owner[admitted["ids"][0]] == 0
            assert admitted["analysis"] == "tighter"
        finally:
            fleet.close()


def run_gateway(client_fn, tmp_path, *, workers=2, tenants=("t",)):
    """test_fleet_gateway harness, worker-pool edition (tenant ``t``'s
    key is ``key``, any other's ``key-<name>``)."""
    result = {}

    async def main():
        fleet = Fleet(
            [TenantSpec(t, "key" if t == "t" else f"key-{t}", TOPO)
             for t in tenants],
            shards=2, state_dir=tmp_path, workers=workers,
        )
        gw = GatewayServer(fleet)
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
        assert workers[0]["shards"] == ["t/shard-0", "t/shard-1"]

    def test_metrics_export_worker_gauges(self, tmp_path):
        def client(port):
            with GatewayClient(f"127.0.0.1:{port}", api_key="key") as c:
                text = c.get("/metrics")
                c.request("shutdown")
            return {"text": text}

        text = run_gateway(client, tmp_path)["text"]
        for name in ("repro_fleet_worker_up", "repro_fleet_worker_pid",
                     "repro_fleet_worker_restarts_total"):
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

    @pytest.mark.skipif(not Path("/proc/self/fd").exists(),
                        reason="needs /proc")
    def test_admin_failover_recovers_in_the_worker(self, tmp_path):
        """Kill then fail over a worker-hosted shard over HTTP: the
        journal is replayed by a respawned worker, never opened by the
        gateway, and the other tenant's worker is left alone."""
        journal = (tmp_path / "t" / "shard-0" / "journal.jsonl").resolve()

        def gateway_holds_journal():
            fds = Path("/proc/self/fd")
            held = set()
            for fd in fds.iterdir():
                try:
                    held.add(Path(os.readlink(fd)))
                except OSError:  # closed since the listing
                    continue
            return journal in held

        def client(port):
            out = {}
            with GatewayClient(f"127.0.0.1:{port}", api_key="key") as c:
                for i in range(3):
                    c.check("admit", rid=f"fo{i}",
                            streams=[spec(src=i, dst=i + 4)])
                out["before"] = c.get("/healthz")
                out["kill"] = c.admin("kill", tenant="t", shard=0)
                out["failover"] = c.admin("failover", tenant="t", shard=0)
                out["holds_journal"] = gateway_holds_journal()
                out["after"] = c.get("/healthz")
                out["report"] = c.check("report")
                c.request("shutdown")
            return out

        result = run_gateway(client, tmp_path, tenants=("t", "u"))
        assert result["kill"]["_status"] == 200
        assert result["failover"]["_status"] == 200
        assert result["failover"]["recovered"] == 0
        assert not result["holds_journal"]
        before = {w["index"]: w["pid"] for w in result["before"]["workers"]}
        after = {w["index"]: w["pid"] for w in result["after"]["workers"]}
        assert after[0] != before[0]     # tenant t's worker respawned
        assert after[1] == before[1]     # tenant u's was not touched
        assert result["after"]["ok"], result["after"]
        assert result["after"]["tenants"]["t"]["admitted"] == 3
        assert result["report"]["admitted"] == 3
        assert result["report"]["report"]["success"]


class TestSupervisorGuards:
    def test_needs_at_least_one_worker(self, tmp_path):
        with pytest.raises(ReproError, match="at least one worker"):
            WorkerSupervisor(tmp_path, 0)

    def test_worker_mode_requires_state_dir(self):
        with pytest.raises(ReproError, match="state"):
            Fleet([TenantSpec("t", "key", TOPO)], shards=2, workers=1)

    def test_failed_connect_closes_its_socket(self, tmp_path):
        """Every RPC to a dead worker connects to a socket path nobody
        listens on; each refused attempt must close what it opened."""
        client = WorkerClient(tmp_path / "not-bound-yet.sock")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for _ in range(3):
                with pytest.raises(WorkerDied):
                    client.call({"op": "worker_hello"})
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


# ---------------------------------------------------------------------- #
# A forked worker holds nothing of its parent's
# ---------------------------------------------------------------------- #


def fd_table(pid):
    """``{fd: link target}`` of a live process, from ``/proc``."""
    table = {}
    for entry in Path(f"/proc/{pid}/fd").iterdir():
        try:
            table[int(entry.name)] = os.readlink(entry)
        except OSError:  # closed while we listed it
            pass
    return table


def assert_holds_only_its_own(pid, tmp_path, tenant):
    """A worker's fds are its stdio, its selector, sockets the gateway
    does not hold (its listener and connections) and its tenant's
    journals, each once."""
    own = fd_table(pid)
    ours = set(fd_table(os.getpid()).values())
    assert own.pop(0) == os.devnull
    log = own.pop(1)
    assert Path(log).name.startswith("worker-") and own.pop(2) == log
    kinds = {}
    for target in own.values():
        kind = target.split(":", 1)[0] if ":" in target else "file"
        kinds.setdefault(kind, []).append(target)
    assert sorted(kinds) in (["anon_inode", "file", "socket"],
                             ["anon_inode", "socket"]), own
    assert kinds["anon_inode"] == ["anon_inode:[eventpoll]"], own
    assert not set(kinds["socket"]) & ours, "holds a gateway socket"
    journals = sorted(kinds.get("file", []))
    assert journals == sorted(
        str(tmp_path / tenant / f"shard-{i}" / "journal.jsonl")
        for i in range(len(journals))
    ), own


@pytest.mark.skipif(not Path("/proc/self/fd").exists(), reason="needs /proc")
class TestForkIsolation:
    def test_worker_fds_at_start_and_after_a_respawn_in_a_gateway(
        self, tmp_path
    ):
        """Worker 0 is respawned from a gateway pool thread while the
        loop holds its TCP listener, an HTTP connection and worker 1's
        RPC socket: none of them, nor tenant u's journals, may leak."""
        def client(c):
            c.check("admit", rid="i1", streams=[spec()])
            pids = [w["pid"] for w in c.get("/healthz")["workers"]]
            for pid, tenant in zip(pids, ("t", "u")):
                assert_holds_only_its_own(pid, tmp_path, tenant)
            c.admin("kill_worker", worker=0)
            respawned = wait_for_restart(c)["workers"][0]["pid"]
            assert respawned != pids[0]
            assert_holds_only_its_own(respawned, tmp_path, "t")
            assert c.check("report")["admitted"] == 1

        checked(client, tmp_path, tenants=("t", "u"))

    def test_sigterm_to_a_worker_leaves_the_gateway_serving(self, tmp_path):
        def client(c):
            c.check("admit", rid="s1", streams=[spec()])
            os.kill(c.get("/healthz")["workers"][0]["pid"], signal.SIGTERM)
            wait_for_restart(c)
            assert c.check("report")["admitted"] == 1

        checked(client, tmp_path)
        log = (tmp_path / "workers" / "worker-0.log").read_text()
        assert "Traceback" not in log, log

    def test_trace_files_are_per_process_and_never_duplicated(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_TRACE_FILE", str(tmp_path / "t-{pid}.jsonl"))
        previous = trace.active()
        trace.configure_from_env()
        try:
            fleet = make_fleet(tmp_path / "state")
            try:
                admit_ok(fleet, "tr1")
                first = fleet.supervisor.workers[0].pid
                fleet.supervisor.kill_worker(0)
                fleet.supervisor.ensure_all()
                admit_ok(fleet, "tr2")
                second = fleet.supervisor.workers[0].pid
            finally:
                fleet.close()
        finally:
            trace.uninstall().close()
            if previous is not None:
                trace.install(previous)
        files = {int(p.stem[2:]): p for p in tmp_path.glob("t-*.jsonl")}
        assert {os.getpid(), first, second} <= set(files)
        for pid, path in files.items():  # (a SIGKILL loses a buffer)
            lines = path.read_text().splitlines()
            assert lines or pid == first, pid
            seqs = [json.loads(line)["seq"] for line in lines]
            assert seqs == sorted(set(seqs)), f"pid {pid}: seq repeats"
            assert len(set(lines)) == len(lines)
        assert '"broker.op"' in files[second].read_text()

    def test_respawned_worker_logs_its_recovery(self, tmp_path):
        fleet = make_fleet(tmp_path)
        try:
            admit_ok(fleet, "l1")
            fleet.supervisor.kill_worker(0)
            fleet.supervisor.ensure_all()
            pid = fleet.supervisor.workers[0].pid
        finally:
            fleet.close()
        log = (tmp_path / "workers" / "worker-0.log").read_text()
        assert f"worker {pid} recovered shard t/shard-0" in log, log

    def test_respawn_while_a_thread_holds_a_root_handler_lock(
        self, tmp_path
    ):
        """A fork copies a lock held by another thread as held; the
        child must not need any lock it inherited."""
        handler = logging.StreamHandler(io.StringIO())
        handler.setLevel(logging.CRITICAL + 1)  # the parent never uses it
        logging.root.addHandler(handler)
        held, release = threading.Event(), threading.Event()

        def hold():
            with handler.lock:
                held.set()
                release.wait(SPAWN_TIMEOUT)

        holder = threading.Thread(target=hold)
        fleet = make_fleet(tmp_path)
        try:
            holder.start()
            held.wait()
            fleet.supervisor.kill_worker(0)
            started = time.monotonic()
            assert fleet.supervisor.ensure_all() == 1
            assert time.monotonic() - started < SPAWN_TIMEOUT
            assert fleet.handle_request("t", {"op": "report"})["ok"]
        finally:
            release.set()
            holder.join()
            logging.root.removeHandler(handler)
            fleet.close()


def checked(client_fn, tmp_path, **kwargs):
    """:func:`run_gateway` with ``client_fn(c)`` run on a connection
    whose failure is raised here, after the gateway was shut down."""
    def client(port):
        with GatewayClient(f"127.0.0.1:{port}", api_key="key") as c:
            try:
                client_fn(c)
            except BaseException as exc:  # re-raised in the test
                return {"error": exc}
            finally:
                c.request("shutdown")
        return {}

    result = run_gateway(client, tmp_path, **kwargs)
    if "error" in result:
        raise result["error"]


def wait_for_restart(c, timeout=30.0):
    """Poll /healthz (every answer must come) until it is ok again with
    worker 0 restarted, then until a report is answered: a respawn
    counts as alive from its fork, before it serves."""
    deadline = time.monotonic() + timeout
    while True:
        health = c.get("/healthz")
        if health.get("ok") and health["workers"][0]["restarts"] >= 1:
            break
        assert time.monotonic() < deadline, health
        time.sleep(0.05)
    while c.request("report").get("code") == "worker":
        assert time.monotonic() < deadline
        time.sleep(0.05)
    return health


# ---------------------------------------------------------------------- #
# A worker does not outlive its supervisor
# ---------------------------------------------------------------------- #


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def running(pid):
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_orphaned_worker_exits_and_a_restarted_gateway_stays_quiet(tmp_path):
    """SIGKILL the gateway alone: its worker must go within 3 s, so a
    gateway restarted on the same state dir supervises what it serves
    through instead of respawning into an orphan's socket forever."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    port, poll = free_port(), 0.2     # the gateway's monitor period

    def gateway():
        with open(tmp_path / "gateway.log", "ab") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "gateway", "--port",
                 str(port), "--mesh", "4x4", "--shards", "2",
                 "--workers", "1", "--tenant", "t=key", "--state-dir",
                 str(tmp_path / "state")],
                env=env, stdin=subprocess.DEVNULL, stdout=log,
                stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + 60
        while True:
            try:
                return proc, GatewayClient(f"127.0.0.1:{port}",
                                           api_key="key")
            except OSError:
                assert proc.poll() is None and time.monotonic() < deadline, (
                    (tmp_path / "gateway.log").read_text())
                time.sleep(0.05)

    proc, c = gateway()
    try:
        for i in range(3):
            c.check("admit", rid=f"o{i}", streams=[spec(src=i, dst=i + 4)])
        worker = c.get("/healthz")["workers"][0]["pid"]
        c.close()
        proc.kill()
        proc.wait(timeout=30)
        deadline = time.monotonic() + 3.0
        while running(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not running(worker), "the orphaned worker kept serving"

        proc, c = gateway()
        time.sleep(3 * poll)
        health = c.get("/healthz")
        assert health["ok"], health
        assert [w["restarts"] for w in health["workers"]] == [0]
        assert health["workers"][0]["pid"] != worker
        assert c.check("report")["admitted"] == 3
        c.request("shutdown")
        c.close()
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup
            proc.kill()
            proc.wait(timeout=30)
