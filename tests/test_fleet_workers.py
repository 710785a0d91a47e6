"""Supervised worker processes (``repro.fleet.workers``).

The units here are the supervision contract itself: a SIGKILLed worker
is detected, respawned, and recovers its tenants from their journals; a
mid-RPC kill surfaces as the retryable ``worker`` error code and the
rid idempotency table makes the retry exactly-once; failing a tenant
over replays its journal inside the worker that owns it, which keeps
its pid. The gateway tests run the same machinery behind HTTP:
/healthz worker rows, /metrics worker gauges, /admin/kill_worker with
supervised convergence, /admin/kill + /admin/failover, one forward per
tenant run, and a wedged worker that stalls only its own tenants.
"""

import gc
import io
import json
import logging
import os
import random
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.fleet import workers as workers_module
from repro.fleet.client import GatewayClient
from repro.fleet.gateway import GatewayServer
from repro.fleet.shards import Fleet, TenantSpec
from repro.fleet.workers import (
    PROBE_TIMEOUT,
    SPAWN_TIMEOUT,
    WorkerClient,
    WorkerSupervisor,
)
from repro.obs import trace
from repro.service.host import EngineHost
from repro.service.loop import SelectorLoop
from repro.service.protocol import fingerprint, outcome
from tests.gateway_admin import AdminClient

TOPO = {"type": "mesh", "width": 4, "height": 4}


def spec(src=0, dst=2, priority=5, period=300, length=4):
    return {"src": src, "dst": dst, "priority": priority, "period": period,
            "length": length, "deadline": period}


def make_fleet(tmp_path, *, workers=1):
    return Fleet(
        [TenantSpec("t", "key", TOPO)], state_dir=tmp_path, workers=workers,
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
            assert fleet.health(fleet.stats())[0]
            fleet.supervisor.kill_worker(0)
            assert not fleet.health(fleet.stats())[0]
            fleet.supervisor.ensure_all()
            assert fleet.health(fleet.stats())[0]
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
            assert row["tenants"] == ["t"]
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
    @pytest.mark.skipif(not Path("/proc/self/fd").exists(),
                        reason="needs /proc")
    def test_failover_replays_inside_the_owning_worker(self, tmp_path):
        """Failover in worker mode: the tenant's journal is replayed by
        the worker that owns it — same pid, the replay in its log — and
        this process never opens the journal."""
        fleet = make_fleet(tmp_path)
        journal = (tmp_path / "t" / "journal.jsonl").resolve()
        try:
            admitted = admit_ok(fleet, "f1")
            sid = admitted["ids"][0]
            wp = fleet.supervisor.worker_for("t")
            pid = wp.pid
            for op in ("kill", "failover"):
                assert fleet.handle_request("t", {"op": op})["ok"]
            assert journal not in set(fd_table(os.getpid()).values())
            assert wp.pid == pid and wp.restarts == 0
            health = fleet.health(fleet.stats())
            assert health[0] and not health[1]["t"]["dead"]
            query = fleet.handle_request("t", {"op": "query", "stream": sid})
            assert query["ok"] and query["stream"]["id"] == sid
            report = fleet.handle_request("t", {"op": "report"})
            assert report["ok"] and report["admitted"] == 1
        finally:
            fleet.close()
        log = (tmp_path / "workers" / "worker-0.log").read_text()
        assert f"worker[{pid}] INFO" in log
        assert "tenant t replayed its journal (1 streams)" in log


def run_gateway(client_fn, tmp_path, *, workers=2, tenants=("t",)):
    """test_fleet_gateway harness, worker-pool edition (tenant ``t``'s
    key is ``key``, any other's ``key-<name>``)."""
    result = {}
    gw = GatewayServer(Fleet(
        [TenantSpec(t, "key" if t == "t" else f"key-{t}", TOPO)
         for t in tenants],
        state_dir=tmp_path, workers=workers,
    ))
    port = gw.bind_tcp("127.0.0.1", 0)
    thread = threading.Thread(target=lambda: result.update(client_fn(port)))
    thread.start()
    timer = threading.Timer(120, gw.request_shutdown)
    timer.start()
    try:
        gw.run()
    finally:
        timer.cancel()
    thread.join(timeout=10)
    result["gw"] = gw
    return result


def answered(loop, *asks):
    """Start every ``ask(done)`` at once on ``loop``; what each one's
    ``done`` was handed, once all were (within 30 s)."""
    got = {}
    for i, ask in enumerate(asks):
        ask(lambda value, i=i: got.__setitem__(i, value))
    assert loop.run(lambda: len(got) == len(asks), timeout=30)
    return [got[i] for i in range(len(asks))]


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
        assert workers[0]["tenants"] == ["t"]

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
        monitor task respawn it, and prove the tenants still serve."""
        def client(port):
            out = {}
            with AdminClient(f"127.0.0.1:{port}", api_key="key") as c:
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
            with AdminClient(f"127.0.0.1:{port}", api_key="key") as c:
                bad = c.admin("kill_worker", worker=9)
                c.request("shutdown")
            return {"bad": bad}

        result = run_gateway(client, tmp_path)
        assert result["bad"]["_status"] == 400

    def test_admin_kill_worker_without_workers_is_400(self, tmp_path):
        def client(port):
            with AdminClient(f"127.0.0.1:{port}", api_key="key") as c:
                response = c.admin("kill_worker", worker=0)
                c.request("shutdown")
            return {"response": response}

        result = run_gateway(client, tmp_path, workers=0)
        assert result["response"]["_status"] == 400
        assert "worker" in result["response"]["error"]

    @pytest.mark.skipif(not Path("/proc/self/fd").exists(),
                        reason="needs /proc")
    def test_admin_failover_recovers_in_the_worker(self, tmp_path):
        """Kill then fail over a worker-hosted tenant over HTTP: the
        journal is replayed by the worker that owns the tenant (its pid
        unchanged, the replay in its log), never opened by the gateway,
        and the other tenant's worker is left alone."""
        journal = (tmp_path / "t" / "journal.jsonl").resolve()

        def client(port):
            out = {}
            with AdminClient(f"127.0.0.1:{port}", api_key="key") as c:
                for i in range(3):
                    c.check("admit", rid=f"fo{i}",
                            streams=[spec(src=i, dst=i + 4)])
                out["before"] = c.get("/healthz")
                out["kill"] = c.admin("kill", tenant="t")
                out["down"] = c.get("/healthz")
                out["failover"] = c.admin("failover", tenant="t")
                out["holds_journal"] = (
                    journal in set(fd_table(os.getpid()).values())
                )
                out["after"] = c.get("/healthz")
                out["report"] = c.check("report")
                c.request("shutdown")
            return out

        result = run_gateway(client, tmp_path, tenants=("t", "u"))
        assert result["kill"]["_status"] == 200
        assert result["down"]["tenants"]["t"]["dead"] is True
        assert result["failover"]["_status"] == 200
        assert result["failover"]["recovered"] == "t"
        assert not result["holds_journal"]
        before = {w["index"]: w["pid"] for w in result["before"]["workers"]}
        after = {w["index"]: w["pid"] for w in result["after"]["workers"]}
        assert after == before           # replayed in place, no respawn
        assert result["after"]["ok"], result["after"]
        assert result["after"]["tenants"]["t"]["admitted"] == 3
        assert result["report"]["admitted"] == 3
        assert result["report"]["report"]["success"]
        log = (tmp_path / "workers" / "worker-0.log").read_text()
        assert "tenant t replayed its journal" in log

    def test_a_wedged_worker_stalls_only_its_own_tenants(self, tmp_path):
        """Tenant t's worker is stopped while a ``/metrics`` scrape waits
        on it: tenant u's worker still answers within a second, the
        scrape completes without t's series, ``/healthz`` answers 503
        with t down within ``PROBE_TIMEOUT``, and t's worker is killed
        and respawned."""
        def client(port):
            out = {}
            scraper = GatewayClient(f"127.0.0.1:{port}", api_key="key")
            with GatewayClient(f"127.0.0.1:{port}", api_key="key-u") as u:
                wedged = u.get("/healthz")["workers"][0]["pid"]
                os.kill(wedged, signal.SIGSTOP)
                try:
                    scrape = threading.Thread(
                        target=lambda: out.update(text=scraper.get("/metrics"))
                    )
                    scrape.start()
                    time.sleep(0.2)     # the scrape now waits on worker 0
                    started = time.monotonic()
                    out["admit"] = u.check("admit", rid="u1",
                                           streams=[spec()])
                    out["admit_s"] = time.monotonic() - started
                    out["scrape_pending"] = scrape.is_alive()
                    started = time.monotonic()
                    out["wedged_health"] = u.get("/healthz")
                    out["health_s"] = time.monotonic() - started
                finally:
                    os.kill(wedged, signal.SIGKILL)
                scrape.join(timeout=30)
                out["scraped"] = not scrape.is_alive()
                scraper.close()
                out["health"] = wait_for_restart(u)
                u.request("shutdown")
            return out

        result = run_gateway(client, tmp_path, tenants=("t", "u"))
        assert result["admit"]["admitted"]
        assert result["admit_s"] < 1.0, result["admit_s"]
        assert result["scrape_pending"]
        assert result["scraped"]
        assert result["health_s"] < PROBE_TIMEOUT + 1.0, result["health_s"]
        wedged = result["wedged_health"]
        assert not wedged["ok"]
        assert wedged["tenants"]["t"]["dead"] is True
        assert wedged["tenants"]["u"]["dead"] is False
        assert wedged["tenants"]["u"]["admitted"] == 1
        # t's series went with its worker; u's were served (asked at
        # once, not after t's, so most likely before u's admit).
        assert re.search(
            r'\nrepro_engine_admitted_streams\{tenant="u"\} [01]\n',
            result["text"],
        )
        assert 'tenant="t"' not in result["text"]
        assert result["health"]["workers"][0]["restarts"] == 1

    def test_a_run_larger_than_the_socket_buffers_is_answered(
        self, tmp_path, monkeypatch
    ):
        """A forwarded run whose requests and answers each outgrow the
        socket buffers: the worker answers its first requests while the
        last are still being written, so the answers must be read as
        they come, or both sides block until the RPC timeout."""
        monkeypatch.setattr(workers_module, "RPC_TIMEOUT", 10.0)
        fleet = make_fleet(tmp_path)
        loop = SelectorLoop()
        try:
            # An answer echoes its request's id: 4 x 512 KiB each way.
            run = [{"op": "ping", "id": f"{i}" + "x" * (512 << 10)}
                   for i in range(4)]
            started = time.monotonic()
            [lines] = answered(loop, lambda done: fleet.supervisor.forward(
                loop, "t", run, done))
            elapsed = time.monotonic() - started
            answers = [json.loads(line) for line in lines]
            assert [a.get("ok") for a in answers] == [True] * 4, [
                a.get("error") for a in answers]
            assert [a["id"] for a in answers] == [r["id"] for r in run]
            assert elapsed < 5.0, elapsed
        finally:
            loop.close()
            fleet.close()


def wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


class TestGatewayLife:
    """The gateway's synchronous life (bind, ``run``, a thread-safe
    ``request_shutdown``) with its worker monitor, and the asyncio
    adapters the bench spine embeds it with."""

    def test_served_from_asyncio_and_stopped_from_its_loop(self, tmp_path):
        """``benchmarks/spine/ladder.py``'s ``OnOwnLoop``: ``start`` and
        ``serve_forever`` under ``asyncio.run`` on a thread, stopped
        with ``call_soon_threadsafe(server.request_shutdown)``."""
        import asyncio

        fleet = make_fleet(tmp_path, workers=2)
        server = GatewayServer(fleet)
        box = {}
        ready = threading.Event()

        async def main():
            box["loop"] = asyncio.get_running_loop()
            await server.start("127.0.0.1", 0)
            ready.set()
            await asyncio.wait_for(server.serve_forever(), timeout=60)

        thread = threading.Thread(target=lambda: asyncio.run(main()))
        thread.start()
        assert ready.wait(timeout=30)
        with GatewayClient(f"127.0.0.1:{server.port}", api_key="key") as c:
            assert c.check("admit", streams=[spec()])["admitted"]
            assert c.get("/healthz")["ok"]
            box["loop"].call_soon_threadsafe(server.request_shutdown)
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert not any(wp.alive for wp in fleet.supervisor.workers)

    def test_a_failed_respawn_sweep_does_not_end_the_monitor(
        self, tmp_path, monkeypatch
    ):
        """A sweep whose ``fork`` is refused (EAGAIN) is logged, and the
        next sweep respawns the dead worker; shutdown still stops every
        worker."""
        fleet = make_fleet(tmp_path, workers=2)
        sup = fleet.supervisor
        sweeps = []
        ensure_all = sup.ensure_all

        def flaky():
            sweeps.append(len(sweeps))
            if len(sweeps) == 1:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return ensure_all()

        monkeypatch.setattr(sup, "ensure_all", flaky)
        gateway = GatewayServer(fleet)
        gateway.bind_tcp("127.0.0.1", 0)
        thread = threading.Thread(target=gateway.run)
        thread.start()
        try:
            wait_until(lambda: sweeps)
            os.kill(sup.workers[0].pid, signal.SIGKILL)
            wait_until(lambda: sup.workers[0].restarts == 1
                       and sup.workers[0].alive)
        finally:
            gateway.request_shutdown()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert not any(wp.alive for wp in sup.workers)


class TestSupervisorGuards:
    def test_needs_at_least_one_worker(self, tmp_path):
        with pytest.raises(ReproError, match="at least one worker"):
            WorkerSupervisor(tmp_path, 0)

    def test_worker_mode_requires_state_dir(self):
        with pytest.raises(ReproError, match="state"):
            Fleet([TenantSpec("t", "key", TOPO)], workers=1)

    def test_failed_connect_closes_its_socket(self, tmp_path):
        """Every RPC to a dead worker connects to a socket path nobody
        listens on: each refused attempt answers the retryable
        ``code: "worker"`` and closes what it opened."""
        client = WorkerClient(tmp_path / "not-bound-yet.sock")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for _ in range(3):
                answer = client.call({"op": "hello"})
                assert answer["code"] == "worker", answer
            gc.collect()   # a leaked socket would be finalised here
            client.close_forward()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_fallback_socket_dir_goes_with_its_fleet(self, tmp_path):
        """A state dir too deep for ``sun_path`` puts the sockets in a
        private tempdir: closing the fleet removes it, and only it."""
        deep = tmp_path / ("d" * 60) / ("e" * 40)
        sock_dirs = []
        for i in range(3):
            fleet = make_fleet(deep / f"s{i}")
            sock_dirs.append(fleet.supervisor.sock_dir)
            assert admit_ok(fleet, f"deep{i}")["admitted"]
            fleet.close()
        for sock_dir in sock_dirs:
            assert sock_dir.name.startswith("repro-w-")
            assert not sock_dir.exists(), sock_dir
        for i in range(3):
            assert (deep / f"s{i}" / "workers" / "worker-0.log").exists()

    def test_assign_after_start_is_refused(self, tmp_path):
        fleet = make_fleet(tmp_path)
        try:
            with pytest.raises(ReproError, match="after start"):
                fleet.supervisor.assign_tenant("u", {})
        finally:
            fleet.close()


# ---------------------------------------------------------------------- #
# One worker round trip per tenant run
# ---------------------------------------------------------------------- #


@pytest.fixture()
def rpc_log(monkeypatch):
    """Every ``WorkerClient.call`` made while the test runs, by op."""
    log = []
    real_call = WorkerClient.call

    def counted(self, payload, **kw):
        log.append(payload["op"])
        return real_call(self, payload, **kw)

    monkeypatch.setattr(WorkerClient, "call", counted)
    return log


class TestRoundTripsPerOp:
    """A tenant's host lives in its worker, so a synchronous request is
    one round trip whatever it decides, and a run of one tenant's
    pipelined requests through the gateway is one forward."""

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

    def test_migration_asks_no_worker_for_specs(self, tmp_path, rpc_log):
        """A batch touching two independent groups of streams (once a
        migration between shards) is decided inside the worker, in one
        round trip."""
        fleet = make_fleet(tmp_path)
        try:
            self._do(fleet, rpc_log, {"op": "admit", "streams": [spec(0, 1)]})
            self._do(fleet, rpc_log, {"op": "admit", "streams": [spec(2, 3)]})
            bridge, calls = self._do(fleet, rpc_log, {
                "op": "admit",
                "streams": [spec(0, 1, priority=4), spec(2, 3, priority=4)],
            })
            assert bridge["admitted"] and calls == ["admit"]
            stats, _ = self._do(fleet, rpc_log, {"op": "stats"})
            assert stats["admitted"] == 4 and "escalations" not in stats
        finally:
            fleet.close()

    def test_a_pipelined_run_is_one_forward(self, tmp_path):
        ops = 6

        def client(port):
            with GatewayClient(f"127.0.0.1:{port}", api_key="key") as c:
                for i in range(ops):
                    c.send("admit", rid=f"p{i}",
                           streams=[spec(src=i, dst=i + 4)])
                c.flush()
                answers = [c.recv() for _ in range(ops)]
                c.request("shutdown")
            return {"answers": answers}

        result = run_gateway(client, tmp_path, workers=1)
        gw = result["gw"]
        assert all(a["ok"] and a["admitted"] for a in result["answers"])
        # Two passes: the run of admits, then the shutdown.
        assert (gw.batches, gw.batched_requests) == (2, ops + 1)
        assert gw.fleet.supervisor.workers[0].client.calls == {"admit": 1}

    def test_a_mixed_pipelined_run_counts_once_under_its_first_op(
        self, tmp_path
    ):
        """Whatever ops a pipelined run mixes, it is one forward: one
        count under its first op in ``WorkerClient.calls`` and in
        ``repro_fleet_worker_rpcs_total`` (which the scrape's own
        ``stats`` forward joins)."""
        ops = [("query", {"stream": 0}), ("admit", {"streams": [spec()]}),
               ("ping", {}), ("report", {}), ("query", {"stream": 0}),
               ("release", {"ids": [0]}), ("links", {})]

        def client(port):
            with GatewayClient(f"127.0.0.1:{port}", api_key="key") as c:
                for op, fields in ops:
                    c.send(op, **fields)
                c.flush()
                answers = [c.recv() for _ in ops]
                text = c.get("/metrics")
                c.request("shutdown")
            return {"answers": answers, "text": text}

        result = run_gateway(client, tmp_path, workers=1)
        assert [a["ok"] for a in result["answers"]] == [
            False, True, True, True, True, True, True]
        assert result["gw"].fleet.supervisor.workers[0].client.calls == {
            "query": 1, "stats": 1}
        rpcs = re.findall(r'repro_fleet_worker_rpcs_total\{op="(\w+)",'
                          r'worker="0"\} (\S+)', result["text"])
        assert sorted(rpcs) == [("query", "1"), ("stats", "1")]


def peer_pid(sock):
    """The pid at the other end of a unix socket."""
    cred = sock.getsockopt(socket.SOL_SOCKET, socket.SO_PEERCRED,
                           struct.calcsize("3i"))
    return struct.unpack("3i", cred)[0]


@pytest.fixture()
def kill_after_write(monkeypatch):
    """While the returned event is set, the next run written on a link
    SIGKILLs the worker at its other end once the run's bytes are out
    (and clears the event); the pids killed are ``event.killed``."""
    armed = threading.Event()
    armed.killed = []
    real_send = workers_module._AnswerLines.send

    def send(link, data, run):
        real_send(link, data, run)
        if armed.is_set():
            armed.clear()
            armed.killed.append(peer_pid(link.transport._sock))
            os.kill(armed.killed[-1], signal.SIGKILL)

    monkeypatch.setattr(workers_module._AnswerLines, "send", send)
    return armed


def settle(c, op, fields, *, timeout=30.0):
    """Ask ``op`` until the answer is not the retryable worker code
    (the same rid every time, if ``fields`` has one)."""
    deadline = time.monotonic() + timeout
    while True:
        answer = c.request(op, **fields)
        answer.pop("id", None)
        if answer.get("code") != "worker" or time.monotonic() > deadline:
            return answer
        time.sleep(0.05)


def decided(op, answer):
    """What a retry must reproduce: a mutation's outcome, or its error."""
    if answer["ok"]:
        return outcome(op, **answer)
    return {key: answer.get(key) for key in ("code", "error")}


def digest(c):
    """The tenant's state fingerprint, asked over ``c``."""
    def ask(request):
        request = dict(request)
        return settle(c, request.pop("op"), request)

    report = ask({"op": "report"})["report"]
    ids = sorted(int(sid) for sid in report["streams"])
    return fingerprint(ask, ids, None)


class TestForwardedLink:
    """The gateway's forward: one persistent link per worker with runs
    pipelined on it, and a worker death or wedge answered with the
    retryable ``code: "worker"`` for every request left unanswered."""

    def test_a_kill_under_a_pipelined_run_retries_to_the_committed_outcome(
        self, tmp_path, kill_after_write
    ):
        streams = [[spec(src=i, dst=i + 4)] for i in range(6)]

        def client(port):
            with GatewayClient(f"127.0.0.1:{port}", api_key="key") as c:
                kill_after_write.set()
                for i, batch in enumerate(streams):
                    c.send("admit", rid=f"k{i}", streams=batch)
                c.flush()
                first = [c.recv() for _ in streams]
                final = [settle(c, "admit", {"rid": f"k{i}", "streams": b})
                         for i, b in enumerate(streams)]
                state = digest(c)
                c.request("shutdown")
            return {"first": first, "final": final, "state": state}

        result = run_gateway(client, tmp_path, workers=1)
        assert len(kill_after_write.killed) == 1
        codes = [a.get("code") for a in result["first"]]
        assert "worker" in codes, result["first"]
        assert all(a["ok"] or code == "worker"
                   for a, code in zip(result["first"], codes))
        oracle = EngineHost(TOPO)
        want = [oracle.handle_request(
            {"op": "admit", "rid": f"k{i}", "streams": batch})
            for i, batch in enumerate(streams)]
        assert [decided("admit", a) for a in result["final"]] == [
            decided("admit", a) for a in want]
        assert result["state"] == fingerprint(
            oracle.handle_request, oracle.admitted_ids(), None)
        oracle.close()

    def test_a_wedged_worker_fails_every_run_on_its_link(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(workers_module, "RPC_TIMEOUT", 0.5)
        fleet = make_fleet(tmp_path)
        sup = fleet.supervisor
        client, pid = sup.workers[0].client, sup.workers[0].pid
        run = [{"op": "query", "stream": 0}, {"op": "ping"}]
        loop = SelectorLoop()

        def forward(requests):
            return lambda done: sup.forward(loop, "t", requests, done)

        try:
            answered(loop, forward([{"op": "ping"}]))
            link = client._links[loop]
            os.kill(pid, signal.SIGSTOP)
            try:
                runs = answered(loop, *[forward(run)] * 3)
                dropped = link.failed and client._links[loop] is link
            finally:
                os.kill(pid, signal.SIGCONT)
            [[after]] = answered(loop, forward([{"op": "ping"}]))
            answers = [json.loads(line) for lines in runs for line in lines]
            assert [a.get("code") for a in answers] == ["worker"] * 6
            assert all("TimeoutError" in a["error"] for a in answers)
            assert dropped
            assert json.loads(after)["ok"] and client._links[loop] is not link
        finally:
            loop.close()
            fleet.close()


@pytest.fixture()
def link_writes(monkeypatch):
    """Every run written on a worker link while the test runs, and every
    signal sent meanwhile, in order: ``("send", [op, ...])`` and
    ``("kill", signal)``."""
    events = []
    real_send, real_kill = workers_module._AnswerLines.send, os.kill

    def send(link, data, run):
        real_send(link, data, run)
        events.append(("send", [json.loads(line)["op"]
                                for line in data.splitlines()]))

    def kill(pid, sig):
        events.append(("kill", sig))
        real_kill(pid, sig)

    monkeypatch.setattr(workers_module._AnswerLines, "send", send)
    monkeypatch.setattr(os, "kill", kill)
    return events


class TestOneWayToAWorker:
    """A blocking caller (``Fleet.handle_request``, the chaos campaign, the
    gateway's start-up count) rides a link as the gateway's forward
    does, and a worker stops by draining, as the broker does."""

    def test_a_blocking_request_is_written_on_a_link(self, tmp_path,
                                                      link_writes):
        fleet = make_fleet(tmp_path)
        try:
            assert fleet.handle_request("t", {"op": "ping"})["ok"]
        finally:
            fleet.close()
        assert ("send", ["ping"]) in link_writes

    def test_an_armed_kill_fires_after_the_write_and_converges(
        self, tmp_path, link_writes
    ):
        """The in-flight SIGKILL follows the admit's write on the link;
        one retry (the dead worker reaped and respawned) finds the
        committed outcome, and the admit is applied once."""
        fleet = make_fleet(tmp_path)
        request = {"op": "admit", "rid": "once", "streams": [spec()]}
        try:
            fleet.supervisor.arm_inflight_kill()
            answers = [fleet.handle_request("t", dict(request))]
            if answers[0].get("code") == "worker":
                answers.append(fleet.handle_request("t", dict(request)))
            report = fleet.handle_request("t", {"op": "report"})
            restarts = fleet.supervisor.workers[0].restarts
        finally:
            fleet.close()
        first_kill = link_writes.index(("kill", signal.SIGKILL))
        assert link_writes[first_kill - 1] == ("send", ["admit"])
        assert answers[-1]["ok"] and answers[-1]["ids"] == [0], answers
        assert report["admitted"] == 1, "mid-RPC kill double-applied"
        assert restarts == 1

    def test_sigterm_answers_what_a_stopped_worker_was_sent(self, tmp_path):
        """SIGSTOP a worker, send it an admit, SIGTERM and SIGCONT it:
        it answers the admit, exits 0 and unlinks its socket, and the
        admit is in its journal."""
        fleet = make_fleet(tmp_path)
        wp = fleet.supervisor.workers[0]
        try:
            with socket.socket(socket.AF_UNIX) as sock:
                sock.settimeout(30)
                sock.connect(str(wp.socket_path))
                lines = sock.makefile("rb")
                sock.sendall(b'{"op": "ping", "tenant": "t"}\n')
                assert json.loads(lines.readline())["ok"]   # accepted
                os.kill(wp.pid, signal.SIGSTOP)
                sock.sendall(json.dumps({
                    "op": "admit", "rid": "drained", "tenant": "t",
                    "streams": [spec()]}).encode() + b"\n")
                os.kill(wp.pid, signal.SIGTERM)
                os.kill(wp.pid, signal.SIGCONT)
                answer = json.loads(lines.readline())
                assert lines.readline() == b""
                lines.close()
            assert wp.proc.wait(timeout=30) == 0
            assert not wp.socket_path.exists()
            assert answer["ok"] and answer["ids"] == [0], answer
            assert fleet.supervisor.ensure_worker(wp)
            assert fleet.handle_request("t", {"op": "report"})["admitted"] == 1
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
    assert kinds.get("file", []) in (
        [], [str(tmp_path / tenant / "journal.jsonl")]), own


@pytest.mark.skipif(not Path("/proc/self/fd").exists(), reason="needs /proc")
class TestForkIsolation:
    def test_worker_fds_at_start_and_after_a_respawn_in_a_gateway(
        self, tmp_path
    ):
        """Worker 0 is respawned from the gateway monitor's thread while
        the loop holds its TCP listener, an HTTP connection and worker
        1's socket: none of them, nor tenant u's journals, may leak."""
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
        for pid, path in files.items():
            lines = path.read_text().splitlines()
            # A SIGKILL loses a buffer; this process only routes.
            assert lines or pid in (first, os.getpid()), pid
            seqs = [json.loads(line)["seq"] for line in lines]
            assert seqs == sorted(set(seqs)), f"pid {pid}: seq repeats"
            assert len(set(lines)) == len(lines)
        # A tenant's op is one span: its host is the engine host.
        assert '"fleet.op"' in files[second].read_text()
        assert '"broker.op"' not in files[second].read_text()

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
        assert f"worker {pid} recovered tenant t (1 streams)" in log, log

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
        with AdminClient(f"127.0.0.1:{port}", api_key="key") as c:
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


def start_gateway(tmp_path, port, *, tenants=("t",)):
    """``repro gateway --workers`` (one worker per tenant, a tenant's
    api key is its name) as a child process on ``tmp_path / "state"``;
    returns it and a client of the first tenant once it answers."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    with open(tmp_path / "gateway.log", "ab") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "gateway", "--port",
             str(port), "--mesh", "4x4", "--workers", str(len(tenants)),
             *[f"--tenant={t}={t}" for t in tenants],
             "--state-dir", str(tmp_path / "state")],
            env=env, stdin=subprocess.DEVNULL, stdout=log,
            stderr=subprocess.STDOUT,
        )
    deadline = time.monotonic() + 60
    while True:
        try:
            return proc, GatewayClient(f"127.0.0.1:{port}",
                                       api_key=tenants[0])
        except OSError:
            assert proc.poll() is None and time.monotonic() < deadline, (
                (tmp_path / "gateway.log").read_text())
            time.sleep(0.05)


@pytest.mark.skipif(not Path("/proc/self/fd").exists(), reason="needs /proc")
def test_a_gateway_keeps_no_blocking_link_to_its_workers(tmp_path):
    """``repro gateway`` counts the streams its workers recovered with
    blocking calls, before it binds; from then on it forwards on its own
    loop only. No selector, wake-up pair or link of that count stays
    open: one selector in the process, and one link, the one the
    forwarded request opened."""
    proc, c = start_gateway(tmp_path, free_port(), tenants=("t", "u"))
    try:
        assert c.check("report")["admitted"] == 0
        kinds = [target.split(":", 1)[0]
                 for target in fd_table(proc.pid).values()]
        assert kinds.count("anon_inode") == 1, fd_table(proc.pid)
        # The loop's wake-up pair, the listener, the client's
        # connection and the link to t's worker.
        assert kinds.count("socket") == 5, fd_table(proc.pid)
        c.request("shutdown")
        c.close()
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup
            proc.kill()
            proc.wait(timeout=30)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_orphaned_worker_exits_and_a_restarted_gateway_stays_quiet(tmp_path):
    """SIGKILL the gateway alone: its worker must go within 3 s, so a
    gateway restarted on the same state dir supervises what it serves
    through instead of respawning into an orphan's socket forever."""
    port, poll = free_port(), 0.2     # the gateway's monitor period
    proc, c = start_gateway(tmp_path, port)
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

        proc, c = start_gateway(tmp_path, port)
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


@pytest.mark.chaos
def test_pipelined_http_batches_survive_worker_kills(tmp_path,
                                                      kill_after_write):
    """Seeded chaos through ``--workers 2``: batches of two tenants'
    admits and releases are pipelined over HTTP while workers are
    SIGKILLed under runs on their links (in 5 of the batches). Each op
    is retried with its rid until its answer is definitive; then no
    acked stream is lost, none is live that no ack admitted, and each
    tenant's answers and state digest are an in-process oracle's."""
    rng = random.Random(41)
    keys = {"t": "key", "u": "key-u"}
    batches = 18
    kill_at = set(rng.sample(range(batches), 5))

    def client(port):
        conns = {t: GatewayClient(f"127.0.0.1:{port}", api_key=key)
                 for t, key in keys.items()}
        settled = {t: [] for t in keys}   # (request, definitive answer)
        live = {t: set() for t in keys}   # what the acks say is admitted
        retried = 0
        try:
            for b in range(batches):
                tenant = rng.choice(sorted(keys))
                c, batch = conns[tenant], []
                for k in range(rng.randint(3, 6)):
                    fields = {"rid": f"{tenant}{b}.{k}"}
                    if live[tenant] and rng.random() < 0.3:
                        fields["ids"] = [rng.choice(sorted(live[tenant]))]
                        batch.append(("release", fields))
                        continue
                    src, dst = rng.sample(range(16), 2)
                    period = rng.randrange(200, 400)
                    fields["streams"] = [{
                        "src": src, "dst": dst, "priority": rng.randint(1, 8),
                        "period": period, "length": rng.randint(2, 6),
                        "deadline": period}]
                    batch.append(("admit", fields))
                if b in kill_at:
                    kill_after_write.set()
                for op, fields in batch:
                    c.send(op, **fields)
                c.flush()
                for (op, fields), answer in zip(batch, [c.recv()
                                                        for _ in batch]):
                    answer.pop("id", None)
                    if answer.get("code") == "worker":
                        retried += 1
                        answer = settle(c, op, fields)
                    assert answer.get("code") != "worker", answer
                    settled[tenant].append(({"op": op, **fields}, answer))
                    if op == "admit" and answer.get("admitted"):
                        live[tenant].update(answer["ids"])
                    elif op == "release" and answer["ok"]:
                        live[tenant] -= set(fields["ids"])
            served = {t: (settle(c, "report", {}), digest(c))
                      for t, c in conns.items()}
            conns["t"].request("shutdown")
        finally:
            for c in conns.values():
                c.close()
        return {"settled": settled, "live": live, "served": served,
                "retried": retried}

    result = run_gateway(client, tmp_path, tenants=tuple(keys))
    assert len(kill_after_write.killed) >= 3
    assert result["retried"] >= 3
    for tenant in keys:
        report, state = result["served"][tenant]
        served = {int(sid) for sid in report["report"]["streams"]}
        acked = result["live"][tenant]
        assert not acked - served, "acked then lost"
        assert not served - acked, "phantom streams"
        oracle = EngineHost(TOPO)
        for request, answer in result["settled"][tenant]:
            want = oracle.handle_request(dict(request))
            assert decided(request["op"], answer) == decided(
                request["op"], want), (request, answer, want)
        assert state == fingerprint(
            oracle.handle_request, oracle.admitted_ids(), None)
        oracle.close()
