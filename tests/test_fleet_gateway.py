"""HTTP gateway tests: auth, the /v1 API, health, metrics, admin
failover — round-tripped through the real asyncio server on a loopback
TCP port, driven by :class:`GatewayClient` from a worker thread (the
same harness shape as ``test_service_server.TestAsyncFrontEnd``)."""

import asyncio
import threading

import pytest

from repro.errors import ReproError
from repro.fleet.client import GatewayClient
from repro.fleet.gateway import GatewayServer
from repro.fleet.replication import StandbyPool
from repro.fleet.shards import Fleet, TenantSpec
from repro.service.loadgen import BrokerClient, run_load
from repro.service.server import BrokerServer

TOPO = {"type": "mesh", "width": 4, "height": 4}


def spec(src=0, dst=2, priority=5, period=300, length=4):
    return {"src": src, "dst": dst, "priority": priority, "period": period,
            "length": length, "deadline": period}


def run_gateway(client_fn, tmp_path=None, *, tenants=None, shards=2,
                standbys=None):
    """Start a gateway on a loopback port, run ``client_fn(port)`` in a
    thread, and return its result dict (plus the server under "gw")."""
    tenants = tenants or [TenantSpec("acme", "secret", TOPO)]
    result = {}

    async def main():
        fleet = Fleet(tenants, shards=shards, state_dir=tmp_path)
        pool = None
        if standbys:
            pool = StandbyPool(fleet)
        gw = GatewayServer(fleet, standbys=pool, poll_interval=0.05)
        await gw.start("127.0.0.1", 0)
        thread = threading.Thread(
            target=lambda: result.update(client_fn(gw.port))
        )
        thread.start()
        await asyncio.wait_for(gw.serve_forever(), timeout=60)
        thread.join(timeout=10)
        result["gw"] = gw

    asyncio.run(main())
    return result


def shutdown(port, api_key="secret"):
    with GatewayClient(f"127.0.0.1:{port}", api_key=api_key) as c:
        c.request("shutdown")


class TestAuth:
    def test_wrong_key_is_rejected_and_counted(self):
        def client(port):
            bad = GatewayClient(f"127.0.0.1:{port}", api_key="nope")
            with pytest.raises(ReproError, match="rejected the API key"):
                bad.request("ping")
            bad.close()
            with GatewayClient(f"127.0.0.1:{port}", api_key="secret") as c:
                ping = c.check("ping")
                c.request("shutdown")
            return {"ping": ping}

        result = run_gateway(client)
        assert result["ping"]["ok"]
        assert result["gw"].auth_failures == 1

    def test_health_needs_no_key(self):
        def client(port):
            c = GatewayClient(f"127.0.0.1:{port}", api_key="whatever")
            health = c.get("/healthz")
            c.close()
            shutdown(port)
            return {"health": health}

        result = run_gateway(client)
        assert result["health"]["ok"]
        assert result["health"]["tenants"]["acme"]["shards"] == 2


class TestV1Api:
    def test_ops_round_trip(self):
        def client(port):
            out = {}
            with GatewayClient(f"127.0.0.1:{port}", api_key="secret") as c:
                out["hello"] = c.check("hello")
                out["admit"] = c.check("admit", streams=[spec()])
                out["query"] = c.check(
                    "query", stream=out["admit"]["ids"][0]
                )
                out["report"] = c.check("report")
                out["release"] = c.check(
                    "release", ids=out["admit"]["ids"]
                )
                out["stats"] = c.check("stats")
                c.request("shutdown")
            return out

        result = run_gateway(client)
        assert result["hello"]["server"] == "repro-fleet"
        assert result["hello"]["tenant"] == "acme"
        assert result["admit"]["admitted"] and result["admit"]["ids"] == [0]
        assert result["query"]["stream"]["id"] == 0
        assert result["report"]["admitted"] == 1
        assert result["release"]["released"] == [0]

    def test_duplicate_rid_is_acked_once(self):
        def client(port):
            with GatewayClient(f"127.0.0.1:{port}", api_key="secret") as c:
                first = c.request("admit", rid="r1", streams=[spec()])
                replay = c.request("admit", rid="r1", streams=[spec()])
                report = c.check("report")
                c.request("shutdown")
            return {"first": first, "replay": replay, "report": report}

        result = run_gateway(client)
        assert result["first"]["ok"] and not result["first"].get("duplicate")
        assert result["replay"]["ok"] and result["replay"]["duplicate"]
        assert result["replay"]["ids"] == result["first"]["ids"]
        assert result["report"]["admitted"] == 1, "rid replay double-applied"

    def test_request_with_retry_survives_reconnect(self):
        def client(port):
            with GatewayClient(f"127.0.0.1:{port}", api_key="secret") as c:
                c.reconnect()  # drop + redial mid-session
                response = c.request_with_retry(
                    "admit", rid="rr1", streams=[spec()]
                )
                c.request("shutdown")
            return {"response": response}

        result = run_gateway(client)
        assert result["response"]["ok"]

    def test_unknown_path_404(self):
        def client(port):
            with GatewayClient(f"127.0.0.1:{port}", api_key="secret") as c:
                missing = c.get("/nope")
                c.request("shutdown")
            return {"missing": missing}

        result = run_gateway(client)
        assert result["missing"]["ok"] is False
        # Unrouted paths share one key, so scanners cannot grow the table.
        assert result["gw"].requests[("other", 404)] == 1

    def test_run_load_drives_gateway_unchanged(self):
        """The stock churn loadgen works over HTTP via GatewayClient."""
        def client(port):
            with GatewayClient(f"127.0.0.1:{port}", api_key="secret") as c:
                summary = run_load(c, ops=40, seed=3, target_live=8)
                c.request("shutdown")
            return {"summary": summary}

        result = run_gateway(client)
        summary = result["summary"]
        assert summary.ops == 40
        assert summary.errors == 0
        assert summary.admits_accepted > 0


    def test_pipelined_run_load_is_batched_and_transport_blind(
        self, tmp_path
    ):
        """``--pipeline`` over HTTP keeps a real window in flight (the
        gateway answers it in batches), and the workload it produces is
        the one the same seed and window produce over a unix socket."""
        def client(port):
            with GatewayClient(f"127.0.0.1:{port}", api_key="secret") as c:
                summary = run_load(c, ops=200, seed=11, target_live=8,
                                   pipeline=8)
                c.request("shutdown")
            return {"summary": summary}

        result = run_gateway(client)
        over_http, gw = result["summary"], result["gw"]
        # Batching itself is measured deterministically in
        # tests/test_gateway_batching.py; here a window must merely have
        # been answered in batches at least once (the mean batch depends
        # on scheduling and reads 1.46-6.8 on a 2-vCPU host).
        assert gw.batched_requests > gw.batches

        sock = str(tmp_path / "broker.sock")
        box = {}

        def socket_client():
            with BrokerClient.wait_for_unix(sock) as c:
                box["summary"] = run_load(c, ops=200, seed=11,
                                          target_live=8, pipeline=8)
                c.check("shutdown")

        async def main():
            server = BrokerServer(TOPO)
            await server.start_unix(sock)
            thread = threading.Thread(target=socket_client)
            thread.start()
            await asyncio.wait_for(server.serve_forever(), timeout=60)
            thread.join(timeout=10)

        asyncio.run(main())
        over_socket = box["summary"]
        assert over_http.pipeline == over_socket.pipeline == 8
        for field in ("ops", "admits_tried", "admits_accepted", "releases",
                      "errors", "live_at_end"):
            assert getattr(over_http, field) == getattr(over_socket, field)
        assert over_http.errors == 0 and over_http.admits_accepted > 0


class TestMetrics:
    def test_prometheus_rollup_includes_gateway_counters(self):
        def client(port):
            with GatewayClient(f"127.0.0.1:{port}", api_key="secret") as c:
                c.check("admit", streams=[spec()])
                text = c.get("/metrics")
                c.request("shutdown")
            return {"text": text}

        text = run_gateway(client)["text"]
        assert isinstance(text, str)
        assert 'repro_fleet_tenant_streams{tenant="acme"} 1' in text
        assert "repro_gateway_http_requests_total" in text
        assert "repro_gateway_auth_failures_total 0" in text


class TestAdmin:
    def test_kill_degrades_health_and_failover_restores(self, tmp_path):
        def client(port):
            out = {}
            with GatewayClient(f"127.0.0.1:{port}", api_key="secret") as c:
                admit = c.check("admit", streams=[spec()])
                shard = None
                # Find the owning shard by killing and probing health.
                out["admit"] = admit
                kill = c.admin("kill", tenant="acme", shard=0)
                out["kill"] = kill
                out["health_down"] = c.get("/healthz")
                out["failover"] = c.admin("failover", tenant="acme",
                                          shard=0)
                out["health_up"] = c.get("/healthz")
                out["report"] = c.check("report")
                c.request("shutdown")
            return out

        result = run_gateway(client, tmp_path, standbys=True)
        assert result["kill"]["_status"] == 200
        assert result["health_down"]["ok"] is False
        assert result["health_down"]["tenants"]["acme"]["dead"] == [0]
        assert result["failover"]["_status"] == 200
        assert result["failover"]["promoted"] == 0
        assert result["health_up"]["ok"] is True
        assert result["report"]["admitted"] == 1

    def test_cross_tenant_admin_forbidden(self, tmp_path):
        tenants = [TenantSpec("acme", "k-acme", TOPO),
                   TenantSpec("beta", "k-beta", TOPO)]

        def client(port):
            with GatewayClient(f"127.0.0.1:{port}", api_key="k-acme") as c:
                forbidden = c.admin("kill", tenant="beta", shard=0)
                c.request("shutdown")
            return {"forbidden": forbidden}

        result = run_gateway(client, tenants=tenants)
        assert result["forbidden"]["_status"] == 403
        assert "does not belong" in result["forbidden"]["error"]

    def test_failover_without_standbys_is_400(self):
        def client(port):
            with GatewayClient(f"127.0.0.1:{port}", api_key="secret") as c:
                response = c.admin("failover", tenant="acme", shard=0)
                c.request("shutdown")
            return {"response": response}

        result = run_gateway(client)  # no state_dir -> no standbys
        assert result["response"]["_status"] == 400

    def test_bad_shard_is_400(self, tmp_path):
        def client(port):
            with GatewayClient(f"127.0.0.1:{port}", api_key="secret") as c:
                response = c.admin("kill", tenant="acme", shard=9)
                c.request("shutdown")
            return {"response": response}

        result = run_gateway(client, tmp_path, standbys=True)
        assert result["response"]["_status"] == 400


class TestStandbyPolling:
    def test_background_poll_ships_journal(self, tmp_path):
        """The gateway's poll task replicates without any explicit
        catch_up call from the request path."""
        def client(port):
            import time

            with GatewayClient(f"127.0.0.1:{port}", api_key="secret") as c:
                c.check("admit", streams=[spec()])
                deadline = time.monotonic() + 5.0
                shipped = {}
                while time.monotonic() < deadline:
                    shipped = c.get("/healthz").get("standbys", {})
                    if any(shipped.values()):
                        break
                    time.sleep(0.05)
                c.request("shutdown")
            return {"shipped": shipped}

        result = run_gateway(client, tmp_path, standbys=True)
        assert any(result["shipped"].values()), (
            "background poller never shipped the admit"
        )
