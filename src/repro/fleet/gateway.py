"""HTTP gateway: the fleet's front door (``repro gateway``).

A dependency-free asyncio HTTP/1.1 server (keep-alive, Content-Length
framing) exposing the broker protocol as a JSON-over-HTTP API:

``GET  /healthz``
    Liveness/consistency rollup: per tenant, shard count, dead shards,
    degraded flags, admitted streams, standby lag. ``200`` when every
    shard is up and writable, ``503`` otherwise. Unauthenticated (it
    leaks no tenant data beyond counts).
``GET  /metrics``
    Prometheus rollup across every tenant and shard (plus the gateway's
    own HTTP counters). Unauthenticated, like the broker's scrape port.
``POST /v1/{admit,release,query,report,stats,snapshot,hello}``
    The broker ops, one endpoint each: the JSON body carries the op's
    fields (``streams``, ``analysis``, ``ids``, ``rid``, ...), the
    ``X-API-Key`` header picks the tenant. Responses are the broker
    protocol's response objects verbatim, status 200 even for
    ``ok: false`` (protocol errors are data; HTTP status is transport).
``POST /v1/op``
    Generic passthrough: the body *is* a protocol request object. The
    churn loadgen drives this endpoint, which keeps its op stream
    byte-compatible with the raw socket broker.
``POST /admin/failover`` ``{"tenant": ..., "shard": N}``
    Promote the shard's warm standby (the primary must be dead). The
    API key must belong to the named tenant.
``POST /admin/kill`` ``{"tenant": ..., "shard": N}``
    Simulate a primary crash (testing/chaos; same auth rule).
``POST /admin/kill_worker`` ``{"worker": N}``
    SIGKILL worker process ``N`` (worker-pool mode only; any valid
    tenant key). The monitor task restarts it with journal recovery —
    the drill CI runs to prove supervised restarts converge.
``POST /v1/shutdown``
    Stop the gateway (any valid tenant key).

In the default in-process fleet every admission op executes
synchronously on the event-loop thread — the same single-writer model
as the broker's worker task, so decisions stay linearisable per tenant
without locks. In worker-pool mode (``repro gateway --workers N``) the
shards run in supervised child processes, so ops dispatch to a thread
pool under one asyncio lock per tenant: still single-writer *per
tenant*, but different tenants' admissions now run truly in parallel
across cores. Background tasks tail the journals into the warm standbys
and restart any worker that dies.
"""

from __future__ import annotations

import asyncio
import json
import logging
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..errors import ReproError
from ..obs.metrics import MetricsRegistry
from .replication import StandbyPool
from .shards import Fleet

__all__ = ["GatewayServer"]

logger = logging.getLogger(__name__)

_OPS = ("hello", "ping", "admit", "release", "query", "report",
        "snapshot", "stats", "fail_link", "restore_link", "links")
_MAX_BODY = 8 * 1024 * 1024


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class GatewayServer:
    """HTTP front end over a :class:`Fleet` (+ optional standbys)."""

    def __init__(
        self,
        fleet: Fleet,
        *,
        standbys: Optional[StandbyPool] = None,
        poll_interval: float = 0.2,
    ):
        self.fleet = fleet
        self.standbys = standbys
        self.poll_interval = poll_interval
        self.requests: Dict[Tuple[str, int], int] = {}
        self.auth_failures = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopping: Optional[asyncio.Event] = None
        self._poll_task: Optional[asyncio.Task] = None
        self._monitor_task: Optional[asyncio.Task] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._tenant_locks: Dict[str, asyncio.Lock] = {}
        self._clients: set = set()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self, host: str, port: int) -> None:
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._client, host=host, port=port
        )
        if self.standbys is not None:
            self._poll_task = asyncio.create_task(self._poll_standbys())
        if self.fleet.supervisor is not None:
            # Worker-pool mode: fleet ops block on a child-process RPC,
            # so they leave the event loop for a thread pool — one
            # tenant may run at a time (asyncio lock per tenant keeps
            # the single-writer order), different tenants in parallel.
            self._executor = ThreadPoolExecutor(
                max_workers=len(self.fleet.tenants) + 1,
                thread_name_prefix="gw-fleet",
            )
            self._monitor_task = asyncio.create_task(self._monitor_workers())

    @property
    def port(self) -> int:
        """The bound port (useful with port 0 in tests)."""
        assert self._server is not None
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            raise ReproError("gateway not started")
        assert self._stopping is not None
        await self._stopping.wait()
        # Let the connection that asked for shutdown flush its response
        # before its task is cancelled.
        await asyncio.sleep(0.05)
        await self.aclose()

    def request_shutdown(self) -> None:
        if self._stopping is not None:
            self._stopping.set()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._clients):
            task.cancel()
        if self._clients:
            await asyncio.gather(*self._clients, return_exceptions=True)
        self._clients.clear()
        for attr in ("_poll_task", "_monitor_task"):
            task = getattr(self, attr)
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
                setattr(self, attr, None)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self.fleet.close()

    async def _poll_standbys(self) -> None:
        assert self.standbys is not None
        while True:
            try:
                self.standbys.catch_up()
            except ReproError:  # pragma: no cover - defensive
                logger.exception("standby catch-up failed")
            await asyncio.sleep(self.poll_interval)

    async def _monitor_workers(self) -> None:
        """Respawn dead workers between requests, not just on the next
        request that happens to hit one (a wedged worker whose tenants
        are idle would otherwise stay down forever)."""
        supervisor = self.fleet.supervisor
        assert supervisor is not None and self._executor is not None
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.poll_interval)
            try:
                await loop.run_in_executor(
                    self._executor, supervisor.ensure_all
                )
            except ReproError:  # pragma: no cover - defensive
                logger.exception("worker respawn failed")

    async def _dispatch(
        self, tenant: str, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Run a fleet op: inline for in-process shards, via the thread
        pool (serialised per tenant) when shards live in workers."""
        if self._executor is None:
            return self.fleet.handle_request(tenant, request)
        lock = self._tenant_locks.setdefault(tenant, asyncio.Lock())
        loop = asyncio.get_running_loop()
        async with lock:
            return await loop.run_in_executor(
                self._executor, self.fleet.handle_request, tenant, request
            )

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #

    async def _client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._clients.add(task)
        try:
            while True:
                request_line = await reader.readline()
                if not request_line or not request_line.strip():
                    break
                try:
                    method, target, keep_alive, headers, body = (
                        await self._read_request(reader, request_line)
                    )
                except _HttpError as exc:
                    await self._respond(
                        writer, exc.status,
                        {"ok": False, "error": exc.message}, False,
                    )
                    break
                status, payload = await self._route(
                    method, target, headers, body
                )
                self.requests[(urlsplit(target).path, status)] = (
                    self.requests.get((urlsplit(target).path, status), 0) + 1
                )
                await self._respond(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
                if self._stopping is not None and self._stopping.is_set():
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError,
                asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._clients.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, request_line: bytes
    ):
        parts = request_line.decode("latin-1").split()
        if len(parts) < 3:
            raise _HttpError(400, "malformed request line")
        method, target, version = parts[0], parts[1], parts[2]
        keep_alive = version.upper() != "HTTP/1.0"
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            if b":" in line:
                k, v = line.decode("latin-1").split(":", 1)
                headers[k.strip().lower()] = v.strip()
        if headers.get("connection", "").lower() == "close":
            keep_alive = False
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY:
            raise _HttpError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, keep_alive, headers, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        keep_alive: bool,
    ) -> None:
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = (json.dumps(payload, separators=(",", ":")) + "\n").encode()
            ctype = "application/json"
        reason = {200: "OK", 400: "Bad Request", 401: "Unauthorized",
                  403: "Forbidden", 404: "Not Found",
                  405: "Method Not Allowed", 413: "Payload Too Large",
                  503: "Service Unavailable"}.get(status, "Error")
        writer.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}"
                "\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        await writer.drain()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    async def _route(
        self,
        method: str,
        target: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> Tuple[int, Any]:
        split = urlsplit(target)
        path = split.path
        try:
            if path == "/healthz":
                return self._healthz()
            if path == "/metrics":
                return 200, self.fleet.prometheus_text(self._gateway_metrics)
            if path == "/v1/op" or path.startswith("/v1/") or (
                path.startswith("/admin/")
            ):
                tenant = self._authenticate(headers)
                payload = self._parse_body(body)
                if path.startswith("/admin/"):
                    return self._admin(path, tenant, payload)
                return await self._v1(
                    method, path, split.query, tenant, payload
                )
            return 404, {"ok": False, "error": f"no route {path!r}"}
        except _HttpError as exc:
            return exc.status, {"ok": False, "error": exc.message}
        except Exception as exc:  # pragma: no cover - defensive
            logger.exception("gateway error on %s %s", method, path)
            return 500, {"ok": False, "error": f"internal error: {exc!r}"}

    def _authenticate(self, headers: Dict[str, str]) -> str:
        key = headers.get("x-api-key")
        tenant = self.fleet.tenant_for_key(key)
        if tenant is None:
            self.auth_failures += 1
            raise _HttpError(
                401, "missing or unknown API key (X-API-Key header)"
            )
        return tenant

    @staticmethod
    def _parse_body(body: bytes) -> Dict[str, Any]:
        if not body:
            return {}
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"request body is not JSON: {exc}")
        if not isinstance(payload, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return payload

    def _healthz(self) -> Tuple[int, Any]:
        tenants: Dict[str, Any] = {}
        healthy = True
        for name in sorted(self.fleet.tenants):
            tf = self.fleet.tenants[name]
            dead = sorted(tf.dead)
            degraded = [
                i for i, h in enumerate(tf.hosts)
                if i not in tf.dead and h.degraded
            ]
            tenants[name] = {
                "shards": len(tf.hosts),
                "admitted": len(tf.owner),
                "dead": dead,
                "degraded": degraded,
                "escalations": tf.escalations,
            }
            healthy = healthy and not dead and not degraded
        out: Dict[str, Any] = {"ok": healthy, "tenants": tenants}
        if self.standbys is not None:
            out["standbys"] = {
                f"{t}/{s}": sb.ops_applied
                for (t, s), sb in sorted(self.standbys.standbys.items())
            }
        if self.fleet.supervisor is not None:
            workers = []
            for wp in self.fleet.supervisor.workers:
                workers.append({
                    "index": wp.index,
                    "pid": wp.pid,
                    "alive": wp.alive,
                    "restarts": wp.restarts,
                    "shards": sorted(wp.assigned),
                    "journal_lag_bytes": self._worker_journal_lag(wp),
                })
                healthy = healthy and wp.alive
            out["workers"] = workers
            out["ok"] = healthy
        return (200 if healthy else 503), out

    def _worker_journal_lag(self, wp: Any) -> int:
        """Bytes of journal the standbys have not yet shipped, summed
        over the worker's shards (0 without standbys: nothing tails, so
        there is no lag to speak of)."""
        if self.standbys is None:
            return 0
        lag = 0
        for key, spec in wp.assigned.items():
            journal = Path(spec["state_dir"]) / "journal.jsonl"
            try:
                size = journal.stat().st_size
            except OSError:
                continue
            tenant, _, shard_name = key.partition("/")
            try:
                shard = int(shard_name.rsplit("-", 1)[1])
            except (IndexError, ValueError):  # pragma: no cover
                continue
            sb = self.standbys.standbys.get((tenant, shard))
            if sb is not None:
                lag += max(0, size - sb.tailer.offset)
        return lag

    def _gateway_metrics(self, reg: MetricsRegistry) -> None:
        for (path, status), count in sorted(self.requests.items()):
            reg.counter(
                "repro_gateway_http_requests_total",
                "HTTP requests handled by the gateway.",
                path=path, status=str(status),
            ).value = float(count)
        reg.counter(
            "repro_gateway_auth_failures_total",
            "Requests rejected for a missing or unknown API key.",
        ).value = float(self.auth_failures)
        if self.standbys is not None:
            for (tenant, shard), sb in sorted(
                self.standbys.standbys.items()
            ):
                reg.counter(
                    "repro_fleet_standby_ops_applied_total",
                    "Journal records shipped into the warm standby.",
                    tenant=tenant, shard=str(shard),
                ).value = float(sb.ops_applied)
                reg.gauge(
                    "repro_fleet_standby_stale_streams",
                    "Replica streams whose verdict awaits a settle: what "
                    "a promotion of this standby would recompute.",
                    tenant=tenant, shard=str(shard),
                ).set(sb.host.engine.stale)
        if self.fleet.supervisor is not None:
            for wp in self.fleet.supervisor.workers:
                worker = str(wp.index)
                reg.gauge(
                    "repro_fleet_worker_up",
                    "1 if the worker process is alive, else 0.",
                    worker=worker,
                ).value = 1.0 if wp.alive else 0.0
                reg.gauge(
                    "repro_fleet_worker_pid",
                    "PID of the worker process (changes on restart).",
                    worker=worker,
                ).value = float(wp.pid or 0)
                reg.counter(
                    "repro_fleet_worker_restarts_total",
                    "Supervised restarts of the worker process.",
                    worker=worker,
                ).value = float(wp.restarts)
                reg.gauge(
                    "repro_fleet_worker_journal_lag_bytes",
                    "Journal bytes not yet shipped to warm standbys, "
                    "summed over the worker's shards.",
                    worker=worker,
                ).value = float(self._worker_journal_lag(wp))

    async def _v1(
        self,
        method: str,
        path: str,
        query: str,
        tenant: str,
        payload: Dict[str, Any],
    ) -> Tuple[int, Any]:
        if path == "/v1/shutdown":
            self.request_shutdown()
            return 200, {"ok": True, "stopping": True}
        if path == "/v1/op":
            if method != "POST":
                raise _HttpError(405, "use POST for /v1/op")
            if "op" not in payload:
                raise _HttpError(400, "request object needs an 'op' field")
            if payload["op"] == "shutdown":
                self.request_shutdown()
                return 200, {
                    "ok": True, "stopping": True, "id": payload.get("id"),
                }
            return 200, await self._dispatch(tenant, payload)
        op = path[len("/v1/"):]
        if op not in _OPS:
            return 404, {"ok": False, "error": f"no route {path!r}"}
        request = dict(payload)
        request["op"] = op
        # GET /v1/query?stream=N is the curl-friendly spelling.
        if query:
            for k, values in parse_qs(query).items():
                request.setdefault(
                    k, values[0] if len(values) == 1 else values
                )
        return 200, await self._dispatch(tenant, request)

    def _admin(
        self, path: str, tenant: str, payload: Dict[str, Any]
    ) -> Tuple[int, Any]:
        if path == "/admin/kill_worker":
            # Workers host shards of many tenants, so this is not a
            # tenant-scoped op — any valid API key may run the drill.
            supervisor = self.fleet.supervisor
            if supervisor is None:
                raise _HttpError(
                    400, "gateway runs in-process shards (no --workers)"
                )
            worker = payload.get("worker")
            n = len(supervisor.workers)
            if not isinstance(worker, int) or not 0 <= worker < n:
                raise _HttpError(
                    400, f"'worker' must be an index in [0, {n})"
                )
            pid = supervisor.kill_worker(worker)
            return 200, {"ok": True, "killed_worker": worker, "pid": pid}
        target = payload.get("tenant", tenant)
        if target != tenant:
            raise _HttpError(
                403, "API key does not belong to the target tenant"
            )
        tf = self.fleet.tenants[tenant]
        shard = payload.get("shard")
        if not isinstance(shard, int) or not 0 <= shard < len(tf.hosts):
            raise _HttpError(
                400, f"'shard' must be an index in [0, {len(tf.hosts)})"
            )
        if path == "/admin/kill":
            tf.kill_host(shard)
            return 200, {"ok": True, "killed": shard}
        if path == "/admin/failover":
            if self.standbys is None:
                raise _HttpError(400, "gateway runs without standbys")
            if shard not in tf.dead:
                # Explicit failover of a live primary is legal (planned
                # maintenance) but it must stop writing first.
                tf.kill_host(shard)
            try:
                self.standbys.promote(tenant, shard)
            except ReproError as exc:
                return 503, {"ok": False, "error": str(exc)}
            return 200, {
                "ok": True, "promoted": shard,
                "admitted": tf.hosts[shard].admitted_count(),
            }
        return 404, {"ok": False, "error": f"no route {path!r}"}
