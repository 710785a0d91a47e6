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
``POST /v1/<op>``
    The broker ops, one endpoint each — ``hello``, ``ping``, ``admit``,
    ``release``, ``query``, ``report``, ``snapshot``, ``stats``,
    ``fail_link``, ``restore_link``, ``links``: the ``http`` column of
    :data:`repro.service.protocol.OPS`. The JSON body carries the op's
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

Architecture
------------
Every connection is a :class:`repro.service.server.HttpConnection` — the
front end the broker's listeners share, answered in its reader: a pass
cuts at most ``_BATCH_MAX`` requests off what arrived, one write sends
their answers (TCP back-pressure beyond ``_READAHEAD`` parsed ahead).
What the gateway adds is :meth:`GatewayServer._serve`, how a batch is
answered: it resolves each request (route, API key, body), runs every
maximal run of consecutive fleet ops of one tenant as **one** job,
answers ``/healthz``, ``/metrics``, ``/admin/*``, ``shutdown`` and
errors in their turn between runs, and returns the batch's responses,
in request order. A serial client is the batch-of-one case of the same
code. What a batch changes for a pipelining client: an op's ack leaves
with the batch's last response. It still never leaves before the op's
journal commit, so a crash loses at most acks (the rid-retry case),
never an acked op.

In the default in-process fleet a run executes synchronously on the
event-loop thread — the same single-writer model as the broker, so
decisions stay linearisable per tenant without locks. In worker-pool
mode (``repro gateway --workers N``) the shards run in supervised child
processes, so a batch's runs are awaited by one task, each dispatched
to a thread pool under one asyncio lock per tenant, held for the whole
run: still single-writer *per tenant*, but different tenants'
admissions run truly in parallel across cores. Background tasks tail
the journals into the warm standbys and restart any worker that dies.
"""

from __future__ import annotations

import asyncio
import json
import logging
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import (Any, Awaitable, Callable, Dict, Generator, List, Optional,
                    Set, Tuple, Union)
from urllib.parse import parse_qs

from ..errors import ReproError
from ..obs.metrics import MetricsRegistry
from ..service.protocol import HTTP_OPS
from ..service.server import (
    Connection,
    HttpConnection,
    _Answer,
    _encode_response,
    _HttpError,
    _Request,
    close_connections,
    keep_recv_buffers_on_heap,
)
from .replication import StandbyPool
from .shards import Fleet

__all__ = ["GatewayServer"]

logger = logging.getLogger(__name__)

#: Every path a request can be counted under; the rest count as
#: ``"other"`` so a scanner cannot grow the table (or ``/metrics``).
_ROUTES = frozenset(
    ["/healthz", "/metrics", "/v1/op", "/v1/shutdown", "/admin/kill",
     "/admin/failover", "/admin/kill_worker"]
    + [f"/v1/{op}" for op in HTTP_OPS]
)


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
        #: (path or "other", status) -> responses sent.
        self.requests: Dict[Tuple[str, int], int] = {}
        self.auth_failures = 0
        #: Passes that answered something, and how many requests
        #: they answered: the ratio is the mean batch (1.0 = serial).
        self.batches = 0
        self.batched_requests = 0
        #: Times a connection stopped reading: its read-ahead was full.
        self.readahead_full = 0
        self._server: Optional[asyncio.base_events.Server] = None
        #: The bound port (useful with port 0 in tests), read once in
        #: :meth:`start`: still known while the gateway shuts down.
        self.port = 0
        self._stopping = asyncio.Event()
        self._poll_task: Optional[asyncio.Task] = None
        self._monitor_task: Optional[asyncio.Task] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._tenant_locks: Dict[str, asyncio.Lock] = {}
        self.connections: Set[Connection] = set()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self, host: str, port: int) -> None:
        keep_recv_buffers_on_heap()
        self._server = await asyncio.get_running_loop().create_server(
            lambda: HttpConnection(self), host=host, port=port
        )
        self.port = self._server.sockets[0].getsockname()[1]
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

    async def serve_forever(self) -> None:
        if self._server is None:
            raise ReproError("gateway not started")
        await self._stopping.wait()
        await self.aclose()

    def request_shutdown(self) -> None:
        self._stopping.set()

    async def aclose(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()
        # Every connection answers what its reader had parsed — the
        # connection that asked for the shutdown gets its response —
        # before the fleet under them closes.
        await close_connections(self.connections)
        if server is not None:
            await server.wait_closed()
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

    def _run(self, tenant: str, requests: List[Any]) -> List[_Answer]:
        """Run one tenant's consecutive fleet ops as one job."""
        try:
            return [(200, self.fleet.handle_request(tenant, r))
                    for r in requests]
        except Exception as exc:  # pragma: no cover - defensive
            logger.exception("gateway error running %d op(s)", len(requests))
            return [(500, {"ok": False, "error": f"internal error: {exc!r}"})
                    ] * len(requests)

    async def _dispatch(self, tenant: str, requests: List[Any]) -> Any:
        """:meth:`_run` on the thread pool, under the tenant's lock."""
        async with self._tenant_locks.setdefault(tenant, asyncio.Lock()):
            return await asyncio.get_running_loop().run_in_executor(
                self._executor, self._run, tenant, requests
            )

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #

    def _answer(self, request: _Request, status: int, payload: Any) -> bytes:
        """Count and encode the response to ``request``."""
        key = (request.path if request.path in _ROUTES else "other", status)
        self.requests[key] = self.requests.get(key, 0) + 1
        return _encode_response(status, payload, request.keep_alive)

    def _serve(self, batch: List[Any],
               conn: Connection) -> Union[bytes, Awaitable[bytes]]:
        """Answer ``batch`` (:meth:`_walk`): bytes, running each run
        inline — or, once a run needs the worker pool, an awaitable."""
        walk = self._walk(batch, conn)
        try:
            run = next(walk)
            while self._executor is None:
                run = walk.send(self._run(*run))
        except StopIteration as done:
            return done.value
        return self._pooled(walk, run)

    async def _pooled(self, walk: Generator, run: Tuple[str, Any]) -> bytes:
        """The rest of :meth:`_serve`, each run dispatched to the pool."""
        try:
            while True:
                run = walk.send(await self._dispatch(*run))
        except StopIteration as done:
            return done.value

    def _walk(self, batch: List[Any], conn: Connection) -> Generator:
        """Answer ``batch`` in request order: each run of one tenant's
        consecutive fleet ops is yielded as ``(tenant, requests)`` and
        sent back its answers; anything else waits for the pending run,
        then is answered in its turn, so every request sees the effects
        of exactly those before it. A ``shutdown`` ends the connection."""
        out: List[bytes] = []
        run: List[Tuple[_Request, Dict[str, Any]]] = []
        run_tenant: Optional[str] = None

        def finish_run() -> Generator[Any, List[_Answer], None]:
            if run:
                answers = yield run_tenant, [r for _, r in run]
                out.extend(self._answer(request, *answer)
                           for (request, _), answer in zip(run, answers))
                run.clear()

        for item in batch:
            if isinstance(item, bytes):
                # A request the framing could not parse: its answer,
                # after everything before it.
                yield from finish_run()
                out.append(item)
                continue
            try:
                tenant, routed = self._route(item)
            except _HttpError as exc:
                tenant, routed = None, exc.answer
            if tenant is not None:
                if tenant != run_tenant:
                    yield from finish_run()
                    run_tenant = tenant
                run.append((item, routed))
            else:
                yield from finish_run()
                out.append(self._answer(item, *self._in_turn(item, routed)))
            if self._stopping.is_set():
                conn.finish()
                break
        yield from finish_run()
        self.batches += 1
        self.batched_requests += len(out)
        return b"".join(out)

    @staticmethod
    def _in_turn(
        request: _Request, answer: Callable[[], _Answer]
    ) -> _Answer:
        """Produce the answer of a request the gateway serves itself."""
        try:
            return answer()
        except _HttpError as exc:
            return exc.answer()
        except Exception as exc:  # pragma: no cover - defensive
            logger.exception(
                "gateway error on %s %s", request.method, request.path
            )
            return 500, {"ok": False, "error": f"internal error: {exc!r}"}

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def _route(
        self, request: _Request
    ) -> Tuple[Optional[str], Union[Dict[str, Any], Callable[[], _Answer]]]:
        """Resolve one request without touching the fleet: route, API
        key, body parse.

        Returns ``(tenant, fleet request)`` for a fleet op — to be run
        with its neighbours — and ``(None, answer)`` for everything the
        gateway serves itself, where ``answer()`` produces ``(status,
        payload)`` and is called when the request's turn comes.
        """
        path = request.path
        if path == "/healthz":
            return None, self._healthz
        if path == "/metrics":
            return None, lambda: (
                200, self.fleet.prometheus_text(self._gateway_metrics)
            )
        if not path.startswith(("/v1/", "/admin/")):
            raise _HttpError(404, f"no route {path!r}")
        tenant = self._authenticate(request.headers)
        payload = self._parse_body(request.body)
        if path.startswith("/admin/"):
            return None, partial(self._admin, path, tenant, payload)
        if path == "/v1/shutdown":
            return None, partial(self._shutdown, {})
        if path == "/v1/op":
            if request.method != "POST":
                raise _HttpError(405, "use POST for /v1/op")
            if "op" not in payload:
                raise _HttpError(400, "request object needs an 'op' field")
            if payload["op"] == "shutdown":
                return None, partial(
                    self._shutdown, {"id": payload.get("id")}
                )
            return tenant, payload
        op = path[len("/v1/"):]
        if op not in HTTP_OPS:
            raise _HttpError(404, f"no route {path!r}")
        fleet_request = dict(payload)
        fleet_request["op"] = op
        # GET /v1/query?stream=N is the curl-friendly spelling.
        if request.query:
            for k, values in parse_qs(request.query).items():
                fleet_request.setdefault(
                    k, values[0] if len(values) == 1 else values
                )
        return tenant, fleet_request

    def _shutdown(self, echo: Dict[str, Any]) -> _Answer:
        self.request_shutdown()
        return 200, {"ok": True, "stopping": True, **echo}

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
        reg.counter(
            "repro_gateway_batches_total",
            "Passes that answered at least one request (one write "
            "each).",
        ).value = float(self.batches)
        reg.counter(
            "repro_gateway_batched_requests_total",
            "Requests answered by those passes; over batches_total it is "
            "the mean batch (1.0 under serial clients).",
        ).value = float(self.batched_requests)
        reg.counter(
            "repro_gateway_readahead_full_total",
            "Times a connection's reader stopped reading because its "
            "read-ahead queue was full.",
        ).value = float(self.readahead_full)
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
                for op, count in sorted(dict(wp.client.calls).items()):
                    reg.counter(
                        "repro_fleet_worker_rpcs_total",
                        "Round trips to the worker, by op; over "
                        "repro_fleet_ops_total it is RPCs per op.",
                        worker=worker, op=op,
                    ).value = float(count)

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
