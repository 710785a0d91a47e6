"""HTTP gateway: the fleet's front door (``repro gateway``).

A dependency-free HTTP/1.1 server (keep-alive, Content-Length framing)
exposing the broker protocol as a JSON-over-HTTP API:

``GET  /healthz``
    Liveness/consistency rollup: per tenant, whether it is dead or
    degraded, and its admitted streams; per worker, its pid, restarts
    and tenants. ``200`` when every tenant is up and writable, ``503``
    otherwise.
    Unauthenticated (it leaks no tenant data beyond counts).
``GET  /metrics``
    Every tenant's ``stats`` answer rendered as the broker's series,
    labelled ``tenant`` (plus the gateway's own HTTP and worker
    families). Unauthenticated, like the broker's scrape port.
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
``POST /admin/failover`` ``{"tenant": ...}``
    Recover the tenant from its journal the way a restart does, in the
    process that owns it (a live tenant stops serving first): the
    tenant's ``failover`` op. Needs a persistent fleet. The API key
    must belong to the named tenant (the body may omit it); any other
    field is a 400.
``POST /admin/kill`` ``{"tenant": ...}``
    Simulate a crash of the tenant's host, its ``kill`` op
    (testing/chaos; same auth rule). Both admin ops run in the
    tenant's turn like any op of its own, and answer 400 for a bad
    request, 503 when the tenant could not be recovered; ``/v1/op``
    refuses them as unknown ops.
``POST /admin/kill_worker`` ``{"worker": N}``
    SIGKILL worker process ``N`` (worker-pool mode only; any valid
    tenant key). The monitor thread restarts it with journal recovery —
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
maximal run of consecutive ops of one tenant as **one** job,
answers ``/healthz``, ``/metrics``, ``/admin/*``, ``shutdown`` and
errors in their turn between runs, and returns the batch's responses,
in request order. A serial client is the batch-of-one case of the same
code. What a batch changes for a pipelining client: an op's ack leaves
with the batch's last response. It still never leaves before the op's
journal commit, so a crash loses at most acks (the rid-retry case),
never an acked op.

``/healthz`` and ``/metrics`` are built from every tenant's ``stats``
answer, asked in their turn; with worker processes, of every worker at
once and for at most ``PROBE_TIMEOUT`` (a dead or wedged worker's
tenants count as dead).

In the default in-process fleet a run executes synchronously on the
event-loop thread — the broker's single-writer model, linearisable per
tenant without locks. With ``--workers N`` each tenant's host runs in
a supervised child process, and a batch's walk is driven by its runs'
answers, in callbacks. Each worker has one persistent link from the
gateway, on the same loop: every run is written on it with one write,
and runs are pipelined FIFO (the worker answers in arrival order, so a
tenant's ops stay linearisable in write order). The worker's answer
lines become the HTTP bodies unchanged (only an ``/admin/*`` answer is
parsed, for its status), and in-process answers are encoded the same
way. A timeout or a lost connection fails the link: every run waiting
on it gets the retryable ``code: "worker"`` error. Different tenants'
workers run in parallel across cores, a wedged worker stalls only its
own tenants, and a monitor thread restarts any worker that dies. The
gateway's life is the broker's (:class:`LoopServer`).
"""

from __future__ import annotations

import json
import logging
import threading
from functools import partial
from typing import (Any, Callable, Dict, Generator, List, Optional, Tuple,
                    Union)
from urllib.parse import parse_qs

from ..obs.metrics import MetricsRegistry
from ..service.metrics import export_stats
from ..service.protocol import HTTP_OPS, error_response, parse_line
from ..service.server import (
    Connection,
    HttpConnection,
    LoopServer,
    _Answer,
    _encode_response,
    _HttpError,
    _Request,
)
from .shards import Fleet

__all__ = ["GatewayServer"]

logger = logging.getLogger(__name__)

#: The tenant op each admin path runs.
_ADMIN_OPS = {"/admin/kill": "kill", "/admin/failover": "failover"}

#: Every path a request can be counted under; the rest count as
#: ``"other"`` so a scanner cannot grow the table (or ``/metrics``).
_ROUTES = frozenset(
    ["/healthz", "/metrics", "/v1/op", "/v1/shutdown", "/admin/kill_worker",
     *_ADMIN_OPS] + [f"/v1/{op}" for op in HTTP_OPS]
)

#: Seconds between the worker monitor's respawn sweeps.
_MONITOR_PERIOD = 0.2

#: A run's requests, and what the tenant answered them (or its answer
#: lines); a walk yields a run, or ``None`` for every tenant's ``stats``.
_Run = Tuple[str, List[Dict[str, Any]]]
_Walk = Generator[Optional[_Run], Any, Any]


class GatewayServer(LoopServer):
    """HTTP front end over a :class:`Fleet`."""

    def __init__(self, fleet: Fleet):
        LoopServer.__init__(self)
        self.fleet = fleet
        #: (path or "other", status) -> responses sent.
        self.requests: Dict[Tuple[str, int], int] = {}
        self.auth_failures = 0
        #: Passes that answered something, and how many requests
        #: they answered: the ratio is the mean batch (1.0 = serial).
        self.batches = 0
        self.batched_requests = 0
        #: Times a connection stopped reading: its read-ahead was full.
        self.readahead_full = 0
        #: The bound port (useful with port 0 in tests), read once in
        #: :meth:`bind_tcp`: still known while the gateway shuts down.
        self.port = 0
        self._monitor: Optional[threading.Thread] = None
        self._closing = threading.Event()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def bind_tcp(self, host: str, port: int) -> int:
        """Listen on a TCP address; returns the bound port (``port`` 0
        binds an ephemeral one)."""
        self.port = self._listen_tcp(host, port,
                                     lambda loop: HttpConnection(self, loop))
        return self.port

    async def start(self, host: str, port: int) -> None:
        """:meth:`bind_tcp`, for the asyncio caller of
        :meth:`serve_forever`."""
        self.bind_tcp(host, port)

    def run(self) -> None:
        """:meth:`LoopServer.run`, with the worker monitor alongside."""
        if self._loop is not None and self.fleet.supervisor is not None:
            self._monitor = threading.Thread(target=self._monitor_workers,
                                             daemon=True)
            self._monitor.start()
        super().run()

    def close(self) -> None:
        """Stop the monitor (a sweep in flight ends first: no worker is
        forked after this), then close the fleet."""
        self._closing.set()
        monitor, self._monitor = self._monitor, None
        if monitor is not None:
            monitor.join()
        self.fleet.close()

    def _monitor_workers(self) -> None:
        """Respawn dead workers between requests, not just on the next
        request that happens to hit one (a wedged worker whose tenants
        are idle would otherwise stay down forever). A failed sweep (a
        ``fork`` refused for want of memory or pids) is logged and the
        next one tries again."""
        supervisor = self.fleet.supervisor
        assert supervisor is not None
        while not self._closing.wait(_MONITOR_PERIOD):
            try:
                supervisor.ensure_all()
            except Exception:
                logger.exception("worker respawn sweep failed")

    def _run(self, tenant: str,
             requests: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Run one tenant's consecutive ops, in this process."""
        return [self.fleet.handle_request(tenant, r) for r in requests]

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #

    def _answer(self, request: _Request, status: int, payload: Any) -> bytes:
        """Count and encode the response to ``request``."""
        key = (request.path if request.path in _ROUTES else "other", status)
        self.requests[key] = self.requests.get(key, 0) + 1
        return _encode_response(status, payload, request.keep_alive)

    def _serve(self, batch: List[Any], conn: Connection) -> Optional[bytes]:
        """Answer ``batch`` (:meth:`_walk`): bytes, running each run
        inline — or, with worker processes, ``None`` and the bytes to
        ``conn.deliver`` later (:meth:`_pooled`)."""
        walk = self._walk(batch, conn)
        try:
            run = next(walk)
            while self.fleet.supervisor is None:
                run = walk.send(self._run(*run) if run else self.fleet.stats())
        except StopIteration as done:
            return done.value
        self._pooled(walk, run, conn)
        return None

    def _pooled(self, walk: _Walk, run: Optional[_Run],
                conn: Connection) -> None:
        """The rest of :meth:`_serve`, driven by the workers' answers:
        each run forwarded to its tenant's worker, the stats asked of all
        workers at once, and each answer sent into the walk. A walk
        still pending when the gateway closes is dropped."""
        supervisor = self.fleet.supervisor

        def ask(run: Optional[_Run]) -> None:
            loop = self._loop
            if loop is None:    # closed: the drain gave up on this answer
                walk.close()
            elif run:
                supervisor.forward(loop, *run, step)
            else:
                supervisor.stats(loop, step)

        def step(answers: Any) -> None:
            try:
                ask(walk.send(answers))
            except StopIteration as done:
                conn.deliver(done.value)

        ask(run)

    def _walk(self, batch: List[Any], conn: Connection) -> _Walk:
        """Answer ``batch`` in request order: each run of one tenant's
        consecutive fleet ops is yielded as ``(tenant, requests)`` and
        sent back its answers; anything else waits for the pending run,
        then is answered in its turn (yielding ``None`` first, if it
        needs the tenants' stats), so every request sees the effects of
        exactly those before it. A ``shutdown`` ends the connection."""
        out: List[bytes] = []
        run: List[Tuple[_Request, Dict[str, Any]]] = []
        run_tenant: Optional[str] = None

        def finish_run() -> _Walk:
            if run:
                answers = yield run_tenant, [r for _, r in run]
                out.extend(
                    self._answer(request, _status(request, answer), answer)
                    for (request, _), answer in zip(run, answers)
                )
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
                answer = yield from self._in_turn(item, routed)
                out.append(self._answer(item, *answer))
            if self._stopping:
                conn.finish()
                break
        yield from finish_run()
        self.batches += 1
        self.batched_requests += len(out)
        return b"".join(out)

    @staticmethod
    def _in_turn(request: _Request, answer: Callable[[], Any]) -> _Walk:
        """Produce the answer of a request the gateway serves itself;
        an ``answer()`` that is a generator asks its runs first."""
        try:
            got = answer()
            if isinstance(got, Generator):
                got = yield from got
            return got
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
    ) -> Tuple[Optional[str], Union[Dict[str, Any], Callable[[], Any]]]:
        """Resolve one request without touching the fleet: route, API
        key, body parse.

        Returns ``(tenant, fleet request)`` for a fleet op — to be run
        with its neighbours — and ``(None, answer)`` for everything the
        gateway serves itself, where ``answer()`` produces ``(status,
        payload)`` in the request's turn (:meth:`_in_turn`).
        """
        path = request.path
        if path == "/healthz":
            return None, self._healthz
        if path == "/metrics":
            return None, self._metrics
        if not path.startswith(("/v1/", "/admin/")):
            raise _HttpError(404, f"no route {path!r}")
        tenant = self._authenticate(request.headers)
        payload = self._parse_body(request.body)
        if path == "/admin/kill_worker":
            return None, partial(self._kill_worker, payload)
        if path.startswith("/admin/"):
            if payload.get("tenant", tenant) != tenant:
                raise _HttpError(
                    403, "API key does not belong to the target tenant"
                )
            if path not in _ADMIN_OPS:
                raise _HttpError(404, f"no route {path!r}")
            if set(payload) - {"tenant"}:
                # A client still naming a shard would kill the tenant.
                raise _HttpError(400, f"{path} takes only 'tenant'")
            return tenant, {"op": _ADMIN_OPS[path]}
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
            if payload["op"] in _ADMIN_OPS.values():  # only as /admin/*
                return None, lambda: (200, error_response(
                    payload, f"unknown op {payload['op']!r}",
                    code="protocol",
                ))
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

    def _healthz(self) -> _Walk:
        healthy, tenants = self.fleet.health((yield None))
        out: Dict[str, Any] = {"ok": healthy, "tenants": tenants}
        if self.fleet.supervisor is not None:
            out["workers"] = self.fleet.supervisor.status()
            healthy = healthy and all(w["alive"] for w in out["workers"])
            out["ok"] = healthy
        return (200 if healthy else 503), out

    def _metrics(self) -> _Walk:
        reg = export_stats((yield None))
        self._gateway_metrics(reg)
        return 200, reg.render()

    def _gateway_metrics(self, reg: MetricsRegistry) -> None:
        """The families the gateway owns: its HTTP front end's and,
        with workers, the supervisor's."""
        for (path, status), count in sorted(self.requests.items()):
            reg.counter(
                "repro_gateway_http_requests_total",
                "HTTP requests handled by the gateway.",
                path=path, status=str(status),
            ).value = float(count)
        for name, text, value in (
            ("auth_failures", "Requests rejected for a missing or unknown "
             "API key.", self.auth_failures),
            ("batches", "Passes that answered at least one request (one "
             "write each).", self.batches),
            ("batched_requests", "Requests answered by those passes; over "
             "batches_total it is the mean batch (1.0 under serial "
             "clients).", self.batched_requests),
            ("readahead_full", "Times a connection's reader stopped "
             "reading because its read-ahead queue was full.",
             self.readahead_full),
        ):
            reg.counter(f"repro_gateway_{name}_total",
                        text).value = float(value)
        if self.fleet.supervisor is not None:
            for wp in self.fleet.supervisor.workers:
                worker = str(wp.index)
                for family, name, text, value in (
                    (reg.gauge, "up", "1 if the worker process is alive, "
                     "else 0.", wp.alive),
                    (reg.gauge, "pid", "PID of the worker process (changes "
                     "on restart).", wp.pid or 0),
                    (reg.counter, "restarts_total", "Supervised restarts "
                     "of the worker process.", wp.restarts),
                ):
                    family(f"repro_fleet_worker_{name}", text,
                           worker=worker).value = float(value)
                for op, count in sorted(dict(wp.client.calls).items()):
                    reg.counter(
                        "repro_fleet_worker_rpcs_total",
                        "Round trips to the worker, by op (a forwarded "
                        "run counts once, under its first); over "
                        "repro_broker_ops_total it is RPCs per op.",
                        worker=worker, op=op,
                    ).value = float(count)

    def _kill_worker(self, payload: Dict[str, Any]) -> _Answer:
        # Workers serve many tenants, so this is not a tenant-scoped
        # op — any valid API key may run the drill.
        supervisor = self.fleet.supervisor
        if supervisor is None:
            raise _HttpError(
                400, "gateway runs its tenants in-process (no --workers)"
            )
        # A JSON ``true`` is not an index, though ``bool`` subclasses int.
        worker, n = payload.get("worker"), len(supervisor.workers)
        if type(worker) is not int or not 0 <= worker < n:
            raise _HttpError(400, f"'worker' must be an index in [0, {n})")
        pid = supervisor.kill_worker(worker)
        return 200, {"ok": True, "killed_worker": worker, "pid": pid}


def _status(request: _Request, answer: Union[Dict[str, Any], bytes]) -> int:
    """200 (errors are data), but a failed admin op is a 400 for a bad
    request and a 503 for a tenant it could not recover. A worker's
    answer line is parsed only here, for an admin path."""
    if not request.path.startswith("/admin/"):
        return 200
    answer = parse_line(answer) if isinstance(answer, bytes) else answer
    if answer.get("ok"):
        return 200
    return 400 if answer.get("code") == "protocol" else 503
