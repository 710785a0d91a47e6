"""Supervised worker processes: shard execution out of the fleet process.

PR 8's fleet put every shard of every tenant behind one event loop and
one GIL, so its throughput win was per-tenant isolation, not
parallelism. This module moves the engines into child processes:

Child side (a fork of the supervisor, :func:`_child`)
    With every module already imported, the child cuts loose from its
    parent (own stdio, signals, logging and tracer; no inherited fd),
    recovers one :class:`~repro.service.host.EngineHost` per assigned
    ``tenant/shard-i`` key from that shard's *unchanged* journal
    directory (exactly what an in-process restart opens), binds a
    per-worker unix socket with the broker's stale-socket hygiene, says
    so with one byte on a private pipe and serves the broker's
    JSON-lines protocol until stopped or orphaned. It always ends in
    ``os._exit``.

Parent side
    :class:`WorkerSupervisor` forks and monitors the children,
    restarts them on exit, and owns one :class:`WorkerClient` RPC
    connection per worker. :class:`WorkerShard` is the shard-client
    proxy the fleet's shard manager composes instead of a local
    ``EngineHost``: the same ``handle_request`` + accessor surface,
    implemented as RPCs.

Requests are the normal broker ops plus a ``"shard"`` routing field;
``worker_*`` ops (hello/status/dump/bounds/stats/drop_rid/shutdown)
carry the supervision and placement bookkeeping that
:class:`~repro.fleet.shards.TenantFleet` needs across the process
boundary.

Single-writer discipline: a shard's journal is only ever open in one
process, its worker, which serves its shards single-threaded. A shard
never leaves its worker: failing it over (:meth:`WorkerShard.restart`)
kills and respawns the worker, which recovers the journal again.

Mid-op worker death is safe by construction: committed mutations are
journaled with their ``rid`` before the ack, so the supervisor restarts
the worker (which recovers the journal) and the caller retries with the
same rid — the recovered idempotency table replays the committed
outcome instead of double-applying. That turns the crash-torn-migration
window (admit journaled on the target worker, release not yet journaled
on the source worker) into the same duplicate-id artefact fleet
recovery already repairs, now spanning two processes.
"""

from __future__ import annotations

import contextlib
import faulthandler
import gc
import logging
import os
import select
import selectors
import signal
import socket
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..errors import ReproError
from ..obs import trace
from ..service.client import BrokerClient
from ..service.host import EngineHost
from ..service.protocol import (
    MUTATING_OPS,
    ProtocolError,
    encode,
    error_from_response,
    error_response,
    parse_line,
)
from ..service.server import clear_stale_socket

__all__ = [
    "WorkerClient",
    "WorkerDied",
    "WorkerProcess",
    "WorkerShard",
    "WorkerSupervisor",
]

logger = logging.getLogger(__name__)

#: How long the supervisor waits for a fresh child to recover its
#: journals and bind its socket before declaring the spawn failed.
SPAWN_TIMEOUT = float(os.environ.get("REPRO_WORKER_SPAWN_TIMEOUT", "60"))

#: Per-RPC socket timeout. Generous: a single admission verdict on a
#: large component under the slower backends is milliseconds, not tens
#: of seconds, so hitting this means the worker is wedged, not slow.
RPC_TIMEOUT = float(os.environ.get("REPRO_WORKER_RPC_TIMEOUT", "60"))

#: ``sun_path`` is ~108 bytes on Linux; leave headroom for the name.
_SOCKET_PATH_BUDGET = 90


class WorkerDied(ReproError):
    """The worker's process or IPC connection went away mid-request.

    Raised by :class:`WorkerClient` — never returned as a protocol
    error — so callers can distinguish "the op failed" (the op never
    or definitely happened, per the response) from "the op's fate is
    unknown" (retry with the same rid after the supervisor restarts
    the worker).
    """


# --------------------------------------------------------------------- #
# Child side
# --------------------------------------------------------------------- #


class _WorkerServer:
    """The child's serving loop: N recovered EngineHosts, one socket."""

    def __init__(self, wp: "WorkerProcess", supervisor: int):
        self.sock_path = wp.socket_path
        self.supervisor = supervisor
        self.hosts: Dict[str, EngineHost] = {}
        for key in sorted(wp.assigned):
            spec = wp.assigned[key]
            self.hosts[key] = EngineHost(
                spec["topology"],
                state_dir=spec["state_dir"],
                analysis=spec.get("analysis"),
            )
            logger.info(
                "worker %d recovered shard %s (%d streams)",
                os.getpid(), key, self.hosts[key].admitted_count(),
            )
        self.running = True
        self._listener: Optional[socket.socket] = None
        self._selector = selectors.DefaultSelector()
        self._buffers: Dict[socket.socket, bytes] = {}

    def bind(self) -> None:
        """Apply socket hygiene and bind."""
        if self.sock_path.exists():
            clear_stale_socket(self.sock_path)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(str(self.sock_path))
        listener.listen(16)
        listener.setblocking(False)
        self._listener = listener
        self._selector.register(listener, selectors.EVENT_READ, "accept")

    def serve(self) -> None:
        while self.running:
            events = self._selector.select(timeout=1.0)
            for sel_key, _ in events:
                if sel_key.data == "accept":
                    self._accept()
                else:
                    self._read(sel_key.fileobj)
            if not events and os.getppid() != self.supervisor:
                # Orphaned: a restarted gateway must find the socket
                # free, not served by a process it does not supervise.
                logger.warning("supervisor %d is gone", self.supervisor)
                return

    def _accept(self) -> None:
        assert self._listener is not None
        try:
            conn, _ = self._listener.accept()
        except OSError:  # pragma: no cover - spurious wakeup
            return
        conn.setblocking(True)
        self._buffers[conn] = b""
        self._selector.register(conn, selectors.EVENT_READ, "conn")

    def _drop(self, conn: socket.socket) -> None:
        try:
            self._selector.unregister(conn)
        except (KeyError, ValueError):  # pragma: no cover - defensive
            pass
        self._buffers.pop(conn, None)
        conn.close()

    def _read(self, conn: socket.socket) -> None:
        try:
            chunk = conn.recv(65536)
        except OSError:
            self._drop(conn)
            return
        if not chunk:
            self._drop(conn)
            return
        self._buffers[conn] += chunk
        while self.running:
            buf = self._buffers.get(conn)
            if buf is None or b"\n" not in buf:
                return
            line, self._buffers[conn] = buf.split(b"\n", 1)
            response = self.handle_line(line)
            try:
                conn.sendall(encode(response))
            except OSError:
                self._drop(conn)
                return

    def handle_line(self, line: bytes) -> Dict[str, Any]:
        request: Dict[str, Any] = {}
        try:
            request = parse_line(line)
            op = request.get("op")
            if isinstance(op, str) and op.startswith("worker_"):
                return self._worker_op(op, request)
            host = self._shard_of(request)
        except ReproError as exc:
            return error_response(request, str(exc), code="protocol")
        routed = {k: v for k, v in request.items() if k != "shard"}
        return host.handle_request(routed)

    def _shard_of(self, request: Dict[str, Any]) -> EngineHost:
        shard = request.get("shard")
        if shard not in self.hosts:
            raise ProtocolError(
                f"worker does not host shard {shard!r} "
                f"(has: {sorted(self.hosts)})"
            )
        return self.hosts[shard]

    def _worker_op(
        self, op: str, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        if op == "worker_hello":
            return {
                "ok": True,
                "pid": os.getpid(),
                "shards": {
                    key: {"default_analysis": host.default_analysis}
                    for key, host in self.hosts.items()
                },
            }
        if op == "worker_status":
            return {
                "ok": True,
                "pid": os.getpid(),
                "shards": {
                    key: {
                        "admitted": host.admitted_count(),
                        "degraded": host.degraded,
                        "degraded_reason": host.degraded_reason,
                    }
                    for key, host in self.hosts.items()
                },
            }
        if op == "worker_dump":
            dump = self._shard_of(request).shard_dump(request.get("ids"))
            dump["ok"] = True
            return dump
        if op == "worker_bounds":
            return {"ok": True,
                    "bounds": self._shard_of(request).upper_bounds()}
        if op == "worker_stats":
            host = self._shard_of(request)
            return {
                "ok": True,
                "engine": host.engine_stats(),
                "admitted": host.admitted_count(),
                "degraded": host.degraded,
            }
        if op == "worker_drop_rid":
            rid = request.get("rid")
            if not isinstance(rid, str):
                raise ProtocolError("'worker_drop_rid' needs a string 'rid'")
            self._shard_of(request).drop_rid(rid)
            return {"ok": True}
        if op == "worker_shutdown":
            self.running = False
            return {"ok": True, "stopping": True}
        raise ProtocolError(f"unknown worker op {op!r}")

    def close(self) -> None:
        for conn in list(self._buffers):
            self._drop(conn)
        if self._listener is not None:
            self._selector.unregister(self._listener)
            self._listener.close()
            # Clean shutdown unlinks the socket; only unclean exits
            # (SIGKILL) leave one behind for hygiene to reclaim.
            self.sock_path.unlink(missing_ok=True)
        self._selector.close()
        for host in self.hosts.values():
            host.close()


#: The parent's fd-owning objects (tracer sink, stdio, log handlers), held
#: in a child and never closed or flushed: their fd numbers may be reused.
_inherited: List[Any] = []


def _child(wp: "WorkerProcess", supervisor: int, ready: int) -> int:
    """A forked worker's life: cut loose from the parent, recover, bind,
    write one byte on ``ready``, serve until stopped or orphaned."""
    gc.freeze()  # no inherited object is ever collected here
    # A signal sent to a worker must not reach the gateway loop's
    # self-pipe, nor run one of the parent's handlers.
    signal.set_wakeup_fd(-1)
    for sig in signal.valid_signals():
        if callable(signal.getsignal(sig)):
            signal.signal(sig, signal.default_int_handler
                          if sig == signal.SIGINT else signal.SIG_DFL)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    null = os.open(os.devnull, os.O_RDONLY)
    log = os.open(wp.log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    for fd, target in ((0, null), (1, log), (2, log)):
        os.dup2(target, fd)
    # The gateway's listener and connections, other workers' sockets,
    # epoll, the self-pipe: nothing stays.
    os.closerange(3, ready)
    os.closerange(ready + 1, os.sysconf("SC_OPEN_MAX"))
    _inherited.extend([sys.stdout, sys.stderr, trace.active(),
                       *logging.root.handlers])
    logging.root.handlers.clear()  # detached, not closed
    sys.stdout = open(1, "w", buffering=1, closefd=False)
    sys.stderr = open(2, "w", buffering=1, closefd=False)
    logging.basicConfig(
        level=logging.INFO,
        format=f"%(asctime)s worker[{os.getpid()}] %(levelname)s "
               "%(name)s: %(message)s",
        stream=sys.stderr,
    )
    trace.configure_from_env()  # `{pid}` in the trace file names us
    # `kill -USR1 <pid>` dumps the worker's stacks to its log — the
    # first question about a wedged worker is always "where is it".
    faulthandler.register(signal.SIGUSR1, file=sys.stderr)
    if faulthandler.is_enabled():  # onto the log, not a closed fd
        faulthandler.enable(file=sys.stderr)
    try:
        server = _WorkerServer(wp, supervisor)
        try:
            server.bind()
            os.write(ready, b".")
            os.close(ready)
            server.serve()
        finally:
            server.close()
    except SystemExit:  # SIGTERM: a clean stop
        pass
    except Exception:
        logger.exception("worker %d failed", os.getpid())
        return 1
    finally:
        if trace.active() is not None:
            trace.active().flush()
    return 0


# --------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------- #


class WorkerClient:
    """Blocking JSON-lines RPC over one worker's unix socket.

    One instance per worker process, shared by every shard proxy routed
    to that worker: calls are serialised under a lock (the child serves
    its shards single-threaded anyway), and any transport failure —
    connect refused, reset, EOF, timeout — surfaces as
    :class:`WorkerDied` after dropping the connection, so the next call
    reconnects against the restarted worker.
    """

    def __init__(self, path: Path):
        self.path = str(path)
        self._lock = threading.Lock()
        self._conn: Optional[BrokerClient] = None
        #: op -> round trips attempted. Op names come from fleet code,
        #: never from a client, so the key set is closed.
        self.calls: Dict[str, int] = {}

    def _drop_locked(self) -> None:
        if self._conn is not None:
            self._conn.close()
        self._conn = None

    def close(self) -> None:
        with self._lock:
            self._drop_locked()

    def call(
        self, payload: Dict[str, Any], *, kill_pid: Optional[int] = None
    ) -> Dict[str, Any]:
        """One request/response round trip.

        The request goes out as it is, without the client's ``id``, so
        a shard's answer is exactly what an in-process host returns.

        ``kill_pid`` is the chaos harness's in-flight fault: SIGKILL
        that pid after the request bytes are written but before the
        response is read, so the commit/no-commit race of a mid-op
        worker death is actually exercised (both outcomes are safe:
        the caller retries with the same rid).
        """
        with self._lock:
            op = str(payload.get("op"))
            self.calls[op] = self.calls.get(op, 0) + 1
            try:
                if self._conn is None:
                    self._conn = BrokerClient(
                        socket_path=self.path, timeout=RPC_TIMEOUT
                    )
                conn = self._conn
                conn.send_bytes(encode(payload))
                conn.flush()
                if kill_pid is not None:
                    os.kill(kill_pid, signal.SIGKILL)
                return conn.recv()
            except (OSError, ValueError, ReproError) as exc:
                # ReproError: EOF, or a response that is not an object.
                self._drop_locked()
                raise WorkerDied(f"worker IPC failed: {exc}") from None


class _Forked:
    """The ``Popen`` surface the supervisor uses, over ``os.waitpid``."""

    def __init__(self, pid: int):
        self.pid = pid
        self.returncode: Optional[int] = None

    def poll(self) -> Optional[int]:
        if self.returncode is None:
            try:
                pid, status = os.waitpid(self.pid, os.WNOHANG)
            except ChildProcessError:  # another thread reaped it
                pid, status = self.pid, 0
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def wait(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while self.poll() is None:
            if time.monotonic() > deadline:
                raise TimeoutError(f"pid {self.pid} outlived {timeout:g}s")
            time.sleep(0.001)
        return self.returncode

    def send_signal(self, sig: int) -> None:
        if self.poll() is None:  # a reaped pid may be someone else's
            os.kill(self.pid, sig)


class WorkerProcess:
    """One supervised child: assignment, process handle, RPC client."""

    def __init__(self, index: int, socket_path: Path, log_path: Path):
        self.index = index
        self.socket_path = socket_path
        self.log_path = log_path
        #: key -> host spec: what every (re)spawn recovers.
        self.assigned: Dict[str, Dict[str, Any]] = {}
        self.client = WorkerClient(socket_path)
        self.proc: Optional[_Forked] = None
        #: Read end of the child's readiness pipe until :meth:`await_ready`.
        self._ready: Optional[int] = None
        self.restarts = 0
        #: Serialises concurrent ensure() calls racing to respawn.
        self.respawn_lock = threading.Lock()
        #: shard key -> {default_analysis} from worker_hello.
        self.shard_meta: Dict[str, Dict[str, Any]] = {}

    @property
    def pid(self) -> Optional[int]:
        return None if self.proc is None else self.proc.pid

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def responsive(self) -> bool:
        """True if the worker currently accepts connections.

        ``poll()`` alone is not liveness: a SIGKILLed child can linger
        in the kernel's exit path (or a wedged one can hold its pid)
        long after its listener is gone — ``poll()`` says alive while
        every RPC gets connection-refused. A busy-but-healthy worker
        still accepts (the listen backlog queues us), so a refused
        probe means dead-for-service, whatever the pid table says.
        """
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        probe.settimeout(1.0)
        try:
            probe.connect(str(self.socket_path))
        except OSError:
            return False
        finally:
            probe.close()
        return True

    def _log_tail(self, lines: int = 12) -> str:
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return "<no worker log>"
        return "\n".join(text.splitlines()[-lines:])

    def fork(self) -> None:
        """Fork the child, which recovers its shards, binds and serves."""
        supervisor = os.getpid()
        # The child gets a copy of every buffer; written once, here.
        for out in (sys.stdout, sys.stderr, trace.active()):
            with contextlib.suppress(AttributeError, OSError, ValueError):
                out.flush()  # unless it is None or a closed pipe
        self._ready, ready_w = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: never returns into the caller's stack
            code = 1
            try:
                code = _child(self, supervisor, ready_w)
            finally:
                os._exit(code)
        os.close(ready_w)
        self.proc = _Forked(pid)

    def await_ready(self) -> None:
        """Wait for the forked child's byte, then ask it for its shards."""
        ready, self._ready = self._ready, None
        poller = select.poll()
        poller.register(ready, select.POLLIN)
        try:
            if not poller.poll(SPAWN_TIMEOUT * 1e3):
                raise WorkerDied(f"not ready within {SPAWN_TIMEOUT:.0f}s")
            if not os.read(ready, 1):  # EOF: it died before it bound
                raise WorkerDied(f"exit code {self.proc.wait(timeout=10)}")
            hello = self.client.call({"op": "worker_hello"})
        except (WorkerDied, TimeoutError) as exc:
            self.kill()
            raise ReproError(
                f"worker {self.index} failed to start ({exc}); log tail:\n"
                f"{self._log_tail()}"
            ) from None
        finally:
            os.close(ready)
        self.shard_meta = dict(hello.get("shards", {}))

    def kill(self, sig: int = signal.SIGKILL) -> None:
        """Signal the child (SIGKILL: the chaos fault) and reap it."""
        if self.proc is None:
            return
        self.proc.send_signal(sig)  # an unreaped child can be signalled
        try:
            self.proc.wait(timeout=10)
        except TimeoutError:  # pragma: no cover - defensive
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait(timeout=10)
        self.client.close()

    def stop(self) -> None:
        """Graceful shutdown: worker_shutdown op, then escalate."""
        if self._ready is not None:  # forked, never awaited: no hello
            os.close(self._ready)
            self._ready = None
            self.kill()
        if self.alive:
            try:
                self.client.call({"op": "worker_shutdown"})
            except WorkerDied:
                pass
            try:
                self.proc.wait(timeout=5)
            except TimeoutError:
                self.kill(signal.SIGTERM)
        self.client.close()


class WorkerSupervisor:
    """Spawns, monitors and restarts the fleet's worker processes.

    Assignment is by *tenant*: every shard of a tenant lands on the same
    worker (tenants round-robin across workers). The fleet is
    single-writer per tenant, so shards of one tenant never execute
    concurrently anyway — spreading them across workers would buy no
    parallelism while forcing every escalation through two processes.
    Cross-tenant parallelism is what the pool provides, and that is
    what the benchmark drives.
    """

    def __init__(self, state_dir: Path, workers: int):
        if workers < 1:
            raise ReproError(f"need at least one worker, got {workers}")
        self.state_dir = Path(state_dir)
        self.run_dir = self.state_dir / "workers"
        self.run_dir.mkdir(parents=True, exist_ok=True)
        sock_dir = self.run_dir
        probe = sock_dir / f"w{workers - 1}.sock"
        if len(str(probe)) > _SOCKET_PATH_BUDGET:
            # sun_path is ~108 bytes; deep state dirs (pytest tmp trees)
            # overflow it, so fall back to a short private tempdir.
            sock_dir = Path(tempfile.mkdtemp(prefix="repro-w-"))
        self.sock_dir = sock_dir
        self.workers: List[WorkerProcess] = [
            WorkerProcess(
                i,
                socket_path=self.sock_dir / f"w{i}.sock",
                log_path=self.run_dir / f"worker-{i}.log",
            )
            for i in range(workers)
        ]
        self._worker_of: Dict[str, WorkerProcess] = {}
        self._tenant_order: List[str] = []
        self._inflight_kill = False
        self._started = False

    # ------------------------------ assignment ------------------------ #

    def assign_tenant(
        self, tenant: str, shard_specs: Dict[str, Dict[str, Any]]
    ) -> None:
        """Register a tenant's shards (before :meth:`start`)."""
        if self._started:
            raise ReproError("cannot assign tenants after start()")
        if tenant in self._tenant_order:
            raise ReproError(f"tenant {tenant!r} already assigned")
        wp = self.workers[len(self._tenant_order) % len(self.workers)]
        self._tenant_order.append(tenant)
        for key, spec in shard_specs.items():
            wp.assigned[key] = dict(spec)
            self._worker_of[key] = wp

    def worker_for(self, key: str) -> WorkerProcess:
        wp = self._worker_of.get(key)
        if wp is None:
            raise ReproError(f"no worker hosts shard {key!r}")
        return wp

    def shard_meta(self, key: str) -> Dict[str, Any]:
        return self.worker_for(key).shard_meta.get(key, {})

    # ------------------------------ lifecycle ------------------------- #

    def start(self) -> None:
        self._started = True
        try:
            for wp in self.workers:
                wp.fork()
            for wp in self.workers:
                wp.await_ready()
        except ReproError:
            self.stop()
            raise

    def stop(self) -> None:
        for wp in self.workers:
            wp.stop()

    def ensure(self, key: str) -> bool:
        """Respawn the worker hosting ``key`` if it is dead.

        Returns ``True`` if a respawn happened. The respawned child
        recovers every assigned shard from its journals before binding,
        so by the time this returns the shard serves again.
        """
        return self.ensure_worker(self.worker_for(key))

    def ensure_worker(self, wp: WorkerProcess) -> bool:
        with wp.respawn_lock:
            if wp.alive:
                if wp.responsive():
                    return False
                # The pid is still in the process table but the socket
                # refuses: a SIGKILLed child that has not finished
                # dying (its fds are torn down before the parent can
                # reap it) or a wedged one. Finish the job — the
                # blocking wait() also yields the CPU a dying child on
                # a loaded host needs to actually exit.
                logger.warning(
                    "worker %d (pid %s) is unresponsive; killing before "
                    "respawn", wp.index, wp.pid,
                )
                wp.kill()
            wp.client.close()
            wp.restarts += 1
            logger.warning(
                "worker %d (pid %s) is down; respawning (restart #%d)",
                wp.index, wp.pid, wp.restarts,
            )
            wp.fork()
            wp.await_ready()
            return True

    def ensure_all(self) -> int:
        """Respawn every dead worker; returns how many were restarted."""
        return sum(1 for wp in self.workers if self.ensure_worker(wp))

    def kill_worker(self, index: int, sig: int = signal.SIGKILL) -> int:
        """Chaos fault: hard-kill worker ``index``; returns its pid."""
        if not 0 <= index < len(self.workers):
            raise ReproError(
                f"no worker {index} (have {len(self.workers)})"
            )
        wp = self.workers[index]
        pid = wp.pid
        wp.kill(sig)
        return pid if pid is not None else -1

    def arm_inflight_kill(self) -> None:
        """One-shot chaos fault: SIGKILL the target of the *next* RPC
        after the request bytes are on the wire (see
        :meth:`WorkerClient.call`)."""
        self._inflight_kill = True

    def disarm_inflight_kill(self) -> None:
        """Drop an unconsumed mid-RPC kill (end-of-campaign quiesce)."""
        self._inflight_kill = False

    # ------------------------------ RPC + status ---------------------- #

    def call(self, key: str, request: Dict[str, Any]) -> Dict[str, Any]:
        """Route one shard-addressed request to its worker."""
        wp = self.worker_for(key)
        payload = dict(request)
        payload["shard"] = key
        kill_pid = None
        if self._inflight_kill and wp.alive:
            self._inflight_kill = False
            kill_pid = wp.pid
        return wp.client.call(payload, kill_pid=kill_pid)

    def status(self) -> List[Dict[str, Any]]:
        """Per-worker supervision facts for /healthz and /metrics."""
        return [
            {
                "index": wp.index,
                "pid": wp.pid,
                "alive": wp.alive,
                "restarts": wp.restarts,
                "shards": sorted(wp.assigned),
            }
            for wp in self.workers
        ]


class WorkerShard:
    """Shard-client proxy: an EngineHost in a worker, seen from the fleet.

    Implements the same surface the fleet's shard manager uses on a
    local :class:`~repro.service.host.EngineHost` (``handle_request``
    plus the shard-client accessors), as RPCs through the supervisor.
    A :class:`WorkerDied` mid-request restarts the worker (journal
    recovery) and surfaces as a retryable ``code: "worker"`` error —
    the op's fate is unknown, which is exactly what at-least-once
    clients with request ids are built for.
    """

    def __init__(self, supervisor: WorkerSupervisor, key: str):
        self.supervisor = supervisor
        self.key = key
        #: Mirrors the child host's degraded flag, updated from response
        #: traffic (set on ``code: "degraded"``, cleared by a successful
        #: mutation/snapshot or a worker restart). A stale value only
        #: ever delays an op by one round trip.
        self.degraded = False
        self.degraded_reason: Optional[str] = None

    # ------------------------------ protocol -------------------------- #

    def handle_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        try:
            response = self.supervisor.call(self.key, request)
        except WorkerDied as exc:
            return error_response(
                request, str(self._died(exc)), code="worker"
            )
        self._track(request, response)
        return response

    def _died(self, exc: WorkerDied) -> ReproError:
        """Restart the dead worker; the retryable ``code: "worker"``
        error its caller gets instead of an answer (the op's fate is
        unknown: retry with the same rid)."""
        self.degraded = False
        self.degraded_reason = None
        try:
            self.supervisor.ensure(self.key)
            then = ("the supervisor restarted it with journal recovery — "
                    "retry the request (same rid) for the committed outcome")
        except ReproError as restart_exc:
            then = f"it could not be restarted: {restart_exc}"
        retryable = ReproError(
            f"shard worker for {self.key} died mid-op ({exc}); {then}"
        )
        retryable.code = "worker"  # round-trips via error_code
        return retryable

    def _track(
        self, request: Dict[str, Any], response: Dict[str, Any]
    ) -> None:
        op = request.get("op")
        if response.get("code") == "degraded":
            self.degraded = True
            self.degraded_reason = response.get("error")
        elif response.get("ok") and (op in MUTATING_OPS or op == "snapshot"):
            self.degraded = False
            self.degraded_reason = None

    # ------------------------------ accessors ------------------------- #

    def _rpc(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        try:
            response = self.supervisor.call(self.key, payload)
        except WorkerDied as exc:
            raise self._died(exc) from None
        if not response.get("ok"):
            raise error_from_response(
                response, f"shard {self.key} RPC failed"
            )
        return response

    @property
    def default_analysis(self) -> str:
        return str(self.supervisor.shard_meta(self.key)
                   .get("default_analysis", ""))

    def admitted_count(self) -> int:
        status = self._rpc({"op": "worker_status"})
        return int(status["shards"][self.key]["admitted"])

    def upper_bounds(self) -> Dict[str, int]:
        return dict(self._rpc({"op": "worker_bounds"})["bounds"])

    def engine_stats(self) -> Dict[str, Any]:
        return dict(self._rpc({"op": "worker_stats"})["engine"])

    def drop_rid(self, rid: str) -> None:
        self._rpc({"op": "worker_drop_rid", "rid": str(rid)})

    def shard_dump(
        self, ids: Optional[List[int]] = None
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"op": "worker_dump"}
        if ids is not None:
            payload["ids"] = [int(i) for i in ids]
        dump = self._rpc(payload)
        return {
            key: dump[key]
            for key in ("streams", "next_id", "applied") if key in dump
        }

    def restart(self) -> None:
        """Kill this shard's worker and respawn it: the fresh child
        recovers every shard it hosts from its journal."""
        supervisor = self.supervisor
        supervisor.kill_worker(supervisor.worker_for(self.key).index)
        supervisor.ensure(self.key)
        self.degraded = False
        self.degraded_reason = None

    def close(self) -> None:
        """No-op: worker lifecycles belong to the supervisor."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WorkerShard({self.key!r}, degraded={self.degraded})"
