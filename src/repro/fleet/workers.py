"""Supervised worker processes: tenants out of the gateway.

Whole tenants run in child processes, in parallel across cores:

Child side (a fork of the supervisor, :func:`_child`)
    With every module already imported, the child cuts loose from its
    parent (own stdio, signals, logging and tracer; no inherited fd),
    opens one :class:`~repro.fleet.shards.TenantHost` per assigned
    tenant from the tenant's *unchanged* state directory — the same
    constructor and recovery an in-process fleet runs —, binds a
    per-worker unix socket with the broker's
    stale-socket hygiene, says so with one byte on a private pipe and
    serves the broker's JSON-lines protocol until stopped or orphaned.
    It always ends in ``os._exit``.

Parent side
    :class:`WorkerSupervisor` forks and monitors the children, restarts
    them on exit, and owns one :class:`WorkerClient` per worker: a
    blocking round trip for synchronous callers, and the gateway's one
    persistent link to the worker, on which runs of requests are
    pipelined FIFO and answered with the worker's encoded lines, which
    the gateway sends on as HTTP bodies unchanged. A timeout or a lost
    connection fails the link: every run waiting on it gets the
    retryable ``code: "worker"`` error.

A request is a broker op plus a ``tenant`` key naming one of the
worker's tenants, and its answer is that tenant's ``handle_request``;
a request without one is a ``protocol`` error. SIGTERM stops a worker.

Single-writer discipline: a tenant's journal is only ever open in one
process, its worker, which serves its tenants single-threaded. A tenant
never leaves its worker: failing it over (the ``failover`` op) replays
its journal there, and the worker keeps its pid.

A worker's death takes its tenants down, which is the crash model of an
in-process fleet: committed mutations are journaled with their ``rid``
before the ack, so the supervisor restarts the worker (whose tenants
recover as any restart does) and the caller retries with the same rid —
the recovered idempotency table replays the committed outcome instead
of double-applying.
"""

from __future__ import annotations

import contextlib
import faulthandler
import gc
import logging
import os
import select
import shutil
import signal
import socket
import sys
import tempfile
import threading
import time
from collections import deque
from functools import partial
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from ..errors import ReproError
from ..obs import trace
from ..service.client import BrokerClient
from ..service.loop import SelectorLoop, TimerHandle, _Transport
from ..service.protocol import (
    KNOWN_OPS,
    encode,
    error_response,
    parse_line,
)
from ..service.server import LineConnection, unix_listener
from .shards import TenantHost

__all__ = [
    "WorkerClient",
    "WorkerDied",
    "WorkerProcess",
    "WorkerSupervisor",
]

logger = logging.getLogger(__name__)

#: How long the supervisor waits for a fresh child to recover its
#: journals and bind its socket before declaring the spawn failed.
SPAWN_TIMEOUT = 60.0

#: Per-RPC socket timeout. Generous: a single admission verdict on a
#: large closure under the slower backends is milliseconds, not tens
#: of seconds, so hitting this means the worker is wedged, not slow.
RPC_TIMEOUT = 60.0

#: How long ``/healthz`` and ``/metrics`` wait for a worker's ``stats``
#: answers: a probe must answer, 503 or partial, while a worker is wedged.
PROBE_TIMEOUT = 2.0

#: ``sun_path`` is ~108 bytes on Linux; leave headroom for the name.
_SOCKET_PATH_BUDGET = 90


class WorkerDied(ReproError):
    """The worker's process or IPC connection went away mid-request:
    the op's fate is unknown (retry with the same rid once the worker
    is restarted), unlike an error response, which says it failed."""


# --------------------------------------------------------------------- #
# Child side
# --------------------------------------------------------------------- #


class _TenantLines(LineConnection):
    """A worker's framing: the broker's lines, of which every JSON
    object is a request — its tenant's host judges the op, as in an
    in-process fleet — however long: the gateway bounded the request,
    and adding its ``tenant`` can lengthen the line."""

    parse = staticmethod(parse_line)
    max_line = sys.maxsize


class _WorkerServer:
    """The child's server: its tenants' hosts behind one unix socket,
    on the broker's loop and front end."""

    def __init__(self, wp: "WorkerProcess", supervisor: int):
        self.sock_path = wp.socket_path
        self.supervisor = supervisor
        self.tenants: Dict[str, TenantHost] = {}
        for name in sorted(wp.assigned):
            spec = wp.assigned[name]
            host = self.tenants[name] = TenantHost(
                name, spec["topology"], state_dir=spec["state_dir"],
            )
            logger.info(
                "worker %d recovered tenant %s (%d streams)",
                os.getpid(), name, host.admitted_count(),
            )
        self.loop = SelectorLoop()
        self.connections: Set[LineConnection] = set()
        self.readahead_full = 0
        self._bound = False
        self._orphaned = False

    def bind(self) -> None:
        """Apply socket hygiene and bind."""
        self.loop.listen(unix_listener(self.sock_path),
                         lambda: _TenantLines(self, self.loop))
        self._bound = True

    def serve(self) -> None:
        """Serve until orphaned (or SIGTERMed: ``SystemExit``)."""
        self._check_supervisor()
        self.loop.run(lambda: self._orphaned)

    def _check_supervisor(self) -> None:
        """Once a second: a restarted gateway must find the socket free,
        not served by a process it does not supervise."""
        if os.getppid() != self.supervisor:
            logger.warning("supervisor %d is gone", self.supervisor)
            self._orphaned = True
        else:
            self.loop.call_later(1.0, self._check_supervisor)

    def _serve(self, batch: List[Any], conn: LineConnection) -> bytes:
        return b"".join(
            item if isinstance(item, bytes)     # refused by the framing
            else encode(self.handle_request(item)) for item in batch
        )

    def handle_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        tenant = request.pop("tenant", None)
        if not isinstance(tenant, str) or tenant not in self.tenants:
            return error_response(
                request, f"worker does not serve tenant {tenant!r} "
                f"(has: {sorted(self.tenants)})", code="protocol",
            )
        return self.tenants[tenant].handle_request(request)

    def close(self) -> None:
        self.loop.close()
        if self._bound:
            # Clean shutdown unlinks the socket; only unclean exits
            # (SIGKILL) leave one behind for hygiene to reclaim.
            self.sock_path.unlink(missing_ok=True)
        for host in self.tenants.values():
            host.close()


#: The parent's fd-owning objects (tracer sink, stdio, log handlers), held
#: in a child and never closed or flushed: their fd numbers may be reused.
_inherited: List[Any] = []


def _child(wp: "WorkerProcess", supervisor: int, ready: int) -> int:
    """A forked worker's life: cut loose from the parent, recover, bind,
    write one byte on ``ready``, serve until stopped or orphaned."""
    gc.freeze()  # no inherited object is ever collected here
    # A signal sent to a worker must not reach the parent's wakeup fd
    # (an embedding asyncio loop's), nor run one of the parent's handlers.
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
    # The gateway's listener, connections and worker links, other
    # workers' sockets, epoll, the loop's waker: nothing stays.
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


#: What a forwarded run's caller is handed: the run's answer lines.
Answered = Callable[[List[bytes]], None]
#: A run on a link: answers expected, lines read, its end (why or None).
_Waiting = Tuple[int, List[bytes], Callable[[Optional[BaseException]], None]]


class _AnswerLines:
    """The gateway's persistent link to one worker: the protocol of a
    connected :class:`~repro.service.loop._Transport` on the gateway's
    loop. A run costs one write; each answer line read goes to the
    oldest run waiting, and a lost connection ends every waiting run."""

    def __init__(self, loop: SelectorLoop, path: str):
        sock = socket.socket(socket.AF_UNIX)
        try:
            sock.setblocking(False)
            sock.connect(path)
        except OSError:
            sock.close()
            raise
        self.waiting: Deque[_Waiting] = deque()
        self.failed = False
        self._buf = b""
        self._why: Optional[BaseException] = None
        self.transport = _Transport(loop, sock, self)

    def send(self, data: bytes, run: _Waiting) -> None:
        """Write ``data`` after what is pending. Reads go on meanwhile:
        the worker blocks writing answers until they are read."""
        self.waiting.append(run)
        self.transport.write(data)

    def fail(self, why: BaseException) -> None:
        """Close the link now, ending each run still waiting with
        ``why``; a no-op once it is closed."""
        self._why = self._why or why
        self.transport.abort()

    # -- what the transport calls: a run's write is buffered whatever
    # its size, so flow control has nothing to pause ---------------------

    def connection_made(self, transport: _Transport) -> None:
        pass

    pause_writing = resume_writing = lambda self: None

    def data_received(self, data: bytes) -> None:
        *lines, self._buf = (self._buf + data).split(b"\n")
        for line in lines:
            if not self.waiting:
                return self.fail(ReproError("an answer nobody asked for"))
            count, answers, end = self.waiting[0]
            answers.append(line + b"\n")
            if len(answers) == count:
                self.waiting.popleft()
                end(None)

    def eof_received(self) -> bool:
        self._why = self._why or ReproError("the worker closed the link")
        return False

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.failed = True
        why = self._why or exc or ReproError("the link was closed")
        waiting, self.waiting = self.waiting, deque()
        for _, _, end in waiting:
            end(why)


class WorkerClient:
    """JSON-lines RPC to one worker's unix socket, on two connections:
    :meth:`call`, one blocking round trip under a lock, and the
    gateway's :meth:`forward`: one persistent link (an
    :class:`_AnswerLines` on the gateway's loop), runs pipelined on it
    FIFO, answered with the worker's encoded lines (sent on unchanged).
    A timeout fails the link: every run waiting on it gets the retryable
    ``code: "worker"`` error. :meth:`close` (the worker was killed or
    respawned) drops the call's connection and marks the link stale,
    from any thread; the next forward reconnects."""

    def __init__(self, path: Path):
        self.path = str(path)
        self._lock = threading.Lock()
        self._conn: Optional[BrokerClient] = None
        self._link: Optional[_AnswerLines] = None
        self._stale = False  # the link goes on the next forward
        #: op -> round trips attempted (a forwarded run counts once,
        #: under its first op). Ops outside the op table count as
        #: ``"other"``: a client names them, so the key set stays closed.
        self.calls: Dict[str, int] = {}

    def _count(self, op: Any) -> None:
        op = op if op in KNOWN_OPS else "other"
        self.calls[op] = self.calls.get(op, 0) + 1

    def _drop_locked(self) -> None:
        if self._conn is not None:
            self._conn.close()
        self._conn = None

    def close(self) -> None:
        with self._lock:
            self._drop_locked()
            self._stale = True

    def call(
        self, payload: Dict[str, Any], *, kill_pid: Optional[int] = None
    ) -> Dict[str, Any]:
        """One round trip, the request as it is (no client ``id``, so
        the answer is an in-process fleet's); :class:`WorkerDied` if the
        transport fails. ``kill_pid`` is the chaos in-flight fault:
        SIGKILL that pid once the request is written, before the answer
        is read, so a mid-op death's commit/no-commit race is exercised
        (either way the caller retries with the same rid)."""
        with self._lock:
            self._count(payload.get("op"))
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

    def forward(self, loop: SelectorLoop, payloads: List[Dict[str, Any]],
                timeout: float, done: Answered) -> None:
        """Write every payload at once on the link; ``done`` gets their
        answer lines in order, on ``loop``, after this returns — within
        ``timeout`` seconds, after which the link fails. One the worker
        did not answer — it died or is wedged — gets the retryable
        ``code: "worker"`` error: its fate is unknown, so its client
        retries it with the same rid."""
        self._count(payloads[0].get("op"))
        answers: List[bytes] = []
        timer: List[TimerHandle] = []

        def end(why: Optional[BaseException]) -> None:
            for handle in timer:
                handle.cancel()
            if len(answers) < len(payloads):
                message = f"worker IPC failed ({why!r}); retry (same rid)"
                answers.extend(encode(error_response(p, message, code="worker"))
                               for p in payloads[len(answers):])
            done(answers)

        try:
            link = self._link
            if self._stale or link is None or link.failed:
                self.close_forward()
                link = self._link = _AnswerLines(loop, self.path)
            link.send(b"".join(map(encode, payloads)),
                      (len(payloads), answers, end))
        except OSError as exc:  # refused: nothing was sent
            self.close_forward()
            loop.call_soon(end, exc)
        else:
            timer.append(loop.call_later(timeout, link.fail, TimeoutError()))

    def close_forward(self) -> None:
        """Fail the link (on its loop's thread, or once that closed)."""
        if self._link is not None:
            self._link.fail(ReproError("the link was closed"))
        self._link, self._stale = None, False


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
        #: tenant -> ``topology`` and ``state_dir``: what every
        #: (re)spawn recovers.
        self.assigned: Dict[str, Dict[str, Any]] = {}
        self.client = WorkerClient(socket_path)
        self.proc: Optional[_Forked] = None
        #: Read end of the child's readiness pipe until :meth:`await_ready`.
        self._ready: Optional[int] = None
        self.restarts = 0
        #: Serialises concurrent ensure() calls racing to respawn.
        self.respawn_lock = threading.Lock()

    @property
    def pid(self) -> Optional[int]:
        return None if self.proc is None else self.proc.pid

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def responsive(self) -> bool:
        """True if the worker accepts connections. ``poll()`` is not
        liveness: a SIGKILLed child can linger in the kernel's exit path
        (a wedged one hold its pid) with its listener gone. A busy
        worker still accepts (the backlog queues us), so a refusal means
        dead for service, whatever the pid table says."""
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
        """Fork the child, which recovers its tenants, binds and serves."""
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
        """Wait for the forked child's byte: it has bound its socket."""
        ready, self._ready = self._ready, None
        poller = select.poll()
        poller.register(ready, select.POLLIN)
        try:
            if not poller.poll(SPAWN_TIMEOUT * 1e3):
                raise WorkerDied(f"not ready within {SPAWN_TIMEOUT:.0f}s")
            if not os.read(ready, 1):  # EOF: it died before it bound
                raise WorkerDied(f"exit code {self.proc.wait(timeout=10)}")
        except (WorkerDied, TimeoutError) as exc:
            self.kill()
            raise ReproError(
                f"worker {self.index} failed to start ({exc}); log tail:\n"
                f"{self._log_tail()}"
            ) from None
        finally:
            os.close(ready)

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
        """Graceful shutdown: SIGTERM, which the child answers by closing
        its tenants and exiting; SIGKILL if it does not."""
        if self._ready is not None:  # forked, never awaited: not bound
            os.close(self._ready)
            self._ready = None
        self.kill(signal.SIGTERM)
        self.client.close_forward()


class WorkerSupervisor:
    """Spawns, monitors and restarts the fleet's worker processes.

    Assignment is by *tenant*: a tenant's host runs in one worker
    (tenants round-robin across workers); the parallelism is across
    tenants."""

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
            # overflow it, so fall back to a short private tempdir,
            # which stop() removes.
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
        self._inflight_kill = False
        self._started = False

    # ------------------------------ assignment ------------------------ #

    def assign_tenant(self, tenant: str, spec: Dict[str, Any]) -> None:
        """Place a tenant (``topology``, ``state_dir``) on a worker,
        before :meth:`start`."""
        if self._started:
            raise ReproError("cannot assign tenants after start()")
        if tenant in self._worker_of:
            raise ReproError(f"tenant {tenant!r} already assigned")
        wp = self.workers[len(self._worker_of) % len(self.workers)]
        wp.assigned[tenant] = dict(spec)
        self._worker_of[tenant] = wp

    def worker_for(self, tenant: str) -> WorkerProcess:
        wp = self._worker_of.get(tenant)
        if wp is None:
            raise ReproError(f"no worker serves tenant {tenant!r}")
        return wp

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
        if self.sock_dir != self.run_dir:
            shutil.rmtree(self.sock_dir, ignore_errors=True)

    def ensure_worker(self, wp: WorkerProcess) -> bool:
        """Respawn ``wp`` if it is dead; ``True`` if a respawn happened.

        The respawned child recovers every assigned tenant from its
        journals before binding, so by the time this returns its
        tenants serve again.
        """
        with wp.respawn_lock:
            if wp.alive:
                if wp.responsive():
                    return False
                # In the process table but refusing: a SIGKILLed child
                # not done dying, or a wedged one. Finish the job (the
                # blocking wait() yields the CPU a dying child needs).
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
        """One-shot chaos fault: SIGKILL the target of the *next*
        :meth:`call` after the request bytes are on the wire (see
        :meth:`WorkerClient.call`)."""
        self._inflight_kill = True

    def disarm_inflight_kill(self) -> None:
        """Drop an unconsumed mid-RPC kill (end-of-campaign quiesce)."""
        self._inflight_kill = False

    # ------------------------------ requests + status ----------------- #

    def call(self, tenant: str, request: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one of ``tenant``'s requests in its worker, blocking.

        A worker that dies mid-request is respawned before this returns
        the retryable ``code: "worker"`` error: the op's fate is
        unknown, which is exactly what at-least-once clients with
        request ids are built for.
        """
        wp = self.worker_for(tenant)
        kill_pid = None
        if self._inflight_kill and wp.alive:
            self._inflight_kill = False
            kill_pid = wp.pid
        try:
            return wp.client.call(
                {**request, "tenant": tenant}, kill_pid=kill_pid
            )
        except WorkerDied as exc:
            try:
                self.ensure_worker(wp)
                then = ("the supervisor restarted it with journal recovery "
                        "— retry the request (same rid) for the committed "
                        "outcome")
            except ReproError as restart_exc:
                then = f"it could not be restarted: {restart_exc}"
            return error_response(
                request, f"worker {wp.index} serving tenant {tenant!r} "
                f"died mid-op ({exc}); {then}", code="worker",
            )

    def forward(self, loop: SelectorLoop, tenant: str,
                requests: List[Dict[str, Any]], done: Answered) -> None:
        """Answer a run of ``tenant``'s requests in its worker, on
        ``loop``: ``done`` gets the answer lines (see
        :meth:`WorkerClient.forward`); the monitor respawns a dead
        worker."""
        self.worker_for(tenant).client.forward(
            loop, [{**request, "tenant": tenant} for request in requests],
            RPC_TIMEOUT, done,
        )

    def stats(self, loop: SelectorLoop,
              done: Callable[[Dict[str, Dict[str, Any]]], None]) -> None:
        """Every tenant's ``stats`` answer, by name, for /healthz and
        /metrics: one forward per worker, all at once, each bounded by
        ``PROBE_TIMEOUT``; ``done`` gets them once the last worker has
        answered or timed out. The tenants of a worker that is down or
        does not answer in time get the ``code: "worker"`` error."""
        runs = [(wp, [{"op": "stats", "tenant": t} for t in sorted(wp.assigned)])
                for wp in self.workers if wp.assigned]
        got: Dict[int, List[bytes]] = {}

        def answered(index: int, lines: List[bytes]) -> None:
            got[index] = lines
            if len(got) == len(runs):
                done({r["tenant"]: parse_line(line)
                      for i, (_, run) in enumerate(runs)
                      for r, line in zip(run, got[i])})

        if not runs:
            loop.call_soon(done, {})
        for i, (wp, run) in enumerate(runs):
            wp.client.forward(loop, run, PROBE_TIMEOUT, partial(answered, i))

    def status(self) -> List[Dict[str, Any]]:
        """Per-worker supervision facts for /healthz and /metrics."""
        return [
            {
                "index": wp.index,
                "pid": wp.pid,
                "alive": wp.alive,
                "restarts": wp.restarts,
                "tenants": sorted(wp.assigned),
            }
            for wp in self.workers
        ]
