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
    serves the broker's JSON-lines protocol, as a broker's
    :class:`~repro.service.server.LoopServer`, until a SIGTERM or its
    orphaning drains it. It always ends in ``os._exit``.

Parent side
    :class:`WorkerSupervisor` forks and monitors the children, restarts
    them on exit, and owns one :class:`WorkerClient` per worker, the one
    way to reach it: runs of requests pipelined FIFO on a persistent
    link, answered with the worker's encoded lines — the gateway's runs
    on its loop (sent on as HTTP bodies unchanged), a blocking caller's
    request as a run of one on the client's own. A timeout or a lost
    connection fails a link: every run waiting on it gets the retryable
    ``code: "worker"`` error.

A request is a broker op plus a ``tenant`` key naming one of the
worker's tenants, and its answer is that tenant's ``handle_request``;
a request without one is a ``protocol`` error.

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
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..errors import ReproError
from ..obs import trace
from ..service.loop import SelectorLoop, TimerHandle, _Transport
from ..service.protocol import (
    KNOWN_OPS,
    encode,
    error_response,
    parse_line,
)
from ..service.server import LineConnection, LoopServer, unix_listener
from .shards import TenantHost

__all__ = [
    "WorkerClient",
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


class _WorkerServer(LoopServer):
    """The child's server: its tenants' hosts behind one unix socket,
    served, drained and closed as the broker is; SIGTERM, SIGINT and
    the orphan check ask for that shutdown."""

    def __init__(self, wp: "WorkerProcess", supervisor: int):
        super().__init__()
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
        self.readahead_full = 0

    def bind(self, path: Path) -> None:
        """Apply socket hygiene and bind; from here a signal drains."""
        self._listen(unix_listener(path), lambda loop: _TenantLines(self, loop))
        self._unix_path = path
        self.stop_on_signals()
        self._check_supervisor()

    def _check_supervisor(self) -> None:
        """Once a second: a restarted gateway must find the socket free,
        not served by a process it does not supervise."""
        if os.getppid() != self.supervisor:
            logger.warning("supervisor %d is gone", self.supervisor)
            self.request_shutdown()
        else:
            self._loop.call_later(1.0, self._check_supervisor)

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
            server.bind(wp.socket_path)
            os.write(ready, b".")
            os.close(ready)
        except BaseException:
            server.close()
            raise
        server.run()
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
    """A persistent link to one worker: the protocol of a connected
    :class:`~repro.service.loop._Transport` on one loop. A run costs one
    write; each answer line read goes to the oldest run waiting, and a
    lost connection ends every waiting run."""

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
        #: The worker was killed or respawned: replace at the next run.
        self.stale = False
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
    """JSON-lines RPC to one worker's unix socket: runs of requests
    pipelined FIFO on a persistent link (an :class:`_AnswerLines`) per
    loop, answered with the worker's encoded lines (sent on unchanged).
    :meth:`forward` is the gateway's, on its loop; :meth:`call` is a
    run of one on a loop of the client's own, for blocking callers. A
    timeout fails the link: every run waiting on it gets the retryable
    ``code: "worker"`` error. :meth:`close` (the worker was killed or
    respawned) marks every link stale, from any thread; the next run on
    a loop reconnects."""

    def __init__(self, path: Path):
        self.path = str(path)
        self._lock = threading.Lock()
        #: The blocking callers' loop, made by the first :meth:`call`.
        self._loop: Optional[SelectorLoop] = None
        self._links: Dict[SelectorLoop, _AnswerLines] = {}
        #: op -> round trips attempted (a forwarded run counts once,
        #: under its first op). Ops outside the op table count as
        #: ``"other"``: a client names them, so the key set stays closed.
        self.calls: Dict[str, int] = {}

    def _count(self, op: Any) -> None:
        op = op if op in KNOWN_OPS else "other"
        self.calls[op] = self.calls.get(op, 0) + 1

    def close(self) -> None:
        """Mark every link stale (safe from any thread)."""
        for link in list(self._links.values()):
            link.stale = True

    def call(
        self, payload: Dict[str, Any], *, kill_pid: Optional[int] = None
    ) -> Dict[str, Any]:
        """One round trip, the request as it is (no client ``id``, so
        the answer is an in-process fleet's): :meth:`forward` on this
        client's loop, run until the answer is in. ``kill_pid`` is the
        chaos in-flight fault (see :meth:`forward`)."""
        with self._lock:
            if self._loop is None:
                self._loop = SelectorLoop()
            loop, answer = self._loop, []
            self.forward(loop, [payload], RPC_TIMEOUT, answer.extend,
                         kill_pid=kill_pid)
            loop.run(lambda: answer)
        return parse_line(answer[0])

    def forward(self, loop: SelectorLoop, payloads: List[Dict[str, Any]],
                timeout: float, done: Answered, *,
                kill_pid: Optional[int] = None) -> None:
        """Write every payload at once on ``loop``'s link; ``done`` gets
        their answer lines in order, on ``loop``, after this returns —
        within ``timeout`` seconds, after which the link fails. One the
        worker did not answer — it died or is wedged — gets the
        retryable ``code: "worker"`` error: its fate is unknown, so its
        client retries it with the same rid. ``kill_pid`` is the chaos
        in-flight fault: SIGKILL that pid once the run is written,
        before its answer is read, so a mid-op death's commit/no-commit
        race is exercised (either way the caller retries)."""
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
            link = self._links.get(loop)
            if link is None or link.failed or link.stale:
                self._drop(loop)
                link = self._links[loop] = _AnswerLines(loop, self.path)
            link.send(b"".join(map(encode, payloads)),
                      (len(payloads), answers, end))
        except OSError as exc:  # refused: nothing was sent
            self._drop(loop)
            loop.call_soon(end, exc)
        else:
            if kill_pid is not None:
                os.kill(kill_pid, signal.SIGKILL)
            timer.append(loop.call_later(timeout, link.fail, TimeoutError()))

    def _drop(self, loop: SelectorLoop) -> None:
        """Fail ``loop``'s link (on that loop's thread, or once it closed)."""
        link = self._links.pop(loop, None)
        if link is not None:
            link.fail(ReproError("the link was closed"))

    def close_forward(self) -> None:
        """Fail every link and close the blocking callers' loop (once no
        loop that holds a link still runs)."""
        with self._lock:
            for loop in list(self._links):
                self._drop(loop)
            if self._loop is not None:
                self._loop.close()
                self._loop = None


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
                raise ReproError(f"not ready within {SPAWN_TIMEOUT:.0f}s")
            if not os.read(ready, 1):  # EOF: it died before it bound
                raise ReproError(f"exit code {self.proc.wait(timeout=10)}")
        except (ReproError, TimeoutError) as exc:
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
        :meth:`WorkerClient.forward`)."""
        self._inflight_kill = True

    def disarm_inflight_kill(self) -> None:
        """Drop an unconsumed mid-RPC kill (end-of-campaign quiesce)."""
        self._inflight_kill = False

    # ------------------------------ requests + status ----------------- #

    def call(self, tenant: str, request: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one of ``tenant``'s requests in its worker, blocking
        (:meth:`WorkerClient.call`).

        A worker that did not answer is respawned if it is dead before
        this returns the retryable ``code: "worker"`` error: the op's
        fate is unknown, which is exactly what at-least-once clients
        with request ids are built for.
        """
        wp = self.worker_for(tenant)
        kill_pid = None
        if self._inflight_kill and wp.alive:
            self._inflight_kill = False
            kill_pid = wp.pid
        answer = wp.client.call({**request, "tenant": tenant},
                                kill_pid=kill_pid)
        if kill_pid is not None:
            # Reaped first: a SIGKILLed child still accepts on its socket
            # until it is gone, and would pass for a live one.
            wp.kill()
        if answer.get("code") == "worker":
            try:
                self.ensure_worker(wp)
            except ReproError as exc:
                logger.warning("worker %d could not be restarted: %s",
                               wp.index, exc)
        return answer

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
