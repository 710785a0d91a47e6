"""Asyncio JSON-lines broker server (``repro serve``).

Architecture: connection handlers only read lines and enqueue
``(request, connection)`` pairs on a single FIFO; one worker task drains
the queue in batches (amortising event-loop wakeups under load — the
recorded batch sizes are visible in the ``stats`` op) and runs the
CPU-bound admission engine serially, which also makes every decision
linearisable without locks. Responses preserve per-connection request
order because the FIFO does.

The engine, persistence, idempotency and protocol dispatch live in
:class:`repro.service.host.EngineHost`; the server owns exactly one host
and adds the socket front end. The fleet (:mod:`repro.fleet`) hosts many
of the same objects behind an HTTP gateway instead.
"""

from __future__ import annotations

import asyncio
import logging
import socket as socket_module
import stat
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..errors import ReproError
from ..faults.plane import FaultPlane
from .host import EngineHost
from .protocol import (
    DegradedError, ProtocolError, decode, encode, error_response,
)

__all__ = [
    "BrokerServer",
    "DegradedError",
    "clear_stale_socket",
    "keep_recv_buffers_on_heap",
]

logger = logging.getLogger(__name__)

#: Queue sentinel (in the ``prebuilt`` slot): the connection reached EOF;
#: the worker closes its writer once every earlier response is flushed.
_EOF = object()


def keep_recv_buffers_on_heap() -> None:
    """Stop every socket read of an asyncio server from costing an
    ``mmap``/``munmap`` pair; call once before serving.

    asyncio's selector transport allocates a fresh 256 KiB ``bytes`` for
    each ``recv`` and shrinks it to what arrived. glibc serves blocks
    above its mmap threshold — 128 KiB in a fresh process — with
    ``mmap``, so every request pays an ``mmap``, two page faults, an
    ``mremap`` and a ``munmap``: 45 us of a 140 us broker read on the
    bench host (2 minor faults per request in ``/proc/<pid>/stat``). The
    shrunk block is freed below the threshold, so malloc never learns.
    The threshold is dynamic, though (``mallopt(3)``): freeing one
    mmapped block raises it to that block's size, and the trim threshold
    to twice that — from then on the buffers are carved from the heap
    and returned to it without a system call. Importing ``networkx``
    used to do this by accident in every service interpreter; this does
    it on purpose. One untouched (``calloc``) megabyte, freed at once;
    a no-op under allocators without the rule.
    """
    bytes(1 << 20)


def clear_stale_socket(sock_path: Path) -> None:
    """Remove ``sock_path`` iff it is a unix socket nobody serves.

    The hygiene rules every listener in this codebase (broker and fleet
    worker alike) applies before binding: refuse to touch anything that
    is not a socket, probe-connect to distinguish a live server (refuse)
    from a crash leftover (reclaim), and never race a concurrent bind.
    """
    if not stat.S_ISSOCK(sock_path.stat().st_mode):
        raise ReproError(
            f"{sock_path} exists and is not a socket; refusing to "
            "remove it"
        )
    probe = socket_module.socket(
        socket_module.AF_UNIX, socket_module.SOCK_STREAM
    )
    try:
        probe.settimeout(1.0)
        try:
            probe.connect(str(sock_path))
        except (ConnectionRefusedError, socket_module.timeout):
            sock_path.unlink(missing_ok=True)
            logger.info("removed stale socket %s", sock_path)
            return
        except FileNotFoundError:  # pragma: no cover - lost a race
            return
    finally:
        probe.close()
    raise ReproError(
        f"socket {sock_path} is already served by a live broker; "
        "stop it first or choose another --socket path"
    )


class BrokerServer:
    """The channel broker: an :class:`EngineHost` behind a socket.

    Parameters
    ----------
    topology_spec:
        Problem-file topology spec (``{"type": "mesh", "width": 8, ...}``).
    state_dir:
        Directory for snapshot + journal; ``None`` disables persistence.
    batch_max:
        Maximum requests the worker drains per wakeup.
    fault_plane:
        Chaos-testing hook (see :mod:`repro.faults.plane`); installed
        into the persistence layer. ``None`` in production use.
    """

    def __init__(
        self,
        topology_spec: Dict[str, Any],
        *,
        state_dir: Optional[Union[str, Path]] = None,
        residency_margin: int = 0,
        analysis: Optional[str] = None,
        batch_max: int = 64,
        fault_plane: Optional[FaultPlane] = None,
    ):
        self.host = EngineHost(
            topology_spec,
            state_dir=state_dir,
            residency_margin=residency_margin,
            analysis=analysis,
            fault_plane=fault_plane,
            on_shutdown=self.request_shutdown,
        )
        self.batch_max = max(1, int(batch_max))
        self._queue: Optional[asyncio.Queue] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._metrics_server: Optional[asyncio.base_events.Server] = None
        self._unix_path: Optional[Path] = None
        self._worker_task: Optional[asyncio.Task] = None
        self._stopping: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------ #
    # Host delegation (the pre-fleet public surface, kept stable)
    # ------------------------------------------------------------------ #

    @property
    def topology_spec(self):
        return self.host.topology_spec

    @property
    def topology(self):
        return self.host.topology

    @property
    def routing(self):
        return self.host.routing

    @property
    def engine(self):
        return self.host.engine

    @property
    def metrics(self):
        return self.host.metrics

    @property
    def state(self):
        return self.host.state

    @property
    def degraded(self) -> bool:
        return self.host.degraded

    @property
    def degraded_reason(self) -> Optional[str]:
        return self.host.degraded_reason

    @property
    def _applied(self) -> Dict[str, Dict[str, Any]]:
        return self.host._applied

    def handle_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one protocol request and return the response object."""
        return self.host.handle_request(request)

    def _record_applied(
        self, rid: Optional[str], outcome: Dict[str, Any]
    ) -> None:
        self.host._applied.record(rid, outcome)

    def prometheus_text(self) -> str:
        """Service + engine metrics in Prometheus text exposition format."""
        return self.host.prometheus_text()

    # ------------------------------------------------------------------ #
    # Asyncio front end
    # ------------------------------------------------------------------ #

    async def start_unix(self, path: Union[str, Path]) -> None:
        """Listen on a unix socket.

        A pre-existing socket file is probed before binding: if a live
        broker still answers on it, refuse with a clear error (two
        servers must never share a path); a stale leftover from a crash
        or SIGKILL is removed and the path reused. The file is unlinked
        again on clean shutdown, so only unclean exits leave one behind.
        """
        sock_path = Path(path)
        if sock_path.exists():
            clear_stale_socket(sock_path)
        self._init_async()
        self._server = await asyncio.start_unix_server(
            self._client_connected, path=str(sock_path)
        )
        self._unix_path = sock_path

    async def start_tcp(self, host: str, port: int) -> None:
        """Listen on a TCP address."""
        self._init_async()
        self._server = await asyncio.start_server(
            self._client_connected, host=host, port=port
        )

    def _init_async(self) -> None:
        keep_recv_buffers_on_heap()
        self._queue = asyncio.Queue()
        self._stopping = asyncio.Event()
        self._worker_task = asyncio.create_task(self._worker())

    async def start_metrics_http(self, host: str, port: int) -> None:
        """Start a minimal HTTP listener serving ``GET /metrics``.

        One-shot, dependency-free Prometheus scrape endpoint: each
        connection gets one response (``Connection: close``). Runs on the
        broker's event loop; rendering reads engine state between worker
        batches, so scrapes observe consistent counters.
        """
        self._metrics_server = await asyncio.start_server(
            self._metrics_client, host=host, port=port
        )

    async def _metrics_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            if not request_line:
                return
            parts = request_line.decode("latin-1").split()
            path = parts[1] if len(parts) >= 2 else "/"
            while True:
                header = await reader.readline()
                if not header or header in (b"\r\n", b"\n"):
                    break
            if path in ("/metrics", "/"):
                body = self.prometheus_text().encode()
                status = "200 OK"
                ctype = "text/plain; version=0.0.4; charset=utf-8"
            else:
                body = b"not found\n"
                status = "404 Not Found"
                ctype = "text/plain; charset=utf-8"
            writer.write(
                (
                    f"HTTP/1.1 {status}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
                + body
            )
            await writer.drain()
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            await self._close_writer(writer)

    async def serve_forever(self) -> None:
        """Serve until a ``shutdown`` op (or :meth:`request_shutdown`)."""
        if self._server is None:
            raise ReproError("server not started")
        assert self._stopping is not None
        await self._stopping.wait()
        # aclose drains the queue, so the shutdown acknowledgement and any
        # queued responses are flushed before the worker stops.
        await self.aclose()

    def request_shutdown(self) -> None:
        """Ask the serve loop to stop (thread-unsafe; call on the loop)."""
        if self._stopping is not None:
            self._stopping.set()

    async def aclose(self) -> None:
        """Close the listener, drain the queue, stop the worker, flush
        persistence. Queued requests are answered before the worker is
        cancelled, so a committed op is never left unacknowledged."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._unix_path is not None:
            # Clean shutdown leaves no stale socket file behind.
            self._unix_path.unlink(missing_ok=True)
            self._unix_path = None
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
            self._metrics_server = None
        if self._worker_task is not None:
            if self._queue is not None:
                try:
                    await asyncio.wait_for(self._queue.join(), timeout=10.0)
                except asyncio.TimeoutError:  # pragma: no cover - defensive
                    logger.warning(
                        "broker queue did not drain within 10s; "
                        "cancelling worker with requests pending"
                    )
            self._worker_task.cancel()
            try:
                await self._worker_task
            except asyncio.CancelledError:
                pass
            self._worker_task = None
        if self._queue is not None:
            # Close writers parked behind EOF sentinels the (now stopped)
            # worker never reached.
            while not self._queue.empty():
                _, prebuilt, writer = self._queue.get_nowait()
                self._queue.task_done()
                if prebuilt is _EOF:
                    await self._close_writer(writer)
        self.host.close()

    async def _client_connected(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.connections += 1
        assert self._queue is not None
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = decode(line)
                except ProtocolError as exc:
                    # Pre-built error keeps per-connection ordering.
                    await self._queue.put(
                        (None, error_response({}, str(exc),
                                              code="protocol"), writer)
                    )
                    continue
                await self._queue.put((request, None, writer))
        except (OSError, asyncio.IncompleteReadError):
            # OSError, not just ConnectionResetError: a peer that slams
            # the connection shut mid-response surfaces as BrokenPipeError
            # on the reader once connection_lost propagates the transport
            # error (found by the chaos campaign's drop_after_send fault).
            pass
        except asyncio.CancelledError:
            # Loop teardown (asyncio.run) cancels handlers still parked in
            # readline; returning quietly avoids a logged traceback from
            # StreamReaderProtocol's done-callback.
            pass
        finally:
            # Don't close the writer here: a client that half-closes its
            # write side after pipelining requests still expects the queued
            # responses. The worker closes the writer when it reaches this
            # sentinel, i.e. after everything queued before EOF is flushed.
            self._queue.put_nowait((None, _EOF, writer))

    @staticmethod
    async def _close_writer(writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
            await writer.wait_closed()
        except Exception:
            pass

    async def _worker(self) -> None:
        assert self._queue is not None
        while True:
            batch = [await self._queue.get()]
            while (len(batch) < self.batch_max
                   and not self._queue.empty()):
                batch.append(self._queue.get_nowait())
            try:
                requests = sum(
                    1 for _, prebuilt, _ in batch if prebuilt is not _EOF
                )
                if requests:
                    self.metrics.record_batch(requests)
                writers = []
                eof_writers = []
                for request, prebuilt, writer in batch:
                    if prebuilt is _EOF:
                        eof_writers.append(writer)
                        continue
                    try:
                        response = (prebuilt if request is None
                                    else self.handle_request(request))
                        if not writer.is_closing():
                            writer.write(encode(response))
                            if writer not in writers:
                                writers.append(writer)
                    except Exception:  # pragma: no cover - defensive
                        # handle_request catches everything itself; this
                        # guards encode/write so one bad request can never
                        # kill the worker (and with it the whole broker).
                        logger.exception("broker worker request failed")
                for writer in writers:
                    try:
                        await writer.drain()
                    except (ConnectionResetError, RuntimeError):
                        pass
                for writer in eof_writers:
                    await self._close_writer(writer)
            finally:
                for _ in batch:
                    self._queue.task_done()
