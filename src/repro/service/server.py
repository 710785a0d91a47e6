"""The service front end: connections, their two framings, and the
broker server (``repro serve``).

Every listener that serves many clients — the broker's unix/TCP socket,
its ``--metrics-port`` and the fleet's HTTP gateway
(:mod:`repro.fleet.gateway`) — is the same :class:`Connection`: a reader
parsing ahead into a bounded FIFO, and one handler task that has its
server answer what is queued (``await server._serve(batch, conn)``) in
request order with one write. A serial client is the batch-of-one case
of the same code, and pays one task wake-up per request, as if the
handler read the socket itself (a reader *task* was measured: it costs
a second wake-up, 40 us per request on the bench host).

Listeners differ by a **framing**, how one request is cut off the byte
stream — :class:`LineConnection` (the broker protocol: one JSON object
per line) and :class:`HttpConnection` — and by the **server** that
answers a batch: :class:`BrokerServer` here, an
:class:`~repro.service.host.EngineHost` with listeners that runs the
CPU-bound engine on the event-loop thread, one request at a time, so
every decision is linearisable without locks; ``GatewayServer`` in the
fleet. :func:`close_connections` is the shutdown both use.
"""

from __future__ import annotations

import asyncio
import json
import logging
import re
import socket as socket_module
import stat
from collections import deque
from pathlib import Path
from typing import (
    Any, Deque, Dict, List, NamedTuple, Optional, Set, Tuple, Union,
)
from urllib.parse import urlsplit

from ..errors import ReproError
from .host import EngineHost
from .protocol import ProtocolError, decode, encode, error_response

__all__ = [
    "BrokerServer",
    "Connection",
    "HttpConnection",
    "LineConnection",
    "clear_stale_socket",
    "close_connections",
    "keep_recv_buffers_on_heap",
]

logger = logging.getLogger(__name__)

#: Largest request any framing accepts: an HTTP body, or one JSON line.
_MAX_BODY = 8 * 1024 * 1024
_MAX_HEAD = 64 * 1024
#: Parsed requests one connection may have waiting for its handler. The
#: reader stops reading the socket at this depth (memory per connection
#: is bounded by it, not by how fast the client writes).
_READAHEAD = 32
#: Most requests one handler pass answers with one write: it bounds how
#: many acks wait on one batch's last op, and how long one connection
#: holds the event loop (or its tenant's lock) while another waits. A
#: constant, not an option: it only binds above the depth clients
#: pipeline at, and no deployment has a reason to choose differently.
_BATCH_MAX = 16


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


# ---------------------------------------------------------------------- #
# A connection: reader -> bounded FIFO -> one handler -> one write
# ---------------------------------------------------------------------- #


class Connection(asyncio.Protocol):
    """One client connection: bytes in, a bounded FIFO of parsed
    requests in between, one handler task taking batches out.

    The transport calls :meth:`data_received` whenever bytes arrive —
    also while the handler awaits a job — and every complete request in
    them is parsed and queued at once. At ``_READAHEAD`` queued requests
    the transport is paused (what has been received but not parsed
    waits in ``_buf``; the kernel's socket buffer does the rest), and
    resumed when the handler has made room. A ``bytes`` item is the
    answer to a request the reader had to refuse, sent in its turn. The
    FIFO's last item is ``None``, the reader's last word: the client is
    done sending, the connection is gone, the last request asked to
    close, or what follows cannot be framed.

    ``server`` answers the batches (``async _serve(batch, conn) -> stays
    open``), counts ``readahead_full`` and keeps its open ``connections``
    (a set) for :func:`close_connections`. A framing is a subclass with
    :meth:`_next`, :meth:`_leftover` and, optionally, :meth:`_closes`.
    """

    def __init__(self, server: Any):
        self.server = server
        self.fifo: Deque[Any] = deque()
        self._transport: Optional[asyncio.Transport] = None
        self._task: Optional[asyncio.Task] = None
        self._buf = bytearray()   # received, not yet a whole request
        self._ended = False       # the last word is queued
        self._paused = False      # not reading: the FIFO is full
        self._writable = True     # the transport's write buffer has room
        self._lost = False
        #: The handler, when it waits (for a request, or for the write
        #: buffer to drain).
        self._waiter: Optional[asyncio.Future] = None

    def _next(self) -> Any:
        """Cut one request off the front of ``_buf``; ``None`` if it
        holds no whole one yet, or after calling :meth:`_end`."""
        raise NotImplementedError

    def _leftover(self) -> Any:
        """What ``_buf`` means once the client is done sending: a last
        item to queue, or ``None``."""
        raise NotImplementedError

    def _closes(self, request: Any) -> bool:
        """Whether ``request`` is the last this connection serves."""
        return False

    # -- transport side ------------------------------------------------ #

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self._transport = transport
        self._task = asyncio.get_running_loop().create_task(self._handle())
        connections = self.server.connections
        connections.add(self)
        self._task.add_done_callback(lambda _: connections.discard(self))

    def data_received(self, data: bytes) -> None:
        if not self._ended:     # nothing is read past the last word
            self._buf += data
            self._parse()

    def eof_received(self) -> bool:
        if not self._ended:
            self._end(self._leftover())
        return True     # half-closed: what is queued still gets answered

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._lost = True
        self._end()
        self._wake()

    def pause_writing(self) -> None:
        self._writable = False

    def resume_writing(self) -> None:
        self._writable = True
        self._wake()

    def _parse(self) -> None:
        """Move every complete request from ``_buf`` to the FIFO."""
        while not self._ended:
            if len(self.fifo) >= _READAHEAD:
                if not self._paused:
                    self._paused = True
                    self.server.readahead_full += 1
                    assert self._transport is not None
                    self._transport.pause_reading()
                return
            request = self._next()
            if request is None:
                return
            self.fifo.append(request)
            self._wake()
            if self._closes(request):
                self._end()

    def _end(self, last: Optional[bytes] = None) -> None:
        """Queue the last word, after the answer ``last`` if given."""
        if not self._ended:
            self._ended = True
            if last is not None:
                self.fifo.append(last)
            self.fifo.append(None)
            self._wake()

    def _wake(self) -> None:
        if self._waiter is not None and not self._waiter.done():
            self._waiter.set_result(None)

    # -- handler side -------------------------------------------------- #

    async def _handle(self) -> None:
        """Take what the reader has queued, have the server answer it
        as one batch, until something ends the connection."""
        try:
            while await self.server._serve(await self.take(), self):
                pass
        except ConnectionError:
            pass
        finally:
            assert self._transport is not None
            self._transport.close()

    async def _wait(self) -> None:
        self._waiter = asyncio.get_running_loop().create_future()
        try:
            await self._waiter
        finally:
            self._waiter = None

    async def take(self) -> List[Any]:
        """Everything queued, at most ``_BATCH_MAX``; waits for one."""
        while not self.fifo:
            await self._wait()
        fifo = self.fifo
        batch = [fifo.popleft() for _ in range(min(len(fifo), _BATCH_MAX))]
        if self._paused and not self._ended:
            self._paused = False
            assert self._transport is not None
            self._transport.resume_reading()
            self._parse()
        return batch

    async def send(self, data: bytes) -> None:
        """Write, and wait while the transport's buffer is over its
        high-water mark (what ``StreamWriter.drain`` does)."""
        if self._lost:
            raise ConnectionResetError("connection lost")
        assert self._transport is not None
        self._transport.write(data)
        while not self._writable and not self._lost:
            await self._wait()


async def close_connections(
    connections: Set[Connection], timeout: float = 10.0
) -> None:
    """Shut ``connections`` down without dropping an answer: stop every
    reader, let every handler answer what is already queued — so a
    committed op is never left unacknowledged, and the connection that
    asked for the shutdown gets its response — and cancel only the
    handlers still busy after ``timeout`` seconds."""
    tasks = []
    for conn in list(connections):
        conn._transport.pause_reading()
        conn._end()
        tasks.append(conn._task)
    if not tasks:
        return
    _, pending = await asyncio.wait(tasks, timeout=timeout)
    if pending:
        logger.warning(
            "%d connection(s) did not drain within %gs; cancelling "
            "their handlers with requests pending", len(pending), timeout,
        )
        for task in pending:
            task.cancel()
        await asyncio.wait(pending)


# ---------------------------------------------------------------------- #
# Framing: one JSON object per line
# ---------------------------------------------------------------------- #


class LineConnection(Connection):
    """The broker protocol's framing: one JSON request object per line.

    A line that is not one is answered with a ``protocol`` error in its
    turn (pre-encoded, which keeps per-connection ordering) and the
    connection stays open; blank lines are skipped; a last line without
    a newline is still a request. Only a line longer than ``_MAX_BODY``
    ends the connection, after its error: where the next request starts
    is unknown.
    """

    #: Bytes at the front of ``_buf`` already searched for a newline.
    _scanned = 0

    @staticmethod
    def _decode(line: bytearray) -> Union[Dict[str, Any], bytes]:
        try:
            return decode(line)
        except ProtocolError as exc:
            return encode(error_response({}, str(exc), code="protocol"))

    def _next(self) -> Union[Dict[str, Any], bytes, None]:
        buf = self._buf
        while True:
            end = buf.find(b"\n", self._scanned)
            if (end if end >= 0 else len(buf)) > _MAX_BODY:
                self._end(encode(error_response(
                    {}, f"request line longer than {_MAX_BODY} bytes",
                    code="protocol",
                )))
                return None
            if end < 0:
                self._scanned = len(buf)
                return None
            self._scanned = 0
            line = buf[:end]
            del buf[:end + 1]
            if line.strip():
                return self._decode(line)

    def _leftover(self) -> Union[Dict[str, Any], bytes, None]:
        return self._decode(self._buf) if self._buf.strip() else None


# ---------------------------------------------------------------------- #
# Framing: HTTP/1.1
# ---------------------------------------------------------------------- #

_REASONS = {200: "OK", 400: "Bad Request", 401: "Unauthorized",
            403: "Forbidden", 404: "Not Found", 405: "Method Not Allowed",
            413: "Payload Too Large",
            431: "Request Header Fields Too Large",
            503: "Service Unavailable"}
_HEAD_END = re.compile(rb"\r?\n\r?\n")

_Answer = Tuple[int, Any]


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message

    def answer(self) -> _Answer:
        return self.status, {"ok": False, "error": self.message}


class _Request(NamedTuple):
    method: str
    path: str
    query: str
    keep_alive: bool
    headers: Dict[str, str]
    body: bytes


def _parse_head(
    head: bytes
) -> Tuple[str, str, str, bool, Dict[str, str], int]:
    """``(method, path, query, keep_alive, headers, body length)`` of
    one request head (request line + header lines, blank line
    excluded)."""
    lines = head.decode("latin-1").split("\n")
    parts = lines[0].split()
    if len(parts) < 3:
        raise _HttpError(400, "malformed request line")
    try:
        target = urlsplit(parts[1])
    except ValueError:
        raise _HttpError(400, "malformed request target") from None
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, colon, value = line.partition(":")
        if colon:
            headers[name.strip().lower()] = value.strip()
    keep_alive = (parts[2].upper() != "HTTP/1.0"
                  and headers.get("connection", "").lower() != "close")
    try:
        length = int(headers.get("content-length") or 0)
    except ValueError:
        length = -1
    if length < 0:
        raise _HttpError(400, "malformed Content-Length header")
    if length > _MAX_BODY:
        raise _HttpError(413, "request body too large")
    return (parts[0].upper(), target.path, target.query, keep_alive,
            headers, length)


def _encode_response(status: int, payload: Any, keep_alive: bool) -> bytes:
    if isinstance(payload, str):
        body = payload.encode("utf-8")
        ctype = "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = (json.dumps(payload, separators=(",", ":")) + "\n").encode()
        ctype = "application/json"
    return (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
        f"Content-Type: {ctype}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}"
        "\r\n\r\n"
    ).encode("latin-1") + body


class HttpConnection(Connection):
    """HTTP/1.1 framing: keep-alive, ``Content-Length`` bodies; requests
    are :class:`_Request`. What cannot be framed (a malformed or endless
    head, an oversized body, a connection closed mid-request) is answered
    with its 4xx after everything before it, and ends the connection.
    """

    #: The parsed head at the front of ``_buf`` while its body is still
    #: arriving (some clients send the two separately), with where the
    #: body starts and ends.
    _head: Optional[Tuple[Any, ...]] = None

    @staticmethod
    def _refusal(status: int, message: str) -> bytes:
        return _encode_response(*_HttpError(status, message).answer(), False)

    def _next(self) -> Optional[_Request]:
        buf = self._buf
        if self._head is None:
            if buf[:1] in (b"\r", b"\n"):
                # Empty lines before a request line are ignored.
                del buf[:len(buf) - len(buf.lstrip(b"\r\n"))]
            match = _HEAD_END.search(buf)
            if match is None:
                if len(buf) > _MAX_HEAD:
                    self._end(self._refusal(431, "request head too large"))
                return None
            try:
                *head, length = _parse_head(buf[:match.start()])
            except _HttpError as exc:
                self._end(self._refusal(exc.status, exc.message))
                return None
            self._head = (*head, match.end(), match.end() + length)
        *head, start, end = self._head
        if len(buf) < end:
            return None     # the body is still arriving
        self._head = None
        request = _Request(*head, bytes(buf[start:end]))
        del buf[:end]
        return request

    def _leftover(self) -> Optional[bytes]:
        if self._buf.strip(b"\r\n"):
            return self._refusal(400, "connection closed mid-request")
        return None

    def _closes(self, request: _Request) -> bool:
        return not request.keep_alive


# ---------------------------------------------------------------------- #
# The broker: an EngineHost with listeners
# ---------------------------------------------------------------------- #


class BrokerServer(EngineHost):
    """The channel broker: an :class:`EngineHost` with a socket.

    Takes the host's arguments (``topology_spec``, ``state_dir``,
    ``residency_margin``, ``analysis``, ``fault_plane``) and passes them
    through untouched; the ``shutdown`` op stops :meth:`serve_forever`.
    """

    def __init__(self, topology_spec: Dict[str, Any], **host_kwargs: Any):
        self._server: Optional[asyncio.base_events.Server] = None
        self._metrics_server: Optional[asyncio.base_events.Server] = None
        self._unix_path: Optional[Path] = None
        self._stopping = asyncio.Event()
        self.connections: Set[Connection] = set()
        super().__init__(topology_spec, **host_kwargs)

    @property
    def readahead_full(self) -> int:
        """Counted where ``stats`` and the scrape read it."""
        return self.metrics.readahead_full

    @readahead_full.setter
    def readahead_full(self, value: int) -> None:
        self.metrics.readahead_full = value

    def _client(self) -> LineConnection:
        self.metrics.connections += 1
        return LineConnection(self)

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
        keep_recv_buffers_on_heap()
        self._server = await asyncio.get_running_loop().create_unix_server(
            self._client, path=str(sock_path)
        )
        self._unix_path = sock_path

    async def start_tcp(self, host: str, port: int) -> None:
        """Listen on a TCP address."""
        keep_recv_buffers_on_heap()
        self._server = await asyncio.get_running_loop().create_server(
            self._client, host=host, port=port
        )

    async def start_metrics_http(self, host: str, port: int) -> None:
        """Serve ``GET /metrics`` (Prometheus text) over HTTP.

        Dependency-free scrape endpoint on the broker's event loop;
        rendering reads engine state between handler passes, so scrapes
        observe consistent counters.
        """
        self._metrics_server = await asyncio.get_running_loop().create_server(
            lambda: HttpConnection(self), host=host, port=port
        )

    async def serve_forever(self) -> None:
        """Serve until a ``shutdown`` op (or :meth:`request_shutdown`)."""
        if self._server is None:
            raise ReproError("server not started")
        await self._stopping.wait()
        # aclose drains the connections, so the shutdown acknowledgement
        # and any queued responses are flushed before anything stops.
        await self.aclose()

    def request_shutdown(self) -> None:
        """Ask the serve loop to stop (thread-unsafe; call on the loop)."""
        self._stopping.set()

    async def aclose(self) -> None:
        """Close the listeners, drain the connections, flush
        persistence. Queued requests are answered before any handler is
        cancelled, so a committed op is never left unacknowledged."""
        servers = [s for s in (self._server, self._metrics_server)
                   if s is not None]
        self._server = self._metrics_server = None
        for server in servers:
            server.close()
        if self._unix_path is not None:
            # Clean shutdown leaves no stale socket file behind.
            self._unix_path.unlink(missing_ok=True)
            self._unix_path = None
        await close_connections(self.connections)
        for server in servers:
            await server.wait_closed()
        self.close()

    async def _serve(self, batch: List[Any], conn: Connection) -> bool:
        """Answer ``batch`` in request order with one write; returns
        whether the connection stays open. One handler pass of one
        connection is what the ``batching`` stats call a batch; a
        ``shutdown`` inside it does not stop the requests queued behind
        it from being answered."""
        scrape = isinstance(conn, HttpConnection)
        out: List[bytes] = []
        for item in batch:
            if item is None:    # the reader's last word
                break
            try:
                if isinstance(item, bytes):     # refused by the reader
                    out.append(item)
                elif scrape:
                    out.append(self._scrape(item))
                else:
                    out.append(encode(self.handle_request(item)))
            except Exception:  # pragma: no cover - defensive
                # handle_request catches everything itself; this guards
                # encode so one bad request can never kill its
                # connection's handler (and the answers queued behind it).
                logger.exception("broker request failed")
        if out:
            if not scrape:
                self.metrics.record_batch(len(out))
            await conn.send(b"".join(out))
        return item is not None

    def _scrape(self, request: _Request) -> bytes:
        if request.path in ("/metrics", "/"):
            return _encode_response(
                200, self.prometheus_text(), request.keep_alive
            )
        return _encode_response(404, "not found\n", request.keep_alive)
