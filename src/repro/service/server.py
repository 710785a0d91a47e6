"""The service front end: connections, their two framings, and the
broker server (``repro serve``).

Every listener that serves many clients — the broker's unix/TCP socket,
its ``--metrics-port`` and the fleet's HTTP gateway
(:mod:`repro.fleet.gateway`) — is the same :class:`Connection`,
answered in its reader: the bytes a read delivers run one pass that
cuts whole requests off the buffer, has the server answer them
(``server._serve(batch, conn)``) in request order, and sends the answer
with one write. A task runs only where the server must await an answer
(the gateway's worker-pool runs): a serial client costs no task wake-up
(a handler task cost one per request, ~3 us of a 17 us round trip).

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
    Any, Awaitable, Deque, Dict, List, NamedTuple, Optional, Set, Tuple,
    Union,
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
#: Parsed requests one busy connection may have waiting. The reader
#: stops reading the socket at this depth (memory per connection is
#: bounded by it, not by how fast the client writes).
_READAHEAD = 32
#: Most requests one pass answers with one write: it bounds how
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
# A connection: reader -> pump -> server -> one write per batch
# ---------------------------------------------------------------------- #


class Connection(asyncio.Protocol):
    """One client connection, answered in its reader.

    Unless the connection is busy, bytes that arrive run one *pass*: up
    to ``_BATCH_MAX`` whole requests are cut off ``_buf``, answered by
    ``server._serve(batch, conn)`` — ``bytes``, or an awaitable of them
    that a task awaits — and sent with one write. It is busy while that
    task runs, while its next pass is scheduled (one batch per pass) and
    while writes are stalled; what arrives meanwhile is parsed into
    ``ahead``, and at ``_READAHEAD`` requests reading stops. After the
    last word — the client is done sending, the connection is gone, a
    request asked to close, or what follows cannot be framed — what was
    parsed before it is answered, then the connection closes.

    ``server`` also counts ``readahead_full`` and keeps its open
    ``connections`` (a set). A framing is a subclass with :meth:`_next`
    and :meth:`_leftover`; a ``bytes`` request is the answer to one it
    had to refuse.
    """

    _transport: asyncio.Transport

    def __init__(self, server: Any):
        self.server = server
        #: Parsed while the connection was busy, not yet answered.
        self.ahead: Deque[Any] = deque()
        self._buf = bytearray()   # received, not yet cut or parsed
        self._ended = False       # past the last word nothing is parsed
        self._writable = True     # the transport's write buffer has room
        #: The scheduled pass, or the task awaiting an answer.
        self._busy: Union[asyncio.Handle, asyncio.Task, None] = None
        #: Set by :func:`close_connections`, resolved on close.
        self._closed: Optional[asyncio.Future] = None

    def _next(self) -> Any:
        """Cut one request off ``_buf`` (calling :meth:`_end` after the
        last one); ``None`` if it holds no whole one yet."""
        raise NotImplementedError

    def _leftover(self) -> Any:
        """What ``_buf`` means once the client is done sending: a last
        item to answer, or ``None``."""
        raise NotImplementedError

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self._transport = transport
        self.server.connections.add(self)

    def data_received(self, data: bytes) -> None:
        if not self._ended:     # nothing is read past the last word
            self._buf += data
            if self._busy is None and self._writable:
                self._pump()
            else:
                self._parse_ahead()

    def eof_received(self) -> bool:
        if not self._ended:
            self._end(self._leftover())
            self._kick()
        return True     # half-closed: what is parsed still gets answered

    def connection_lost(self, exc: Optional[Exception]) -> None:
        # Nothing more is answered; an answer being awaited still runs
        # to its end (its ops commit: a lost ack).
        self.finish()
        if not isinstance(self._busy, asyncio.Task):
            self._close()

    def pause_writing(self) -> None:
        self._writable = False
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._writable = True
        self._kick()

    def _pump(self) -> None:
        """One pass: answer up to ``_BATCH_MAX`` requests, one write."""
        self._busy = None
        if not self._writable:
            return      # resume_writing kicks
        batch = self._cut()
        answer = self.server._serve(batch, self) if batch else b""
        if not isinstance(answer, bytes):
            self._busy = asyncio.create_task(self._awaited(answer))
        else:
            self._done(answer)

    async def _awaited(self, answer: Awaitable[bytes]) -> None:
        """The end of a pass whose answer is awaited, in its task."""
        try:
            data = await answer
        except BaseException:   # cancelled by close_connections, or failed
            self._busy = None
            self._close()
            raise
        self._busy = None
        self._done(data)

    def _done(self, answer: bytes) -> None:
        """Send a pass's answer (a lost transport drops it); schedule the
        next pass, or close after the last word; read again if room."""
        self._transport.write(answer)
        if self.ahead:
            self._kick()
        elif self._ended:
            self._close()
        if self._writable and not self._ended and len(self.ahead) < _READAHEAD:
            self._transport.resume_reading()

    def _cut(self) -> List[Any]:
        """Up to ``_BATCH_MAX`` requests: those parsed ahead, then whole
        ones off ``_buf``; a full batch parses the rest ahead."""
        ahead, batch = self.ahead, []
        while len(batch) < _BATCH_MAX:
            if ahead:
                batch.append(ahead.popleft())
            elif self._ended or (request := self._next()) is None:
                return batch
            else:
                batch.append(request)
        self._parse_ahead()
        return batch

    def _parse_ahead(self) -> None:
        """Move whole requests from ``_buf`` to ``ahead``; stop reading
        when that fills it."""
        ahead = self.ahead
        while not self._ended and len(ahead) < _READAHEAD:
            request = self._next()
            if request is None:
                return
            ahead.append(request)
            if len(ahead) == _READAHEAD:
                self.server.readahead_full += 1
                self._transport.pause_reading()

    def _kick(self) -> None:
        """Schedule a pass unless one is scheduled or an answer awaited."""
        if self._busy is None:
            self._busy = asyncio.get_running_loop().call_soon(self._pump)

    def _end(self, last: Optional[bytes] = None) -> None:
        """Parse nothing more; answer ``last`` after what is parsed."""
        if not self._ended:
            self._ended = True
            if last is not None:
                self.ahead.append(last)

    def finish(self) -> None:
        """Answer nothing the client sent after the batch being answered,
        then close (a server's ``shutdown``)."""
        self.ahead.clear()
        self._end()

    def _close(self) -> None:
        self.finish()
        self.server.connections.discard(self)
        self._transport.close()
        if self._closed is not None and not self._closed.done():
            self._closed.set_result(None)


async def close_connections(
    connections: Set[Connection], timeout: float = 10.0
) -> None:
    """Shut ``connections`` down without dropping an answer: stop every
    reader, answer what is parsed — a committed op is never left
    unacknowledged — and cancel what is still awaited after ``timeout``
    seconds."""
    if not connections:
        return
    for conn in list(connections):
        conn._transport.pause_reading()
        conn._closed = asyncio.get_running_loop().create_future()
        conn._end()
        conn._kick()
    _, pending = await asyncio.wait(
        [conn._closed for conn in connections], timeout=timeout
    )
    if pending:
        logger.warning("%d connection(s) did not drain within %gs; "
                       "cancelling their answers", len(pending), timeout)
        for conn in list(connections):
            if isinstance(conn._busy, asyncio.Task):
                conn._busy.cancel()     # it closes the connection
            else:
                conn._close()
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
        if not request.keep_alive:
            self._end()
        return request

    def _leftover(self) -> Optional[bytes]:
        if self._buf.strip(b"\r\n"):
            return self._refusal(400, "connection closed mid-request")
        return None


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
        rendering reads engine state between passes, so scrapes observe
        consistent counters.
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
        persistence. Parsed requests are answered before any connection
        is closed, so a committed op is never left unacknowledged."""
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

    def _serve(self, batch: List[Any], conn: Connection) -> bytes:
        """Answer ``batch`` in request order, as the bytes of one
        write. One pass of one connection is what the ``batching``
        stats call a batch; a ``shutdown`` inside it does not stop the
        requests behind it from being answered."""
        scrape = isinstance(conn, HttpConnection)
        out: List[bytes] = []
        for item in batch:
            try:
                if isinstance(item, bytes):     # refused by the framing
                    out.append(item)
                elif scrape:
                    out.append(self._scrape(item))
                else:
                    out.append(encode(self.handle_request(item)))
            except Exception:  # pragma: no cover - defensive
                # handle_request catches everything itself; this guards
                # encode so one bad request can never take down its
                # connection (and the answers behind it).
                logger.exception("broker request failed")
        if not scrape:
            self.metrics.record_batch(len(out))
        return b"".join(out)

    def _scrape(self, request: _Request) -> bytes:
        if request.path in ("/metrics", "/"):
            return _encode_response(
                200, self.prometheus_text(), request.keep_alive
            )
        return _encode_response(404, "not found\n", request.keep_alive)
