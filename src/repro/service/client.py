"""The one blocking client of the broker protocol.

:mod:`repro.service.protocol` says what the wire carries; this module is
how a client speaks it, over every transport the repo serves:

* the broker's unix or TCP socket and a fleet worker's RPC socket —
  :class:`JsonLines`, one JSON object per line;
* the gateway — :class:`HttpOp`, the same object as the body of a
  keep-alive HTTP/1.1 ``POST /v1/op`` carrying the tenant's API key.

A transport is a *framing*: ``frame(payload) -> bytes`` and
``read(fh) -> dict``. Everything else — sequence numbers, the pipelining
window (``send`` / ``flush`` / ``recv``), ``request`` / ``check``, the
at-least-once ``request_with_retry`` loop that pairs with the server's
``rid`` idempotency, ``reconnect`` — is :class:`BrokerClient` and exists
once. :class:`repro.fleet.client.GatewayClient` adds what only a gateway
has; :class:`repro.fleet.workers.WorkerClient` puts its lock and its
"any failure means the worker died" rule on top of one of these.
"""

from __future__ import annotations

import json
import random
import socket
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, Union

from ..errors import ReproError
from .protocol import encode, retry_backoff

__all__ = ["BrokerClient", "HttpOp", "JsonLines"]


def _json_object(data: bytes) -> Dict[str, Any]:
    response = json.loads(data.decode("utf-8"))
    if not isinstance(response, dict):
        raise ReproError(f"server sent a non-object: {response!r}")
    return response


def _dial(connect: Callable[[], Any], timeout: float, failure: str) -> Any:
    """``connect()``, retried while the server refuses, for ``timeout``
    seconds."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return connect()
        except OSError:
            if time.monotonic() >= deadline:
                raise ReproError(
                    f"{failure} within {timeout:.0f}s"
                ) from None
            time.sleep(0.05)


class JsonLines:
    """One JSON object per line, both ways."""

    frame = staticmethod(encode)

    @staticmethod
    def read(fh) -> Dict[str, Any]:
        line = fh.readline()
        if not line:
            raise ReproError("server closed the connection")
        return _json_object(line)


class HttpOp:
    """``POST /v1/op`` per object on one keep-alive HTTP/1.1 connection.

    The gateway answers a connection's requests strictly in order, so
    requests may be pipelined exactly as on the line transports.
    """

    def __init__(self, host: str, api_key: str):
        self._head = (
            f" HTTP/1.1\r\nHost: {host}\r\n"
            "Content-Type: application/json\r\n"
            f"X-API-Key: {api_key}\r\nContent-Length: "
        )

    def request(self, method: str, path: str, body: bytes = b"") -> bytes:
        """Any request of this connection as wire bytes."""
        return (
            f"{method} {path}{self._head}{len(body)}\r\n\r\n".encode() + body
        )

    def frame(self, payload: Dict[str, Any]) -> bytes:
        return self.request("POST", "/v1/op", encode(payload))

    @staticmethod
    def read_response(fh) -> Tuple[int, str, bytes]:
        """``(status, content type, body)`` of the next response."""
        status = fh.readline().split()
        if len(status) < 2:
            raise ReproError("server closed the connection")
        length, ctype = 0, ""
        for line in iter(fh.readline, b""):
            name, colon, value = line.partition(b":")
            if not colon:
                break       # the blank line: end of the head
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"content-type":
                ctype = value.strip().decode("latin-1")
        return int(status[1]), ctype, fh.read(length)

    def read(self, fh) -> Dict[str, Any]:
        status, _, body = self.read_response(fh)
        if status in (401, 403):
            raise ReproError(
                f"gateway rejected the API key: "
                f"{body.decode(errors='replace')}"
            )
        try:
            return _json_object(body)
        except ValueError:
            raise ReproError(
                f"gateway returned non-JSON (status {status}): "
                f"{body[:200]!r}"
            ) from None


class BrokerClient:
    """Blocking, pipelining client for one connection.

    Remembers its connect parameters, so a dropped connection can be
    re-established with :meth:`reconnect` — the building block of
    :meth:`request_with_retry`, the at-least-once retry loop that pairs
    with the server's ``rid`` idempotency (see
    :mod:`repro.service.protocol`).
    """

    #: How one object crosses this connection (see the module docstring).
    framing: Any = JsonLines

    def __init__(
        self,
        *,
        socket_path: Optional[Union[str, Path]] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout: float = 30.0,
    ):
        if (socket_path is None) == (host is None):
            raise ReproError("pass exactly one of socket_path or host/port")
        self._socket_path = socket_path
        self._host = host
        self._port = port
        self._timeout = timeout
        self._seq = 0
        self._connect()

    def _connect(self) -> None:
        if self._socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(self._timeout)
                sock.connect(str(self._socket_path))
            except OSError:
                sock.close()
                raise
        else:
            assert self._port is not None
            sock = socket.create_connection(
                (self._host, self._port), timeout=self._timeout
            )
            # A window of small requests must not wait on Nagle for the
            # previous one's ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._rfile = sock.makefile("rb")
        #: Framed requests queued by ``send``, written by ``flush`` with
        #: one ``sendall``.
        self._out: List[bytes] = []
        # Requests on the wire whose responses have not been read yet
        # (pipelined I/O; ``None`` for raw bytes); a fresh connection
        # has none by definition.
        self._pending: Deque[Optional[int]] = deque()

    def reconnect(self, *, timeout: float = 10.0) -> None:
        """Tear the connection down and dial again, retrying until the
        server accepts (it may be mid-restart) or ``timeout`` expires."""
        self.close()
        _dial(self._connect, timeout, "server did not accept a reconnect")

    @classmethod
    def wait_for_unix(
        cls,
        socket_path: Union[str, Path],
        *,
        timeout: float = 10.0,
        **kwargs,
    ) -> "BrokerClient":
        """Connect to a unix socket, retrying until the server is up."""
        return _dial(
            lambda: cls(socket_path=socket_path, **kwargs), timeout,
            f"broker did not come up on {socket_path}",
        )

    def send(self, op: str, **fields: Any) -> int:
        """Queue one op on the wire without waiting for its response.

        Returns the request's sequence number; pair with :meth:`flush`
        and :meth:`recv` for pipelined I/O. The server answers each
        connection's requests in order, so responses are consumed FIFO.
        """
        self._seq += 1
        self._out.append(
            self.framing.frame({"op": op, "id": self._seq, **fields})
        )
        self._pending.append(self._seq)
        return self._seq

    def send_bytes(self, data: bytes, *, responses: int = 1) -> None:
        """Queue ``data`` as it is — the door for callers that frame
        their own requests (no ``id``, malformed on purpose, a request
        dribbled out in pieces) — expecting ``responses`` answers."""
        self._out.append(data)
        self._pending.extend([None] * responses)

    def flush(self) -> None:
        """Push every queued request onto the socket."""
        data = b"".join(self._out)
        self._out.clear()
        self._sock.sendall(data)

    def half_close(self) -> None:
        """Flush, then tell the server nothing more will be sent; the
        responses still owed can be read until it closes."""
        self.flush()
        self._sock.shutdown(socket.SHUT_WR)

    def recv(self, seq: Optional[int] = None) -> Dict[str, Any]:
        """Read the response of the oldest in-flight request.

        ``seq`` (when given) must name that request — responses are
        strictly FIFO per connection.
        """
        if not self._pending:
            raise ReproError("recv with no request in flight")
        expect = self._pending.popleft()
        if seq is not None and seq != expect:
            raise ReproError(
                f"recv out of order: oldest in-flight request is "
                f"{expect}, asked for {seq}"
            )
        response = self.framing.read(self._rfile)
        if expect is not None and response.get("id") not in (None, expect):
            raise ReproError(
                f"response id {response.get('id')} does not match "
                f"request id {expect}"
            )
        return response

    @property
    def in_flight(self) -> int:
        """Number of sent requests whose responses are still unread."""
        return len(self._pending)

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one op and return the matching response."""
        seq = self.send(op, **fields)
        self.flush()
        return self.recv(seq)

    def check(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Like :meth:`request` but raises on ``ok: false`` responses."""
        response = self.request(op, **fields)
        if not response.get("ok"):
            raise ReproError(
                f"broker op {op!r} failed: {response.get('error')}"
            )
        return response

    def request_with_retry(
        self,
        op: str,
        *,
        rid: str,
        max_attempts: int = 6,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        rng: Optional[random.Random] = None,
        reconnect_timeout: float = 10.0,
        **fields: Any,
    ) -> Dict[str, Any]:
        """Send an idempotent mutation, retrying across dropped
        connections with full-jitter exponential backoff.

        Every attempt carries the same ``rid``, so the server applies the
        mutation at most once no matter how many times the wire eats the
        acknowledgement; the response may carry ``"duplicate": true``
        when an earlier attempt already committed. Transport failures
        (connection reset, EOF, refused reconnect) are retried; an
        application-level error response is returned to the caller as-is.
        """
        last_exc: Optional[Exception] = None
        for attempt in range(max_attempts):
            if attempt:
                time.sleep(retry_backoff(
                    attempt - 1, base=backoff_base, cap=backoff_cap,
                    rng=rng,
                ))
                try:
                    self.reconnect(timeout=reconnect_timeout)
                except ReproError as exc:
                    last_exc = exc
                    continue
            try:
                return self.request(op, rid=rid, **fields)
            except (ReproError, OSError, ValueError) as exc:
                # ValueError covers reads on a file object whose
                # connection was already torn down (and JSONDecodeError).
                last_exc = exc
        raise ReproError(
            f"broker op {op!r} (rid {rid!r}) failed after "
            f"{max_attempts} attempts: {last_exc}"
        )

    def close(self) -> None:
        for part in (self._rfile, self._sock):
            try:
                part.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def __enter__(self) -> "BrokerClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
