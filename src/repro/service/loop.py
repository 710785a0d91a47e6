"""The event loop of the broker and the fleet worker: one ``selectors``
loop, no asyncio.

A broker or worker process answers every request in its reader and
never awaits anything, so it needs an event loop that delivers
readiness and runs callbacks, not coroutines. Importing asyncio costs a
served process ~7 MiB of its ~27: asyncio always imports ``ssl``,
which maps libssl and libcrypto, for a JSON-lines server that never
speaks TLS.

:class:`SelectorLoop` is that loop and :class:`_Transport` the
transport of one accepted socket. The transport makes the calls of a
:class:`~repro.service.server.Connection` that asyncio's would, under
asyncio's rules: ``connection_made`` first, ``data_received`` per read,
``eof_received`` once (reading stops; the connection stays open while
it returns true), ``pause_writing`` above ``_HIGH_WATER`` buffered bytes
and ``resume_writing`` at ``_LOW_WATER``, ``close`` flushes what is
buffered first, ``connection_lost`` last. So the front end is one
implementation under two loops: this one, and asyncio's under the
gateway, whose answers are awaited.
"""

from __future__ import annotations

import logging
import selectors
import socket
import time
from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

__all__ = ["SelectorLoop"]

logger = logging.getLogger(__name__)

#: Bytes one read asks for, into the loop's one buffer: a read
#: allocates nothing (asyncio allocates 256 KiB per ``recv``, see
#: :func:`repro.service.server.keep_recv_buffers_on_heap`).
_READ_SIZE = 64 * 1024
#: asyncio's default write-buffer limits.
_HIGH_WATER = 64 * 1024
_LOW_WATER = _HIGH_WATER // 4
#: Most connections a listener accepts per readiness event.
_ACCEPTS = 100
#: Seconds between ``idle`` calls while nothing happens.
_IDLE_PERIOD = 1.0


class SelectorLoop:
    """Readiness callbacks on sockets, and a FIFO of callbacks.

    ``call_soon`` is the one scheduling call a connection makes.
    :meth:`run` serves until a condition holds; :meth:`wake` is the one
    method another thread may call, to make it look again.
    """

    def __init__(self) -> None:
        self._selector = selectors.DefaultSelector()
        self._ready: Deque[Tuple[Callable[..., Any], Tuple[Any, ...]]] = (
            deque()
        )
        self._read_buffer = bytearray(_READ_SIZE)
        self._read_view = memoryview(self._read_buffer)
        self._transports: set = set()
        self._listeners: list = []
        self._waker, self._wakee = socket.socketpair()
        for sock in (self._waker, self._wakee):
            sock.setblocking(False)
        self._selector.register(self._wakee, selectors.EVENT_READ,
                                self._drain_waker)

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> None:
        self._ready.append((callback, args))

    @property
    def connections(self) -> int:
        """Accepted sockets not closed yet (a closing one flushes
        first)."""
        return len(self._transports)

    def listen(self, sock: socket.socket,
               protocol_factory: Callable[[], Any]) -> None:
        """Accept connections on the bound, listening ``sock``; each
        gets a transport and a protocol from ``protocol_factory``."""
        sock.setblocking(False)
        self._listeners.append(sock)

        def accept(mask: int) -> None:
            for _ in range(_ACCEPTS):
                try:
                    conn, _ = sock.accept()
                except (BlockingIOError, InterruptedError):
                    return
                except OSError as exc:  # pragma: no cover - EMFILE etc.
                    logger.warning("accept on %s failed: %s",
                                   sock.getsockname(), exc)
                    return
                _Transport(self, conn, protocol_factory())

        self._selector.register(sock, selectors.EVENT_READ, accept)

    def wake(self) -> None:
        """Make a :meth:`run` blocked in ``select`` look at its
        condition again (thread-safe)."""
        try:
            self._waker.send(b"\0")
        except (BlockingIOError, OSError):   # already woken, or closed
            pass

    def _drain_waker(self, mask: int) -> None:
        try:
            while self._wakee.recv(4096):
                pass
        except (BlockingIOError, InterruptedError):
            pass

    def run(self, done: Callable[[], bool], *,
            timeout: Optional[float] = None,
            idle: Optional[Callable[[], None]] = None) -> bool:
        """Serve until ``done()`` holds, checked after each round of
        events and callbacks; false if ``timeout`` seconds passed
        first. ``idle()`` runs after each ``_IDLE_PERIOD`` without an
        event."""
        deadline = None if timeout is None else time.monotonic() + timeout
        ready, select = self._ready, self._selector.select
        while not done():
            wait = 0.0 if ready else _IDLE_PERIOD if idle else None
            if deadline is not None:
                left = deadline - time.monotonic()
                if left <= 0:
                    return False
                wait = left if wait is None else min(wait, left)
            events = select(wait)
            for key, mask in events:
                try:
                    key.data(mask)
                except Exception:   # one connection's fault is its own
                    logger.exception("socket callback failed")
            if not events and wait and idle is not None:
                idle()
            for _ in range(len(ready)):
                callback, args = ready.popleft()
                try:
                    callback(*args)
                except Exception:
                    logger.exception("callback failed")
        return True

    def stop_listening(self) -> None:
        """Close every listener: accept no more connections."""
        for sock in self._listeners:
            self._selector.unregister(sock)
            sock.close()
        self._listeners.clear()

    def close(self) -> None:
        """Close every listener and every connection, unflushed."""
        self.stop_listening()
        for transport in list(self._transports):
            transport.abort()
        self._ready.clear()
        self._selector.close()
        self._waker.close()
        self._wakee.close()


class _Transport:
    """One accepted socket, driven by a :class:`SelectorLoop`: the
    transport calls a :class:`~repro.service.server.Connection` makes
    (``write``, ``pause_reading``, ``resume_reading``, ``close``)."""

    def __init__(self, loop: SelectorLoop, sock: socket.socket,
                 protocol: Any):
        sock.setblocking(False)
        if sock.family != socket.AF_UNIX:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._loop = loop
        self._sock = sock
        self._protocol = protocol
        self._out = bytearray()     # written, not yet sent
        self._events = 0            # what the selector watches
        self._paused = False        # pause_reading
        self._eof = False           # the peer is done sending
        self._closing = False       # close() or a failure: read no more
        self._closed = False        # the socket is closed
        self._writing_paused = False
        loop._transports.add(self)
        protocol.connection_made(self)
        self._watch()

    # -- what the protocol calls ---------------------------------------

    def write(self, data: bytes) -> None:
        if not data or self._closing:
            return
        if not self._out:   # the usual case: sent at once, never copied
            try:
                sent = self._sock.send(data)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError as exc:
                self._fail(exc)
                return
            if sent == len(data):
                return
            data = memoryview(data)[sent:]
        self._out += data
        self._watch()
        if len(self._out) > _HIGH_WATER and not self._writing_paused:
            self._writing_paused = True
            self._protocol.pause_writing()

    def pause_reading(self) -> None:
        if not self._paused:
            self._paused = True
            self._watch()

    def resume_reading(self) -> None:
        if self._paused:
            self._paused = False
            self._watch()

    def close(self) -> None:
        """Read no more; close once what is buffered has been sent."""
        if not self._closing:
            self._closing = True
            self._watch()
            if not self._out:
                self._loop.call_soon(self._lost, None)

    def abort(self) -> None:
        """Close now, dropping what is buffered."""
        self._out.clear()
        self._closing = True
        self._lost(None)

    # -- what the loop calls -------------------------------------------

    def _on_event(self, mask: int) -> None:
        if mask & selectors.EVENT_WRITE:
            self._flush()
        if mask & selectors.EVENT_READ and self._events & selectors.EVENT_READ:
            self._read()

    def _read(self) -> None:
        try:
            size = self._sock.recv_into(self._loop._read_buffer)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self._fail(exc)
            return
        if size:
            self._protocol.data_received(self._loop._read_view[:size])
        else:
            self._eof = True
            self._watch()
            if not self._protocol.eof_received():
                self.close()

    def _flush(self) -> None:
        try:
            del self._out[:self._sock.send(self._out)]
        except (BlockingIOError, InterruptedError):
            pass
        except OSError as exc:
            self._fail(exc)
            return
        if self._writing_paused and len(self._out) <= _LOW_WATER:
            self._writing_paused = False
            self._protocol.resume_writing()
        self._watch()
        if self._closing and not self._out:
            self._lost(None)

    def _fail(self, exc: Exception) -> None:
        """The peer is gone: drop what is buffered, close soon."""
        self._out.clear()
        self._closing = True
        self._watch()
        self._loop.call_soon(self._lost, exc)

    def _lost(self, exc: Optional[Exception]) -> None:
        if self._closed:
            return
        self._closed = True
        if self._events:
            self._loop._selector.unregister(self._sock)
            self._events = 0
        self._sock.close()
        self._loop._transports.discard(self)
        self._protocol.connection_lost(exc)

    def _watch(self) -> None:
        """Have the selector watch what this transport waits for."""
        if self._closed:
            return
        events = 0
        if not (self._paused or self._eof or self._closing):
            events = selectors.EVENT_READ
        if self._out:
            events |= selectors.EVENT_WRITE
        if events == self._events:
            return
        selector = self._loop._selector
        if not self._events:
            selector.register(self._sock, events, self._on_event)
        elif not events:
            selector.unregister(self._sock)
        else:
            selector.modify(self._sock, events, self._on_event)
        self._events = events
