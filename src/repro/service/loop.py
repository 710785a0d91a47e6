"""The one event loop of every served process: a ``selectors`` loop, no
asyncio.

The broker, the fleet worker and the gateway answer each request in its
reader, or in a callback when a worker's answer arrives: none runs a
coroutine, and importing asyncio would cost each ~7 MiB of its ~27
(asyncio always imports ``ssl``, which maps libssl and libcrypto, for
servers that never speak TLS).

:class:`SelectorLoop` is that loop and :class:`_Transport` the buffered
transport of one socket, accepted by a listener or connected to a
worker. It makes the calls of a :class:`~repro.service.server.Connection`
that asyncio's would, under asyncio's rules: ``connection_made`` first,
``data_received`` per read, ``eof_received`` once (reading stops; the
connection stays open while it returns true), ``pause_writing`` above
``_HIGH_WATER`` buffered bytes and ``resume_writing`` at ``_LOW_WATER``,
``close`` flushes what is buffered first, ``connection_lost`` last.
"""

from __future__ import annotations

import heapq
import logging
import math
import selectors
import socket
import time
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

__all__ = ["SelectorLoop", "TimerHandle"]

logger = logging.getLogger(__name__)

#: Bytes one read asks for, into the loop's one buffer: a read
#: allocates nothing (asyncio's transport allocates 256 KiB per
#: ``recv``, which a process whose heap has filled ``mmap``s each time).
_READ_SIZE = 64 * 1024
#: asyncio's default write-buffer limits.
_HIGH_WATER = 64 * 1024
_LOW_WATER = _HIGH_WATER // 4
#: Most connections a listener accepts per readiness event.
_ACCEPTS = 100


class TimerHandle:
    """A callback :meth:`SelectorLoop.call_later` runs once, unless
    cancelled first (``callback`` is ``None`` once it ran or was)."""

    __slots__ = ("when", "callback", "args")

    def __init__(self, when: float, callback: Callable[..., Any],
                 args: Tuple[Any, ...]):
        self.when, self.callback, self.args = when, callback, args

    def __lt__(self, other: "TimerHandle") -> bool:
        return self.when < other.when

    def cancel(self) -> None:
        self.callback = self.args = None


class SelectorLoop:
    """Readiness callbacks on sockets, a FIFO of callbacks, and timers.

    ``call_soon`` is the one scheduling call a connection makes;
    ``call_later`` bounds a wait (a forwarded run's timeout) or repeats
    a check (a worker's orphan check). :meth:`run` serves until a
    condition holds; :meth:`wake` is the one method another thread may
    call, to make it look again.
    """

    def __init__(self) -> None:
        self._selector = selectors.DefaultSelector()
        self._ready: Deque[Tuple[Callable[..., Any], Tuple[Any, ...]]] = (
            deque()
        )
        #: A heap of timers by due time, cancelled ones included until
        #: it doubles (a forward's timer is cancelled when its answer
        #: arrives, long before it is due).
        self._timers: List[TimerHandle] = []
        self._compact_at = 64
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

    def call_later(self, delay: float, callback: Callable[..., Any],
                   *args: Any) -> TimerHandle:
        """Run ``callback(*args)`` once ``delay`` seconds have passed,
        unless the handle is cancelled first."""
        timer = TimerHandle(time.monotonic() + delay, callback, args)
        heapq.heappush(self._timers, timer)
        return timer

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
            timeout: Optional[float] = None) -> bool:
        """Serve until ``done()`` holds, checked after each round of
        events, due timers and callbacks; false if ``timeout`` seconds
        passed first."""
        deadline = None if timeout is None else time.monotonic() + timeout
        ready, timers = self._ready, self._timers
        while not done():
            wait = 0.0 if ready else None
            if deadline is not None or timers:
                now = time.monotonic()
                if deadline is not None and deadline <= now:
                    return False
                if wait is None:
                    wait = max(0.0, min(deadline or math.inf,
                                        timers[0].when if timers else math.inf)
                               - now)
            self.poll(wait)
        return True

    def poll(self, wait: Optional[float] = 0.0) -> None:
        """One round: the events of at most ``wait`` seconds (``None``:
        until one), the due timers, the callbacks queued before it."""
        for key, mask in self._selector.select(wait):
            try:
                key.data(mask)
            except Exception:   # one connection's fault is its own
                logger.exception("socket callback failed")
        if self._timers:
            self._due_timers()
        ready = self._ready
        for _ in range(len(ready)):
            callback, args = ready.popleft()
            try:
                callback(*args)
            except Exception:
                logger.exception("callback failed")

    def _due_timers(self) -> None:
        """Queue the timers that are due; drop the cancelled ones."""
        timers = self._timers
        if len(timers) > self._compact_at:
            timers[:] = [t for t in timers if t.callback is not None]
            heapq.heapify(timers)
            self._compact_at = 2 * len(timers) + 64
        now = time.monotonic()
        while timers and timers[0].when <= now:
            timer = heapq.heappop(timers)
            if timer.callback is not None:
                self._ready.append((timer.callback, timer.args))

    def stop_listening(self) -> None:
        """Close every listener: accept no more connections."""
        for sock in self._listeners:
            self._selector.unregister(sock)
            sock.close()
        self._listeners.clear()

    def close(self) -> None:
        """Close every listener and every connection, unflushed, and
        drop what is scheduled."""
        self.stop_listening()
        for transport in list(self._transports):
            transport.abort()
        self._ready.clear()
        self._timers.clear()
        self._selector.close()
        self._waker.close()
        self._wakee.close()


class _Transport:
    """One socket, accepted or connected, driven by a
    :class:`SelectorLoop`: the transport calls a
    :class:`~repro.service.server.Connection` makes (``write``,
    ``pause_reading``, ``resume_reading``, ``close``, ``abort``)."""

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
