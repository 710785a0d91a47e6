"""Structured tracing for the analysis pipeline and the simulator.

Design constraints, in order:

1. **Zero overhead when disabled.** Instrumentation sites call the
   module-level :func:`span` helper, whose disabled path is one global
   load and a ``None`` check (plus a shared, reusable ``nullcontext``),
   or fetch :func:`active` once and call :meth:`Tracer.instant` only
   when it is not ``None``. Nothing is formatted, allocated or
   timestamped unless a tracer is installed. The simulator additionally
   caches the active tracer per ``run()`` so its per-cycle body never
   touches this module when tracing is off.
2. **Determinism.** Every event carries a process-monotonic sequence
   number; all payload fields are pure functions of the workload. Wall
   timestamps (``ts``/``dur``) are the only nondeterministic fields, so
   two runs of the same seeded problem compare byte-identical once they
   are zeroed. With ``REPRO_TRACE_CLOCK=logical`` the timestamp *is* the
   sequence number and the files themselves are byte-identical.
3. **No dependencies, bounded memory.** Events land in a ring buffer
   (65536 events; :class:`Tracer` takes another ``buffer_limit``) and, when
   ``REPRO_TRACE_FILE`` names a path, are simultaneously streamed to it
   as JSON lines. A literal ``{pid}`` in the path is replaced by the
   process id so parallel campaigns do not interleave writes.

Enable with ``REPRO_TRACE=1`` (any value other than ``0``/``false``/
``no``/empty): the tracer is installed at import time, which is how the
CI trace-determinism leg runs the whole tier-1 suite traced. Programmatic
use goes through :func:`install` / :func:`uninstall`::

    tracer = Tracer(sink="run.jsonl")
    install(tracer)
    try:
        analyzer.determine_feasibility()
    finally:
        uninstall().close()

Event schema (one JSON object per line)::

    {"seq": 12, "ts": 83021, "ph": "B", "name": "cal_u",
     "cat": "analysis", "args": {"stream": 4, "horizon": 50}}

``ph`` follows the Chrome trace-event phases: ``B``/``E`` span begin/end,
``i`` instant.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, IO, Iterator, List, Mapping, Optional, Union

from ..errors import ReproError

__all__ = [
    "TRACE_ENV",
    "TRACE_FILE_ENV",
    "TRACE_CLOCK_ENV",
    "TraceEvent",
    "Tracer",
    "active",
    "configure_from_env",
    "install",
    "read_trace",
    "span",
    "trace_enabled_from_env",
    "uninstall",
]

TRACE_ENV = "REPRO_TRACE"
TRACE_FILE_ENV = "REPRO_TRACE_FILE"
TRACE_CLOCK_ENV = "REPRO_TRACE_CLOCK"

_FALSEY = ("", "0", "false", "no", "off")

#: Valid event phases (Chrome trace-event subset).
PHASES = ("B", "E", "i")


@dataclass(frozen=True)
class TraceEvent:
    """One trace event; the JSONL schema is its field set, verbatim."""

    seq: int
    ts: int
    ph: str
    name: str
    cat: str
    args: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "ts": self.ts,
            "ph": self.ph,
            "name": self.name,
            "cat": self.cat,
            "args": dict(self.args),
        }

    def to_json(self) -> str:
        """Canonical single-line JSON (sorted keys, compact separators)."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "TraceEvent":
        ph = str(d["ph"])
        if ph not in PHASES:
            raise ReproError(f"unknown trace phase {ph!r}")
        return cls(
            seq=int(d["seq"]),
            ts=int(d["ts"]),
            ph=ph,
            name=str(d["name"]),
            cat=str(d["cat"]),
            args=dict(d.get("args", {})),
        )


class Tracer:
    """Collects :class:`TraceEvent` records; optionally streams JSONL.

    Parameters
    ----------
    sink:
        Path (or open text file) to stream events to as JSON lines;
        ``None`` keeps events only in the ring buffer. A literal
        ``{pid}`` in a path is replaced by ``os.getpid()``.
    clock:
        ``"wall"`` (default) stamps events with ``time.perf_counter_ns``
        relative to tracer creation; ``"logical"`` stamps them with the
        sequence number, making the output fully deterministic.
    buffer_limit:
        Ring-buffer capacity in events (oldest dropped first).
    """

    def __init__(
        self,
        *,
        sink: Optional[Union[str, os.PathLike, IO[str]]] = None,
        clock: str = "wall",
        buffer_limit: int = 65536,
    ):
        if clock not in ("wall", "logical"):
            raise ReproError(f"clock must be 'wall' or 'logical', got {clock!r}")
        if buffer_limit < 1:
            raise ReproError(f"buffer_limit must be >= 1, got {buffer_limit}")
        self.clock = clock
        self.events: deque = deque(maxlen=buffer_limit)
        self._seq = 0
        self._stack: List[str] = []
        self._t0 = time.perf_counter_ns()
        self._fh: Optional[IO[str]] = None
        self._owns_fh = False
        if sink is not None:
            if hasattr(sink, "write"):
                self._fh = sink  # type: ignore[assignment]
            else:
                path = str(sink).replace("{pid}", str(os.getpid()))
                self._fh = open(path, "w")
                self._owns_fh = True

    # ------------------------------------------------------------------ #
    # Emission
    # ------------------------------------------------------------------ #

    def _stamp(self) -> int:
        if self.clock == "logical":
            return self._seq
        return time.perf_counter_ns() - self._t0

    def emit(self, ph: str, name: str, cat: str, args: Mapping[str, Any]) -> TraceEvent:
        event = TraceEvent(
            seq=self._seq, ts=self._stamp(), ph=ph, name=name, cat=cat,
            args=args,
        )
        self._seq += 1
        self.events.append(event)
        if self._fh is not None:
            self._fh.write(event.to_json() + "\n")
        return event

    def begin(self, name: str, cat: str = "repro", **args: Any) -> None:
        """Open a span (paired with :meth:`end`; prefer :meth:`span`)."""
        self._stack.append(name)
        self.emit("B", name, cat, args)

    def end(self, name: str, cat: str = "repro", **args: Any) -> None:
        """Close the innermost span, which must be ``name``."""
        if not self._stack or self._stack[-1] != name:
            raise ReproError(
                f"span end {name!r} does not match open span "
                f"{self._stack[-1] if self._stack else None!r}"
            )
        self._stack.pop()
        self.emit("E", name, cat, args)

    def instant(self, name: str, cat: str = "repro", **args: Any) -> None:
        """Record a point event."""
        self.emit("i", name, cat, args)

    @contextlib.contextmanager
    def span(self, name: str, cat: str = "repro", **args: Any) -> Iterator[None]:
        """Context manager emitting a balanced ``B``/``E`` pair."""
        self.begin(name, cat, **args)
        try:
            yield
        finally:
            self.end(name, cat)

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        """Flush and, when the tracer opened its sink, close it."""
        if self._fh is not None:
            self._fh.flush()
            if self._owns_fh:
                self._fh.close()
            self._fh = None


# ---------------------------------------------------------------------- #
# Global tracer (the instrumentation sites' fast path)
# ---------------------------------------------------------------------- #

_ACTIVE: Optional[Tracer] = None

#: Shared no-op context manager returned by :func:`span` when disabled.
#: ``contextlib.nullcontext`` instances are stateless and reusable.
_NULL = contextlib.nullcontext()


def active() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when tracing is disabled."""
    return _ACTIVE


def install(tracer: Tracer) -> None:
    """Make ``tracer`` the process-wide tracer."""
    global _ACTIVE
    _ACTIVE = tracer


def uninstall() -> Optional[Tracer]:
    """Disable tracing; returns the previously installed tracer."""
    global _ACTIVE
    prev, _ACTIVE = _ACTIVE, None
    return prev


def span(name: str, cat: str = "repro", **args: Any):
    """Span context manager through the global tracer (no-op when off)."""
    tr = _ACTIVE
    if tr is None:
        return _NULL
    return tr.span(name, cat, **args)


def trace_enabled_from_env() -> bool:
    """Whether ``REPRO_TRACE`` asks for tracing."""
    return os.environ.get(TRACE_ENV, "0").lower() not in _FALSEY


def configure_from_env() -> Optional[Tracer]:
    """(Re)install a tracer according to the environment.

    ``REPRO_TRACE`` gates tracing; ``REPRO_TRACE_FILE`` selects a JSONL
    sink path (``{pid}`` substituted); ``REPRO_TRACE_CLOCK=logical``
    selects the deterministic clock. The ring buffer holds 65536 events.
    With the gate unset this *uninstalls* any active tracer and returns
    ``None``.
    """
    if not trace_enabled_from_env():
        uninstall()
        return None
    clock = os.environ.get(TRACE_CLOCK_ENV, "wall")
    sink = os.environ.get(TRACE_FILE_ENV) or None
    tracer = Tracer(sink=sink, clock=clock, buffer_limit=65536)
    install(tracer)
    return tracer


# ---------------------------------------------------------------------- #
# Reading traces back
# ---------------------------------------------------------------------- #


def read_trace(path: Union[str, os.PathLike]) -> List[TraceEvent]:
    """Parse a JSONL trace file back into :class:`TraceEvent` records."""
    events: List[TraceEvent] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(TraceEvent.from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ReproError(
                    f"bad trace line {lineno} in {path}: {exc}"
                ) from None
    return events


# Import-time activation: lets `REPRO_TRACE=1 pytest` (the CI
# trace-determinism leg) and `REPRO_TRACE=1 repro ...` trace without any
# code change.
configure_from_env()
