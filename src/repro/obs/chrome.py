"""Chrome trace-event exporter.

Converts a repro JSONL trace (see :mod:`repro.obs.trace`) into the JSON
object format understood by ``chrome://tracing`` / Perfetto: a top-level
``{"traceEvents": [...]}`` with microsecond ``ts`` values and the
``B``/``E``/``i`` phases we already emit.

The conversion is pure and deterministic: events keep their order, and
the ``seq`` number rides along in ``args`` so traces stay inspectable
after timestamp rounding.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Union

from ..errors import ReproError
from .trace import TraceEvent, read_trace

__all__ = ["chrome_trace", "export_chrome_trace"]

#: Synthetic ids — single-process, single-thread trace.
_PID = 1
_TID = 1


def _chrome_event(event: TraceEvent, ts_divisor: int) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "name": event.name,
        "cat": event.cat,
        "ph": event.ph,
        "ts": event.ts // ts_divisor,
        "pid": _PID,
        "tid": _TID,
    }
    if event.ph == "i":
        out["s"] = "t"  # thread-scoped instant
    out["args"] = {**event.args, "seq": event.seq}
    return out


def chrome_trace(
    events: Iterable[TraceEvent], *, clock: str = "wall"
) -> Dict[str, Any]:
    """Build the ``chrome://tracing`` JSON object for ``events``.

    ``clock`` must match the tracer that produced the events: ``"wall"``
    timestamps are nanoseconds and are scaled to the microseconds Chrome
    expects; ``"logical"`` timestamps are sequence numbers and are kept
    verbatim (one "microsecond" per event keeps the viewer's ordering
    exact and the output fully deterministic).
    """
    if clock == "wall":
        divisor = 1000
    elif clock == "logical":
        divisor = 1
    else:
        raise ReproError(f"clock must be 'wall' or 'logical', got {clock!r}")
    return {
        "traceEvents": [_chrome_event(e, divisor) for e in events],
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs"},
    }


def export_chrome_trace(
    jsonl_path: Union[str, os.PathLike],
    out_path: Union[str, os.PathLike],
    *,
    clock: str = "wall",
) -> int:
    """Convert a JSONL trace file to a Chrome trace file.

    Returns the number of events exported.
    """
    events: List[TraceEvent] = read_trace(jsonl_path)
    payload = chrome_trace(events, clock=clock)
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return len(events)
