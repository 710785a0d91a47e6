"""Projections of trace files that the determinism and nesting tests
compare: the canonical line form (wall time zeroed) and the ``B``/``E``
span pairing."""

from __future__ import annotations

import json
import os
from typing import List, Tuple, Union

from repro.errors import ReproError
from repro.obs.trace import TraceEvent, read_trace

__all__ = ["canonical_lines", "pair_spans"]


def canonical_lines(path: Union[str, os.PathLike]) -> List[str]:
    """Trace lines with the nondeterministic fields (``ts``) zeroed.

    Two runs of the same seeded workload must agree on this projection
    byte for byte — the determinism contract the test suite pins.
    """
    out = []
    for event in read_trace(path):
        d = event.to_dict()
        d["ts"] = 0
        out.append(json.dumps(d, sort_keys=True, separators=(",", ":")))
    return out


def pair_spans(
    events: List[TraceEvent],
) -> List[Tuple[TraceEvent, TraceEvent, int]]:
    """Match ``B``/``E`` events into ``(begin, end, depth)`` triples.

    Raises :class:`ReproError` on unbalanced or interleaved spans —
    the nesting validity check used by the trace tests.
    """
    stack: List[TraceEvent] = []
    spans: List[Tuple[TraceEvent, TraceEvent, int]] = []
    for event in events:
        if event.ph == "B":
            stack.append(event)
        elif event.ph == "E":
            if not stack or stack[-1].name != event.name:
                raise ReproError(
                    f"unbalanced span end {event.name!r} at seq {event.seq}"
                )
            begin = stack.pop()
            spans.append((begin, event, len(stack)))
    if stack:
        raise ReproError(
            f"unclosed span(s): {[e.name for e in stack]}"
        )
    return spans
