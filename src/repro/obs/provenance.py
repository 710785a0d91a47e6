"""Delay-bound provenance: a full, serialisable explanation of ``U_i``.

:mod:`repro.core.report` answers "who blocks me and by how much"; this
module answers the follow-up question "*where* exactly" — the complete
per-stream accounting an operator needs when the broker rejects an
admission request:

* every HP element (DIRECT/INDIRECT, with intermediates) together with
  the slots it occupies before the bound, compressed to intervals;
* the instances ``Modify_Diagram`` released, each with its period window;
* the result row's busy/free timeline up to the bound.

The accounting is exact by construction: row allocations are disjoint
(a slot one row allocates is BUSY for every other), and ``U`` is the
``L``-th free slot of the result row, so the per-element busy slots over
``[1, U]`` sum to exactly ``U - L`` — the *interference* the bound
charges on top of the no-load latency. (The slots themselves total
``U``: ``L`` free + ``U - L`` busy.) :func:`explain_stream` asserts this
identity; the test suite pins it on the paper's worked example and on
fuzzed problems.

Everything here is derived from a fresh :meth:`FeasibilityAnalyzer.diagram_for`
call — provenance is an offline/debug path and stays out of the hot
analysis loop (see ``FeasibilityAnalyzer.determine_feasibility(explain=True)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.feasibility import FeasibilityAnalyzer
from ..core.render import render_diagram
from ..core.timing_diagram import slot_indices
from ..errors import AnalysisError

__all__ = [
    "HPContribution",
    "ReleasedInstance",
    "StreamExplanation",
    "explain_stream",
    "explain_report",
    "render_explanation",
]


def _intervals(slots: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
    """Compress ascending slot indices into inclusive ``(start, end)`` runs."""
    runs: List[Tuple[int, int]] = []
    start = prev = None
    for t in slots:
        t = int(t)
        if start is None:
            start = prev = t
        elif t == prev + 1:
            prev = t
        else:
            runs.append((start, prev))
            start = prev = t
    if start is not None:
        runs.append((start, prev))
    return tuple(runs)


@dataclass(frozen=True)
class HPContribution:
    """One HP element's exact share of the analysed stream's bound."""

    stream_id: int
    priority: int
    #: ``"direct"`` or ``"indirect"``.
    mode: str
    #: Intermediate stream ids (empty for DIRECT elements), ascending.
    intermediates: Tuple[int, ...]
    #: Slots the element's messages occupy in ``[1, window_end]``.
    busy_slots: int
    #: Those slots compressed to inclusive ``(start, end)`` intervals.
    intervals: Tuple[Tuple[int, int], ...]
    #: Instances ``Modify_Diagram`` released (whole-diagram count).
    removed_instances: int

    def to_spec(self) -> Dict[str, Any]:
        return {
            "stream": self.stream_id,
            "priority": self.priority,
            "mode": self.mode,
            "intermediates": list(self.intermediates),
            "busy_slots": self.busy_slots,
            "intervals": [list(iv) for iv in self.intervals],
            "removed_instances": self.removed_instances,
        }


@dataclass(frozen=True)
class ReleasedInstance:
    """One message instance removed by ``Modify_Diagram``."""

    stream_id: int
    #: Instance index (instance ``i`` is released at ``i * period``).
    index: int
    #: The instance's period window, inclusive slots.
    window: Tuple[int, int]

    def to_spec(self) -> Dict[str, Any]:
        return {
            "stream": self.stream_id,
            "index": self.index,
            "window": list(self.window),
        }


@dataclass(frozen=True)
class StreamExplanation:
    """Complete provenance of one stream's delay upper bound."""

    stream_id: int
    latency: int
    deadline: int
    #: ``-1`` when the bound exceeded the horizon.
    upper_bound: int
    horizon: int
    feasible: bool
    #: End of the attribution window: ``U`` when the bound exists,
    #: otherwise the horizon.
    window_end: int
    #: Total busy slots in ``[1, window_end]`` — equals
    #: ``upper_bound - latency`` whenever the bound exists.
    interference: int
    contributions: Tuple[HPContribution, ...]
    released: Tuple[ReleasedInstance, ...] = ()
    #: Result-row busy intervals in ``[1, window_end]``.
    busy_timeline: Tuple[Tuple[int, int], ...] = ()

    def dominant(self) -> Optional[HPContribution]:
        """The largest contributor, or ``None`` when nothing interferes."""
        if not self.contributions:
            return None
        return max(self.contributions, key=lambda c: c.busy_slots)

    def to_spec(self) -> Dict[str, Any]:
        """JSON-serialisable form (the ``repro explain --json`` payload)."""
        return {
            "stream": self.stream_id,
            "latency": self.latency,
            "deadline": self.deadline,
            "upper_bound": self.upper_bound,
            "horizon": self.horizon,
            "feasible": self.feasible,
            "window_end": self.window_end,
            "interference": self.interference,
            "contributions": [c.to_spec() for c in self.contributions],
            "released": [r.to_spec() for r in self.released],
            "busy_timeline": [list(iv) for iv in self.busy_timeline],
        }


def explain_stream(
    analyzer: FeasibilityAnalyzer,
    stream_id: int,
    *,
    horizon: Optional[int] = None,
) -> StreamExplanation:
    """Build the full provenance of one stream's bound.

    Uses the analyzer's configuration (Modify toggle, granularity,
    residency margin), exactly like :meth:`FeasibilityAnalyzer.cal_u` —
    the explanation describes the same diagram the verdict came from.
    """
    stream = analyzer.streams[stream_id]
    assert stream.latency is not None
    diagram, removed = analyzer.diagram_for(stream_id, horizon)
    u = diagram.upper_bound(stream.latency)
    window_end = u if u > 0 else diagram.dtime
    window = (2 << window_end) - 2  # slots 1..window_end

    contributions: List[HPContribution] = []
    hp = analyzer.hp_sets[stream_id]
    for entry in hp:
        if entry.stream_id == stream_id:
            continue
        row = diagram.row_of(entry.stream_id)
        slots = slot_indices(diagram.alloc_bits[row] & window)
        contributions.append(
            HPContribution(
                stream_id=entry.stream_id,
                priority=analyzer.streams[entry.stream_id].priority,
                mode=entry.mode.value,
                intermediates=tuple(sorted(entry.intermediates)),
                busy_slots=len(slots),
                intervals=_intervals(slots),
                removed_instances=len(removed.get(entry.stream_id, ())),
            )
        )
    contributions.sort(key=lambda c: (-c.busy_slots, c.stream_id))

    released: List[ReleasedInstance] = []
    for sid in sorted(removed):
        member = analyzer.streams[sid]
        for index in sorted(removed[sid]):
            lo = index * member.period + 1
            hi = min((index + 1) * member.period, diagram.dtime)
            released.append(
                ReleasedInstance(stream_id=sid, index=index, window=(lo, hi))
            )

    busy_slots = slot_indices(diagram.busy_bits() & window)
    interference = len(busy_slots)

    # Accounting identities. Allocations are disjoint across rows, so the
    # per-element slots partition the result row's busy slots; and U is the
    # L-th free slot, so busy + L == U when the bound exists.
    if sum(c.busy_slots for c in contributions) != interference:
        raise AnalysisError(
            f"provenance accounting broke for stream {stream_id}: "
            f"contributions sum to "
            f"{sum(c.busy_slots for c in contributions)}, result row has "
            f"{interference} busy slots"
        )
    if u > 0 and interference != u - stream.latency:
        raise AnalysisError(
            f"provenance accounting broke for stream {stream_id}: "
            f"interference {interference} != U - L = {u - stream.latency}"
        )

    return StreamExplanation(
        stream_id=stream_id,
        latency=stream.latency,
        deadline=stream.deadline,
        upper_bound=u,
        horizon=diagram.dtime,
        feasible=0 < u <= stream.deadline,
        window_end=window_end,
        interference=interference,
        contributions=tuple(contributions),
        released=tuple(released),
        busy_timeline=_intervals(busy_slots),
    )


def explain_report(
    analyzer: FeasibilityAnalyzer,
) -> Dict[int, StreamExplanation]:
    """Explanations for every stream, keyed by id."""
    return {
        s.stream_id: explain_stream(analyzer, s.stream_id)
        for s in analyzer.streams.sorted_by_priority()
    }


def _format_intervals(intervals: Tuple[Tuple[int, int], ...]) -> str:
    if not intervals:
        return "-"
    return ", ".join(
        f"{a}" if a == b else f"{a}-{b}" for a, b in intervals
    )


def render_explanation(
    explanation: StreamExplanation,
    *,
    analyzer: Optional[FeasibilityAnalyzer] = None,
    major: int = 10,
) -> str:
    """Render an explanation as annotated text (the ``repro explain`` view).

    With an ``analyzer``, the stream's timing diagram is re-derived and
    rendered above the breakdown (paper Figs. 7/9 style, with the bound
    caret); without one, only the textual breakdown is produced.
    """
    e = explanation
    lines: List[str] = []
    if analyzer is not None:
        diagram, _ = analyzer.diagram_for(e.stream_id, e.horizon)
        lines.append(
            render_diagram(
                diagram,
                upper_bound=e.upper_bound if e.upper_bound > 0 else None,
                major=major,
            )
        )
        lines.append("")
    if e.upper_bound > 0:
        verdict = "feasible" if e.feasible else "infeasible"
        lines.append(
            f"M{e.stream_id}: U = {e.upper_bound} = L ({e.latency}) "
            f"+ interference ({e.interference})  [deadline {e.deadline}: "
            f"{verdict}]"
        )
    else:
        lines.append(
            f"M{e.stream_id}: bound exceeds horizon {e.horizon}; "
            f"attribution over the whole horizon "
            f"({e.interference} busy slots)"
        )
    if not e.contributions:
        lines.append("  (no interfering streams)")
    else:
        lines.append(
            f"  {'blocker':>8} {'prio':>5} {'mode':>9} {'slots':>6} "
            f"{'released':>9}  slots occupied"
        )
        for c in e.contributions:
            via = (
                " via M" + ",M".join(str(i) for i in c.intermediates)
                if c.intermediates
                else ""
            )
            lines.append(
                f"  {'M%d' % c.stream_id:>8} {c.priority:>5} {c.mode:>9} "
                f"{c.busy_slots:>6} {c.removed_instances:>9}  "
                f"{_format_intervals(c.intervals)}{via}"
            )
    if e.released:
        lines.append("  released by Modify_Diagram:")
        for r in e.released:
            lines.append(
                f"    M{r.stream_id} instance {r.index} "
                f"(window [{r.window[0]}, {r.window[1]}])"
            )
    lines.append(
        f"  result row busy: {_format_intervals(e.busy_timeline)}"
    )
    return "\n".join(lines)
