"""Interference attribution: *why* is a stream's bound what it is?

``U_i`` is the point where the free slots of the result row accumulate to
``L_i``; everything before it is either the stream's own latency budget or
busy time charged to specific HP elements. :func:`interference_report`
breaks the interval ``[1, U_i]`` down per interfering stream — slots
allocated before the bound, share of the bound, instances removed by
``Modify_Diagram`` — which is the first thing a system designer asks when
an admission request is rejected ("who is blocking me, and by how much?").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import AnalysisError
from .feasibility import FeasibilityAnalyzer
from .hpset import BlockingMode

__all__ = ["Contribution", "InterferenceReport", "interference_report",
           "format_interference_report"]


@dataclass(frozen=True)
class Contribution:
    """One HP element's share of the analysed stream's bound."""

    stream_id: int
    priority: int
    mode: BlockingMode
    #: Slots the element's messages occupy in [1, U] (or the horizon when
    #: the bound was not reached).
    busy_slots: int
    #: busy_slots / U.
    share: float
    #: Instances released by Modify_Diagram (whole-diagram count).
    removed_instances: int


@dataclass(frozen=True)
class InterferenceReport:
    """Attribution of one stream's delay upper bound."""

    stream_id: int
    latency: int
    upper_bound: int
    horizon: int
    contributions: Tuple[Contribution, ...]

    @property
    def interference(self) -> int:
        """Total busy slots before the bound (``U - L`` when U exists)."""
        return sum(c.busy_slots for c in self.contributions)

    def dominant(self) -> Optional[Contribution]:
        """The largest contributor, or ``None`` when nothing interferes."""
        if not self.contributions:
            return None
        return max(self.contributions, key=lambda c: c.busy_slots)


def interference_report(
    analyzer: FeasibilityAnalyzer,
    stream_id: int,
    *,
    horizon: Optional[int] = None,
) -> InterferenceReport:
    """Attribute a stream's bound to the members of its HP set.

    Uses the analyzer's configuration (Modify toggle, residency margin).
    When the bound exceeds the horizon, slots are attributed over the whole
    horizon instead and ``upper_bound`` is ``-1``.
    """
    stream = analyzer.streams[stream_id]
    assert stream.latency is not None
    diagram, removed = analyzer.diagram_for(stream_id, horizon)
    u = diagram.upper_bound(stream.latency)
    window_end = u if u > 0 else diagram.dtime

    window = (2 << window_end) - 2  # slots 1..window_end

    contributions: List[Contribution] = []
    hp = analyzer.hp_sets[stream_id]
    for entry in hp:
        if entry.stream_id == stream_id:
            continue
        row = diagram.row_of(entry.stream_id)
        busy = (diagram.alloc_bits[row] & window).bit_count()
        contributions.append(Contribution(
            stream_id=entry.stream_id,
            priority=analyzer.streams[entry.stream_id].priority,
            mode=entry.mode,
            busy_slots=busy,
            share=busy / window_end if window_end else 0.0,
            removed_instances=len(removed.get(entry.stream_id, ())),
        ))
    contributions.sort(key=lambda c: (-c.busy_slots, c.stream_id))
    return InterferenceReport(
        stream_id=stream_id,
        latency=stream.latency,
        upper_bound=u,
        horizon=diagram.dtime,
        contributions=tuple(contributions),
    )


def format_interference_report(report: InterferenceReport) -> str:
    """Render the attribution as aligned text."""
    if report.upper_bound > 0:
        head = (
            f"M{report.stream_id}: U = {report.upper_bound} "
            f"= L ({report.latency}) + interference "
            f"({report.interference}) over [1, {report.upper_bound}]"
        )
    else:
        head = (
            f"M{report.stream_id}: bound exceeds horizon "
            f"{report.horizon}; attribution over the whole horizon"
        )
    lines = [head]
    if not report.contributions:
        lines.append("  (no interfering streams)")
        return "\n".join(lines)
    lines.append(
        f"  {'blocker':>8} {'prio':>5} {'mode':>9} {'slots':>6} "
        f"{'share':>7} {'released':>9}"
    )
    for c in report.contributions:
        lines.append(
            f"  M{c.stream_id:>7} {c.priority:>5} {c.mode.value:>9} "
            f"{c.busy_slots:>6} {c.share:>6.1%} {c.removed_instances:>9}"
        )
    return "\n".join(lines)
