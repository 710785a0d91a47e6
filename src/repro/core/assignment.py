"""Priority assignment: completing the paper's workflow.

The paper takes the priority value ``P_i`` of every stream as an input
("representing the importance of the message stream") and studies how many
*levels* are needed for tight bounds — but a system integrator must still
pick the priorities. This module supplies the classical assignment
policies with the paper's feasibility test as the underlying oracle:

* :func:`rate_monotonic_assignment` — shorter period = higher priority;
* :func:`deadline_monotonic_assignment` — shorter deadline = higher
  priority (optimal for single resources with D <= T, not for networks);
* :func:`audsley_assignment` — Audsley's optimal priority assignment
  (OPA): build the order bottom-up, at each (lowest remaining) level
  keeping any stream whose bound fits its deadline when every other
  unassigned stream is assumed higher-priority. OPA is optimal whenever
  the schedulability test is independent of the relative order *above*
  the analysed stream; the paper's HP-set construction satisfies that for
  direct blocking (all higher streams interfere regardless of their
  mutual order), so OPA with this oracle is a principled — though, given
  indirect chains, not provably optimal — search.

All functions return a new :class:`~repro.core.streams.StreamSet` with
distinct priorities ``n .. 1`` (highest first), or group priorities into
``levels`` classes when requested (the paper's tables use far fewer levels
than streams; grouping trades analysis tightness for VC cost exactly as
section 5 discusses).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import AnalysisError
from ..topology.routing import RoutingAlgorithm
from .feasibility import FeasibilityAnalyzer
from .streams import MessageStream, StreamSet

__all__ = [
    "rate_monotonic_assignment",
    "deadline_monotonic_assignment",
    "audsley_assignment",
    "group_into_levels",
]


def _with_priorities(
    streams: StreamSet, priorities: Dict[int, int]
) -> StreamSet:
    out = StreamSet()
    for s in streams:
        out.add(dataclasses.replace(s, priority=priorities[s.stream_id]))
    return out


def _ranked_assignment(
    streams: StreamSet, key: Callable[[MessageStream], Tuple]
) -> StreamSet:
    ordered = sorted(streams, key=key)
    n = len(ordered)
    priorities = {
        s.stream_id: n - rank for rank, s in enumerate(ordered)
    }
    return _with_priorities(streams, priorities)


def rate_monotonic_assignment(streams: StreamSet) -> StreamSet:
    """Assign distinct priorities by period (shortest period highest)."""
    if len(streams) == 0:
        raise AnalysisError("empty stream set")
    return _ranked_assignment(streams, lambda s: (s.period, s.stream_id))


def deadline_monotonic_assignment(streams: StreamSet) -> StreamSet:
    """Assign distinct priorities by deadline (shortest deadline highest)."""
    if len(streams) == 0:
        raise AnalysisError("empty stream set")
    return _ranked_assignment(streams, lambda s: (s.deadline, s.stream_id))


def audsley_assignment(
    streams: StreamSet,
    routing: RoutingAlgorithm,
) -> Optional[StreamSet]:
    """Audsley's optimal priority assignment with the paper's test.

    Levels are filled from the bottom: at each step, try every unassigned
    stream at the lowest remaining level (all other unassigned streams
    assumed strictly higher); the first whose bound fits its deadline is
    fixed there. Returns the assigned stream set, or ``None`` when some
    level admits no stream (the set is unschedulable under *any* priority
    order this test can certify).
    """
    if len(streams) == 0:
        raise AnalysisError("empty stream set")
    unassigned: List[MessageStream] = list(streams)
    fixed: Dict[int, int] = {}
    n = len(unassigned)
    for level in range(1, n + 1):  # 1 = lowest priority
        placed = None
        for candidate in sorted(
            unassigned, key=lambda s: (-s.deadline, s.stream_id)
        ):
            trial_prios = dict(fixed)
            trial_prios[candidate.stream_id] = level
            for other in unassigned:
                if other.stream_id != candidate.stream_id:
                    trial_prios[other.stream_id] = level + 1
            trial = _with_priorities(streams, trial_prios)
            verdict = FeasibilityAnalyzer(trial, routing).cal_u(
                candidate.stream_id
            )
            if verdict.feasible:
                placed = candidate
                break
        if placed is None:
            return None
        fixed[placed.stream_id] = level
        unassigned = [
            s for s in unassigned if s.stream_id != placed.stream_id
        ]
    return _with_priorities(streams, fixed)


def group_into_levels(streams: StreamSet, levels: int) -> StreamSet:
    """Quantise distinct priorities into ``levels`` classes.

    Keeps the relative order of the existing priorities and maps them onto
    ``1..levels`` by rank quantiles — the knob the paper's section 5 turns
    (few VCs = few levels = looser bounds). ``levels >= number of
    distinct priorities`` is a no-op re-labelling.
    """
    if levels < 1:
        raise AnalysisError(f"levels must be >= 1, got {levels}")
    if len(streams) == 0:
        raise AnalysisError("empty stream set")
    ordered = sorted(streams, key=lambda s: (s.priority, s.stream_id))
    n = len(ordered)
    priorities: Dict[int, int] = {}
    for rank, s in enumerate(ordered):
        # ranks 0..n-1 -> classes 1..levels, evenly.
        priorities[s.stream_id] = min(levels, 1 + rank * levels // n)
    return _with_priorities(streams, priorities)
