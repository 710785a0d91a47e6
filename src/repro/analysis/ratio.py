"""The tables' metric: measured latency relative to the computed bound.

The paper's Tables 1-5 report, per priority level, "the ratio between the
delay upper bound found using the proposed algorithm and the actual average
message transmission delay" — written as a number in (0, 1], i.e.
``actual / U``. A ratio near 1 means the bound is tight (the guarantee
costs little); a tiny ratio means the bound is so pessimistic it is
practically useless, which is what happens with few priority levels.

:func:`ratio_by_priority` pools per-stream ratios within each priority
level. Streams whose bound exceeded the search horizon (``U == -1``) have
ratio 0 by convention (the bound is unbounded) and are counted separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

from ..core.streams import StreamSet
from ..errors import AnalysisError
from ..sim.stats import StatsCollector

__all__ = ["RatioStats", "stream_ratios", "ratio_by_priority"]


@dataclass(frozen=True)
class RatioStats:
    """Ratio summary for one priority level."""

    priority: int
    #: Streams at this level with both a bound and latency samples.
    num_streams: int
    #: Streams whose bound search failed (ratio treated as 0).
    num_unbounded: int
    mean: float
    minimum: float
    maximum: float


def stream_ratios(
    streams: StreamSet,
    upper_bounds: Mapping[int, int],
    stats: StatsCollector,
) -> Dict[int, float]:
    """Return ``stream_id -> mean measured delay / U`` per stream.

    Streams with ``U == -1`` map to 0.0. Streams that finished no messages
    after warm-up are skipped (they contribute no evidence either way).
    """
    ratios: Dict[int, float] = {}
    sampled = set(stats.stream_ids())
    for s in streams:
        if s.stream_id not in upper_bounds:
            raise AnalysisError(f"no upper bound for stream {s.stream_id}")
        if s.stream_id not in sampled:
            continue
        u = upper_bounds[s.stream_id]
        if u <= 0:
            ratios[s.stream_id] = 0.0
        else:
            ratios[s.stream_id] = stats.mean_delay(s.stream_id) / u
    return ratios


def ratio_by_priority(
    streams: StreamSet,
    upper_bounds: Mapping[int, int],
    stats: StatsCollector,
) -> Dict[int, RatioStats]:
    """Pool per-stream ratios into per-priority-level summaries.

    Returns a mapping keyed by priority value, descending iteration order
    matching the paper's tables (highest priority row first).
    """
    ratios = stream_ratios(streams, upper_bounds, stats)
    by_level: Dict[int, list] = {}
    unbounded: Dict[int, int] = {}
    for s in streams:
        r = ratios.get(s.stream_id)
        if r is None:
            continue
        by_level.setdefault(s.priority, []).append(r)
        if upper_bounds[s.stream_id] <= 0:
            unbounded[s.priority] = unbounded.get(s.priority, 0) + 1
    out: Dict[int, RatioStats] = {}
    for p in sorted(by_level, reverse=True):
        vals = np.asarray(by_level[p], dtype=float)
        out[p] = RatioStats(
            priority=p,
            num_streams=int(vals.size),
            num_unbounded=unbounded.get(p, 0),
            mean=float(vals.mean()),
            minimum=float(vals.min()),
            maximum=float(vals.max()),
        )
    return out
