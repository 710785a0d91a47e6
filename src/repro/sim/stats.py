"""Latency statistics collection.

The paper's tables report, per priority level, the ratio between the
calculated delay upper bound and the *actual* (simulated) message
transmission delay, measured over a 30000-flit-time run with the first 2000
flit times discarded as start-up transient. :class:`StatsCollector` gathers
per-stream delay samples with exactly that warm-up rule (a message counts
iff it was *released* at or after the warm-up boundary) and aggregates per
stream and per priority level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from .flit import Message

__all__ = ["DelayStats", "StatsCollector"]


@dataclass(frozen=True)
class DelayStats:
    """Summary statistics of a set of delay samples."""

    count: int
    mean: float
    maximum: int
    minimum: int
    std: float

    @classmethod
    def from_samples(cls, samples: List[int]) -> "DelayStats":
        if not samples:
            raise SimulationError("no delay samples to summarise")
        arr = np.asarray(samples, dtype=np.int64)
        return cls(
            count=int(arr.size),
            mean=float(arr.mean()),
            maximum=int(arr.max()),
            minimum=int(arr.min()),
            std=float(arr.std()),
        )


class StatsCollector:
    """Collects per-stream transmission-delay samples during a run."""

    def __init__(self, warmup: int = 0):
        if warmup < 0:
            raise SimulationError(f"warmup must be >= 0, got {warmup}")
        self.warmup = warmup
        self._samples: Dict[int, List[int]] = {}
        self._dropped = 0
        #: stream id -> priority (recorded from finished messages).
        self._priority: Dict[int, int] = {}
        #: Messages released but not finished by the end of the run.
        self.unfinished: int = 0

    # ------------------------------------------------------------------ #

    def record(self, msg: Message) -> None:
        """Record a finished message (ignores warm-up releases)."""
        if msg.finish is None:
            raise SimulationError(
                f"cannot record unfinished message {msg.msg_id}"
            )
        self._priority.setdefault(msg.stream_id, msg.priority)
        if msg.release < self.warmup:
            self._dropped += 1
            return
        self._samples.setdefault(msg.stream_id, []).append(msg.delay())

    # ------------------------------------------------------------------ #

    @property
    def dropped(self) -> int:
        """Finished messages discarded because they were warm-up traffic."""
        return self._dropped

    def stream_ids(self) -> Tuple[int, ...]:
        """Stream ids with at least one recorded sample, ascending."""
        return tuple(sorted(self._samples))

    def samples(self, stream_id: int) -> Tuple[int, ...]:
        """Raw delay samples of one stream."""
        return tuple(self._samples.get(stream_id, ()))

    def stream_stats(self, stream_id: int) -> DelayStats:
        """Summary for one stream (raises if it produced no samples)."""
        samples = self._samples.get(stream_id)
        if not samples:
            raise SimulationError(
                f"stream {stream_id} finished no messages after warm-up"
            )
        return DelayStats.from_samples(samples)

    def mean_delay(self, stream_id: int) -> float:
        """Average transmission delay of one stream."""
        return self.stream_stats(stream_id).mean

    def max_delay(self, stream_id: int) -> int:
        """Maximum observed transmission delay of one stream."""
        return self.stream_stats(stream_id).maximum

    def all_stream_stats(self) -> Dict[int, DelayStats]:
        """Summaries for every stream that produced samples."""
        return {i: self.stream_stats(i) for i in self.stream_ids()}

    def priority_stats(self) -> Dict[int, DelayStats]:
        """Summaries pooled per priority level (the tables' grouping)."""
        pooled: Dict[int, List[int]] = {}
        for sid, samples in self._samples.items():
            pooled.setdefault(self._priority[sid], []).extend(samples)
        return {
            p: DelayStats.from_samples(s) for p, s in sorted(pooled.items())
        }
