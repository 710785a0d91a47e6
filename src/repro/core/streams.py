"""Real-time message streams and stream sets.

The unit of analysis in the paper is the **message stream**: "the continuous
message traffic between a source and destination node pair", characterised by
the seven-tuple ``(S_id, R_id, P_i, T_i, C_i, D_i, L_i)``:

========= ====================================================================
``src``   source node ``S_id``
``dst``   destination node ``R_id``
``priority`` priority ``P_i`` — **larger value = higher priority** (the
          paper's worked example assigns P=5 to the unblockable stream)
``period``   minimum message inter-generation time ``T_i`` (flit times)
``length``   maximum message length ``C_i`` (flits)
``deadline`` requested delay limit ``D_i`` (flit times)
``latency``  maximum no-load network latency ``L_i``; optional — when absent
          the analyzer computes it from the route via a
          :class:`~repro.core.latency.LatencyModel`
========= ====================================================================

Every message generated by the stream inherits these attributes. Streams are
immutable; a :class:`StreamSet` is an ordered, id-keyed collection with the
validation and priority order the algorithm needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import StreamError

__all__ = ["MessageStream", "StreamSet"]


@dataclass(frozen=True)
class MessageStream:
    """One periodic real-time message stream (the paper's ``M_i``).

    Attributes mirror the seven-tuple of the paper; ``stream_id`` is the
    index used in HP sets, blocking dependency graphs and result tables.
    Equality is field-wise; the hash is computed once (verdict-memo keys
    hash every member of a closure), from ints only, so it is the same
    in every process a stream is pickled to.
    """

    stream_id: int
    src: int
    dst: int
    priority: int
    period: int
    length: int
    deadline: int
    latency: Optional[int] = None

    def __post_init__(self) -> None:
        if self.stream_id < 0:
            raise StreamError(f"stream_id must be >= 0, got {self.stream_id}")
        if self.src < 0 or self.dst < 0:
            raise StreamError(
                f"stream {self.stream_id}: node ids must be >= 0 "
                f"(src={self.src}, dst={self.dst})"
            )
        if self.src == self.dst:
            raise StreamError(
                f"stream {self.stream_id}: source equals destination "
                f"({self.src}); wormhole transmission needs at least one hop"
            )
        if self.period <= 0:
            raise StreamError(
                f"stream {self.stream_id}: period must be positive, got "
                f"{self.period}"
            )
        if self.length <= 0:
            raise StreamError(
                f"stream {self.stream_id}: length must be positive, got "
                f"{self.length}"
            )
        if self.deadline <= 0:
            raise StreamError(
                f"stream {self.stream_id}: deadline must be positive, got "
                f"{self.deadline}"
            )
        if self.latency is not None and self.latency <= 0:
            raise StreamError(
                f"stream {self.stream_id}: latency must be positive, got "
                f"{self.latency}"
            )
        # A valid latency is positive: 0 stands for None.
        object.__setattr__(self, "_hash", hash((
            self.stream_id, self.src, self.dst, self.priority, self.period,
            self.length, self.deadline, self.latency or 0,
        )))

    def __hash__(self) -> int:
        return self._hash

    # ------------------------------------------------------------------ #

    def with_latency(self, latency: int) -> "MessageStream":
        """Return a copy of this stream with ``latency`` filled in."""
        return replace(self, latency=latency)

    def with_period(self, period: int) -> "MessageStream":
        """Return a copy with a different period (the paper's simulation
        inflates ``T_i`` to ``U_i`` when the bound exceeds the period)."""
        return replace(self, period=period)

    def utilization(self) -> float:
        """Return the stream's injection utilization ``C_i / T_i``."""
        return self.length / self.period


class StreamSet:
    """An ordered, id-keyed collection of message streams.

    The set enforces unique stream ids and offers the order the
    feasibility algorithm iterates over: streams sorted by decreasing
    priority, ties by id.
    """

    def __init__(self, streams: Iterable[MessageStream] = ()):
        self._streams: Dict[int, MessageStream] = {}
        self._order: List[int] = []
        self._sorted: Optional[Tuple[MessageStream, ...]] = None
        for s in streams:
            self.add(s)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add(self, stream: MessageStream) -> None:
        """Add a stream; raises :class:`StreamError` on duplicate ids."""
        if stream.stream_id in self._streams:
            raise StreamError(f"duplicate stream id {stream.stream_id}")
        self._streams[stream.stream_id] = stream
        self._order.append(stream.stream_id)
        self._sorted = None

    def remove(self, stream_id: int) -> MessageStream:
        """Remove and return the stream with the given id."""
        try:
            stream = self._streams.pop(stream_id)
        except KeyError:
            raise StreamError(f"no stream with id {stream_id}") from None
        self._order.remove(stream_id)
        self._sorted = None
        return stream

    def replace(self, stream: MessageStream) -> None:
        """Replace the stream with the same id, keeping insertion order."""
        if stream.stream_id not in self._streams:
            raise StreamError(f"no stream with id {stream.stream_id}")
        self._streams[stream.stream_id] = stream
        self._sorted = None

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #

    def __getitem__(self, stream_id: int) -> MessageStream:
        try:
            return self._streams[stream_id]
        except KeyError:
            raise StreamError(f"no stream with id {stream_id}") from None

    def __contains__(self, stream_id: object) -> bool:
        return stream_id in self._streams

    def __iter__(self) -> Iterator[MessageStream]:
        return (self._streams[i] for i in self._order)

    def __len__(self) -> int:
        return len(self._streams)

    def ids(self) -> Tuple[int, ...]:
        """Return the stream ids in insertion order."""
        return tuple(self._order)

    # ------------------------------------------------------------------ #
    # Groupings used by the algorithm
    # ------------------------------------------------------------------ #

    def sorted_by_priority(self) -> Tuple[MessageStream, ...]:
        """Return streams in non-increasing priority order (ties by id).

        Cached until the next mutation: the admission engine asks for
        this order on every report, with the set unchanged in between.
        """
        if self._sorted is None:
            self._sorted = tuple(
                sorted(self, key=lambda s: (-s.priority, s.stream_id))
            )
        return self._sorted

    def total_utilization(self) -> float:
        """Return the sum of per-stream injection utilizations."""
        return sum(s.utilization() for s in self)
