"""A lazy all-pairs table of route channel sets.

Only the benchmark ladder builds one, to time a network's first
all-pairs route fill. The admission engine reads routes through its
routing's own path memo (:attr:`RoutingAlgorithm.route_memo
<repro.topology.routing.RoutingAlgorithm.route_memo>`) and keeps each
live stream's channel set in its blocking index.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from .base import Channel
from .routing import RoutingAlgorithm

__all__ = ["RouteTable"]


class RouteTable:
    """Lazy all-pairs ``(src, dst) -> frozenset(channels)`` memo over
    one routing function; an entry is computed on its first lookup."""

    __slots__ = ("routing", "_channels")

    def __init__(self, routing: RoutingAlgorithm):
        self.routing = routing
        self._channels: Dict[Tuple[int, int], FrozenSet[Channel]] = {}

    def lookup(
        self, src: int, dst: int
    ) -> Tuple[FrozenSet[Channel], bool]:
        """Return ``(channel set, was_cached)`` for the pair."""
        key = (src, dst)
        chans = self._channels.get(key)
        if chans is not None:
            return chans, True
        chans = frozenset(self.routing.route_channels(src, dst))
        self._channels[key] = chans
        return chans, False

    def __len__(self) -> int:
        return len(self._channels)
