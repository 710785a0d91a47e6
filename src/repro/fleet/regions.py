"""Channel-set regions: the unit of stream placement in the fleet.

Why channels and not a static grid partition: in the Kim98 analysis a
stream's delay bound is a pure function of the stream and its transitive
higher-priority closure over *shared channels* (finding F-7). Two
admitted sets that never share a channel — directly or through a chain
of intermediaries — cannot influence each other's bounds, so they can
live in different engines with bit-identical verdicts. The closure is
*transitive*, though, which rules out any fixed partition of the channel
space: one new stream can stitch two previously independent groups
together. The sound unit of placement is therefore the *dynamic*
channel-connected component of the admitted set, and this module
maintains exactly that index:

* every admitted stream's channel set (from the shared route table,
  so the fleet and its engines always agree on routes);
* the inverted channel -> streams map, from which connected components
  are discovered by expansion when a placement decision needs them.

The shard manager (:mod:`repro.fleet.shards`) keeps the invariant that
one component never spans two shards; this module only answers the
queries that invariant is maintained with.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from ..topology.base import Topology
from ..topology.route_table import RouteTable

__all__ = ["ChannelIndex", "entry_channels"]

Channel = Tuple[int, int]


def entry_channels(
    route_table: RouteTable, topology: Topology, src: int, dst: int
) -> FrozenSet[Channel]:
    """The channel set a stream from ``src`` to ``dst`` occupies.

    Routed through the shared route table (PR 6), so the placement layer
    sees exactly the channels the admission engines will analyse.
    """
    channels, _ = route_table.lookup(src, dst)
    return channels


class ChannelIndex:
    """Inverted index from channels to the admitted streams using them.

    Tracks one tenant's admitted set across all shards. ``components``
    answers the only structural question placement needs: which admitted
    streams are channel-connected (transitively) to a new batch's
    channel set.
    """

    def __init__(self) -> None:
        self._channels: Dict[int, FrozenSet[Channel]] = {}
        self._users: Dict[Channel, Set[int]] = {}

    def __contains__(self, sid: int) -> bool:
        return sid in self._channels

    def __len__(self) -> int:
        return len(self._channels)

    def ids(self) -> List[int]:
        return sorted(self._channels)

    def add(self, sid: int, channels: FrozenSet[Channel]) -> None:
        if sid in self._channels:  # pragma: no cover - caller invariant
            raise ValueError(f"stream {sid} already indexed")
        self._channels[sid] = channels
        for ch in channels:
            self._users.setdefault(ch, set()).add(sid)

    def remove(self, sid: int) -> None:
        channels = self._channels.pop(sid)
        for ch in channels:
            users = self._users[ch]
            users.discard(sid)
            if not users:
                del self._users[ch]

    def touching(self, channels: Iterable[Channel]) -> Set[int]:
        """Admitted streams sharing at least one channel with ``channels``."""
        out: Set[int] = set()
        for ch in channels:
            out.update(self._users.get(ch, ()))
        return out

    def component(self, channels: Iterable[Channel]) -> Set[int]:
        """The union of channel-connected components touching ``channels``.

        Expansion to a fixed point: start from the streams sharing a
        channel with the seed set, then repeatedly pull in streams
        sharing a channel with anything already reached. The result is
        every admitted stream whose verdict could interact — in either
        direction, now or after the seed is admitted — with a stream
        routed over ``channels``.
        """
        frontier = self.touching(channels)
        seen: Set[int] = set()
        while frontier:
            sid = frontier.pop()
            if sid in seen:
                continue
            seen.add(sid)
            for neighbour in self.touching(self._channels[sid]):
                if neighbour not in seen:
                    frontier.add(neighbour)
        return seen

    def components(self) -> List[Set[int]]:
        """All channel-connected components of the indexed set."""
        remaining = set(self._channels)
        out: List[Set[int]] = []
        while remaining:
            sid = next(iter(remaining))
            comp = self.component(self._channels[sid]) | {sid}
            out.append(comp)
            remaining -= comp
        return out
