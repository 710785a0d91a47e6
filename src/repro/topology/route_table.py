"""Memoised all-pairs route tables, shared across engine instances.

Routes are pure functions of (routing class, topology structure): the
same deterministic routing algorithm on structurally identical
topologies produces identical paths forever. The admission engine asks
for the *channel set* of a route on every attach — and with tens of
(src, dst) pairs recurring across the lifetime of a broker (and across
the several engines a process may host: servers, benchmarks, replicas),
per-engine caches rediscover the same frozensets over and over
(PR 3's 60-stream churn recorded 127 misses against 1 hit; see
EXPERIMENTS.md, "PR 20").

:func:`shared_route_table` keys a process-wide table on
``(routing class name, topology.signature())`` so every engine bound to
an equivalent network shares one lazily-filled all-pairs map. The table
*survives* ``invalidate_caches`` storms by recompute-on-demand: clearing
it is always safe (entries are derived data, never a source of truth)
and the next lookup repopulates from the routing function.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from .base import Channel
from .routing import RoutingAlgorithm

__all__ = ["RouteTable", "shared_route_table", "clear_shared_route_tables"]


class RouteTable:
    """Lazy all-pairs ``(src, dst) -> frozenset(channels)`` memo.

    Bound to one routing function; entries are computed on first lookup
    and immutable afterwards. ``clear()`` drops every entry (the
    chaos-campaign storm path) — correctness never depends on the table
    being warm.
    """

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

    def channels(self, src: int, dst: int) -> FrozenSet[Channel]:
        """Return the directed channel set of the route for the pair."""
        return self.lookup(src, dst)[0]

    def clear(self) -> None:
        """Drop every memoised pair (recomputed on demand)."""
        self._channels.clear()

    def __len__(self) -> int:
        return len(self._channels)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RouteTable({type(self.routing).__name__}, "
            f"pairs={len(self._channels)})"
        )


_SHARED: Dict[Tuple, RouteTable] = {}


def shared_route_table(routing: RoutingAlgorithm) -> RouteTable:
    """Return the process-wide route table for the routing function.

    Keyed on ``(routing signature, topology signature)``: two engines
    over structurally identical networks with equivalent routing
    functions get the *same* table object, so one engine's lookups warm
    the other's. Parameterised routings (loaded tables, failed-link
    sets) fold their parameters into
    :meth:`~repro.topology.routing.RoutingAlgorithm.signature`, so two
    brokers degraded by *different* link failures never share a table.
    """
    key = (routing.signature(), routing.topology.signature())
    table = _SHARED.get(key)
    if table is None:
        table = RouteTable(routing)
        _SHARED[key] = table
    return table


def clear_shared_route_tables() -> None:
    """Drop every shared table entirely (tests and benchmarks)."""
    _SHARED.clear()
