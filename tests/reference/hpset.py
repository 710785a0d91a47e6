"""HP sets by the rule of section 4.1, pair by pair: the oracle for
:class:`repro.core.hpset.BlockingIndex`.

``direct_blockers`` scans every pair of streams for a shared channel at
equal or higher priority, and ``build_hp_set`` walks the blocked-by
relation from one stream, then from each member, to find the indirect
elements and the interior of their blocking chains. Nothing here reads
the index: :func:`oracle_analyzer` hands these structures to
``FeasibilityAnalyzer.from_prepared``, so an analyzer built here and one
built by the normal constructor are two independent derivations.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional, Tuple, Union

from repro.core import backends
from repro.core.feasibility import FeasibilityAnalyzer
from repro.core.hpset import HPEntry, HPSet, stream_channels
from repro.core.latency import LatencyModel, NoLoadLatency
from repro.core.streams import MessageStream, StreamSet
from repro.topology.base import Channel
from repro.topology.routing import RoutingAlgorithm

__all__ = ["build_hp_set", "direct_blockers", "oracle_analyzer",
           "oracle_hp_sets"]


def direct_blockers(
    streams: StreamSet,
    channels: Mapping[int, FrozenSet[Channel]],
) -> Dict[int, Tuple[int, ...]]:
    """Return, per stream id, the ids that *directly* block it.

    A stream is directly blocked by every distinct stream of equal or higher
    priority whose route shares a directed channel with it.
    """
    out: Dict[int, Tuple[int, ...]] = {}
    all_streams = tuple(streams)
    for sj in all_streams:
        cj = channels[sj.stream_id]
        blockers = [
            sk.stream_id
            for sk in all_streams
            if sk.stream_id != sj.stream_id
            and sk.priority >= sj.priority
            and not cj.isdisjoint(channels[sk.stream_id])
        ]
        out[sj.stream_id] = tuple(sorted(blockers))
    return out


def build_hp_set(
    stream: MessageStream,
    blockers: Mapping[int, Tuple[int, ...]],
) -> HPSet:
    """Construct ``HP_j`` for one stream from the direct-blocking relation.

    Indirect elements are found by forward traversal of the direct-blocking
    relation starting at ``stream``; the intermediates of an indirect element
    ``K`` are all streams reachable from ``stream`` from which ``K`` is in
    turn reachable (i.e. the interior nodes of every blocking chain).
    """
    j = stream.stream_id
    direct = set(blockers[j])

    # Transitive closure of the blocked-by relation from j.
    reachable: set[int] = set()
    frontier = list(direct)
    while frontier:
        k = frontier.pop()
        if k in reachable:
            continue
        reachable.add(k)
        frontier.extend(blockers[k])
    indirect = reachable - direct - {j}

    hp = HPSet(j)
    for k in sorted(direct):
        hp.add(HPEntry.direct(k))
    if indirect:
        # descendants[r] = streams reachable from r via blocked-by edges.
        desc_cache: Dict[int, FrozenSet[int]] = {}

        def descendants(r: int) -> FrozenSet[int]:
            cached = desc_cache.get(r)
            if cached is not None:
                return cached
            seen: set[int] = set()
            stack = list(blockers[r])
            while stack:
                x = stack.pop()
                if x in seen:
                    continue
                seen.add(x)
                stack.extend(blockers[x])
            out = frozenset(seen)
            desc_cache[r] = out
            return out

        for k in sorted(indirect):
            # Interior nodes of any blocking chain j -> ... -> k: reachable
            # from j, and k reachable from them. Same-priority mutual
            # blocking creates cycles, so j itself may appear in `reachable`
            # and must be excluded explicitly.
            ins = frozenset(
                r for r in reachable
                if r != k and r != j and k in descendants(r)
            )
            hp.add(HPEntry.indirect(k, ins))
    return hp


def oracle_hp_sets(
    streams: StreamSet,
    channels: Mapping[int, FrozenSet[Channel]],
) -> Dict[int, HPSet]:
    """Every stream's HP set, one traversal per stream."""
    blockers = direct_blockers(streams, channels)
    return {s.stream_id: build_hp_set(s, blockers) for s in streams}


def oracle_analyzer(
    streams: StreamSet,
    routing: RoutingAlgorithm,
    *,
    backend: Union[str, backends.BoundBackend] = "kim98",
    latency_model: Optional[LatencyModel] = None,
) -> FeasibilityAnalyzer:
    """An analyzer of ``backend`` (a registered name or a declaration)
    whose routes, latencies, blockers and HP sets all come from this
    module: what the normal constructor derives, derived again without
    the index. Its verdicts run on plans built from those HP sets."""
    latency_model = latency_model or NoLoadLatency()
    channels = stream_channels(streams, routing)
    resolved = StreamSet(
        s if s.latency is not None
        else s.with_latency(
            latency_model.latency(s, len(channels[s.stream_id])))
        for s in streams
    )
    return FeasibilityAnalyzer.from_prepared(
        resolved, channels, direct_blockers(resolved, channels),
        oracle_hp_sets(resolved, channels),
        backend=backends.get(backend) if isinstance(backend, str)
        else backend,
    )
