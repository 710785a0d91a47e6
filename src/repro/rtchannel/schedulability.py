"""Holistic end-to-end delay bounds for store-and-forward channels.

The real-time-channel line of work (Ferrari & Verma; Kandlur, Shin &
Ferrari) guarantees end-to-end deadlines compositionally: each link is a
non-preemptive uniprocessor, a per-link worst-case response time is
computed, and per-link results compose along the route. We implement the
classical *holistic* form (response-time analysis with release-jitter
propagation, after Tindell & Clark):

Per link ``l`` and stream ``i`` (priorities: larger = more important):

1. blocking ``B = max C_j`` over lower-priority streams on ``l`` (a
   started packet transmission cannot be preempted);
2. the start-delay fixed point
   ``s = B + sum_{j in hp(i,l)} (floor((s + J_j,l) / T_j) + 1) * C_j``
   where ``J_{j,l}`` is stream ``j``'s release jitter at ``l``;
3. the link response ``R_{i,l} = s + C_i``;
4. jitter propagation: ``J_{i, next link} = sum of responses so far minus
   the best case (C_i per link)``.

Passes repeat until every jitter is stable (jitters grow monotonically, so
the iteration converges or overflows the divergence cap). The end-to-end
bound is the sum of per-link responses. Equal-priority streams are treated
as mutually higher-priority (each can delay the other), keeping the bound
sound for the tie-breaking FIFO arbitration of the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.streams import MessageStream, StreamSet
from ..errors import AnalysisError
from ..topology.base import Channel
from ..topology.routing import RoutingAlgorithm

__all__ = ["LinkResponse", "HolisticResult", "holistic_bounds"]


@dataclass(frozen=True)
class LinkResponse:
    """Worst-case response of one stream at one link of its route."""

    channel: Channel
    blocking: int
    start_delay: int
    response: int
    jitter_in: int


@dataclass(frozen=True)
class HolisticResult:
    """End-to-end outcome for one stream."""

    stream_id: int
    #: Sum of per-link responses; ``-1`` when the iteration diverged.
    bound: int
    links: Tuple[LinkResponse, ...]
    converged: bool


def _link_response(
    stream: MessageStream,
    channel: Channel,
    members: Mapping[Channel, List[MessageStream]],
    jitter: Mapping[Tuple[int, Channel], int],
    jitter_in: int,
    *,
    max_bound: int,
) -> Optional[LinkResponse]:
    """Solve the non-preemptive start-delay fixed point at one link."""
    here = members[channel]
    hp = [m for m in here
          if m.stream_id != stream.stream_id
          and m.priority >= stream.priority]
    lp = [m for m in here
          if m.stream_id != stream.stream_id
          and m.priority < stream.priority]
    blocking = max((m.length for m in lp), default=0)
    s = blocking
    while True:
        interference = sum(
            ((s + jitter.get((m.stream_id, channel), 0)) // m.period + 1)
            * m.length
            for m in hp
        )
        nxt = blocking + interference
        if nxt == s:
            break
        if nxt > max_bound:
            return None
        s = nxt
    return LinkResponse(
        channel=channel,
        blocking=blocking,
        start_delay=s,
        response=s + stream.length,
        jitter_in=jitter_in,
    )


def holistic_bounds(
    streams: StreamSet,
    routing: RoutingAlgorithm,
    *,
    max_passes: int = 64,
    max_bound: int = 1 << 22,
) -> Dict[int, HolisticResult]:
    """Compute holistic end-to-end bounds for every stream.

    Returns per-stream results; a diverged stream (per-link demand at or
    above capacity, or jitters that never settle within ``max_passes``)
    reports ``bound == -1``.
    """
    if len(streams) == 0:
        raise AnalysisError("empty stream set")
    routes: Dict[int, Tuple[Channel, ...]] = {
        s.stream_id: routing.route_channels(s.src, s.dst) for s in streams
    }
    members: Dict[Channel, List[MessageStream]] = {}
    for s in streams:
        for ch in routes[s.stream_id]:
            members.setdefault(ch, []).append(s)

    #: (stream_id, channel) -> release jitter at that link.
    jitter: Dict[Tuple[int, Channel], int] = {}
    results: Dict[int, HolisticResult] = {}
    diverged: set[int] = set()

    for _ in range(max_passes):
        changed = False
        for s in streams:
            if s.stream_id in diverged:
                continue
            links: List[LinkResponse] = []
            acc_jitter = 0
            ok = True
            for ch in routes[s.stream_id]:
                new_j = acc_jitter
                old_j = jitter.get((s.stream_id, ch), 0)
                if new_j > old_j:
                    jitter[(s.stream_id, ch)] = new_j
                    changed = True
                resp = _link_response(
                    s, ch, members, jitter, new_j, max_bound=max_bound
                )
                if resp is None:
                    ok = False
                    break
                links.append(resp)
                acc_jitter += resp.response - s.length
            if not ok:
                diverged.add(s.stream_id)
                results[s.stream_id] = HolisticResult(
                    s.stream_id, -1, (), False
                )
                continue
            bound = sum(l.response for l in links)
            if bound > max_bound:
                diverged.add(s.stream_id)
                results[s.stream_id] = HolisticResult(
                    s.stream_id, -1, (), False
                )
                continue
            results[s.stream_id] = HolisticResult(
                s.stream_id, bound, tuple(links), True
            )
        if not changed:
            break
    else:
        # Jitters still moving after max_passes: flag everything still
        # marked converged=True as non-converged (bounds kept as computed,
        # which is optimistic — callers must check the flag).
        results = {
            sid: HolisticResult(r.stream_id, r.bound, r.links, False)
            if sid not in diverged else r
            for sid, r in results.items()
        }
    return results
