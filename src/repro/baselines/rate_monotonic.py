"""Rate-monotonic utilization test over network links (Mutka-style baseline).

Mutka proposed checking schedulability of periodic wormhole traffic with
rate-monotonic scheduling theory; the paper's related-work section argues
that "because of the blocking characteristic of wormhole networks, mere
application of the rate monotonic algorithm to real-time message traffic is
not appropriate". This module implements the naive approach so the claim
can be examined quantitatively:

* each directed channel is treated as a processor;
* the streams whose routes cross it are its task set with utilization
  ``C_i / T_i``;
* the Liu & Layland bound ``U(n) = n (2^{1/n} - 1)`` accepts the channel if
  the summed utilization is below it (``ln 2`` in the limit).

The test ignores inter-link coupling (a message must hold *all* its
channels simultaneously) and priority-inversion blocking, so it is
optimistic about feasibility in exactly the way the paper criticises: a
stream set can pass every per-link RM test and still miss deadlines in
simulation. ``benchmarks/bench_ablation_arbiter.py`` and
``tests/test_baselines.py`` exercise the comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from ..core.streams import StreamSet
from ..errors import AnalysisError
from ..topology.base import Channel
from ..topology.routing import RoutingAlgorithm

__all__ = ["liu_layland_bound", "LinkVerdict", "RMLinkAnalysis", "rm_link_feasibility"]


def liu_layland_bound(n: int) -> float:
    """Return the Liu & Layland utilization bound ``n (2^(1/n) - 1)``."""
    if n < 0:
        raise AnalysisError(f"task count must be >= 0, got {n}")
    if n == 0:
        return 1.0
    return n * (2.0 ** (1.0 / n) - 1.0)


@dataclass(frozen=True)
class LinkVerdict:
    """RM verdict for one directed channel."""

    channel: Channel
    stream_ids: Tuple[int, ...]
    utilization: float
    bound: float

    @property
    def schedulable(self) -> bool:
        return self.utilization <= self.bound


@dataclass(frozen=True)
class RMLinkAnalysis:
    """Per-link RM verdicts plus the overall (naive) feasibility claim."""

    verdicts: Mapping[Channel, LinkVerdict]

    @property
    def feasible(self) -> bool:
        """Naive claim: feasible iff every used link passes its RM bound."""
        return all(v.schedulable for v in self.verdicts.values())


def rm_link_feasibility(
    streams: StreamSet, routing: RoutingAlgorithm
) -> RMLinkAnalysis:
    """Run the per-link rate-monotonic utilization test.

    Only links actually crossed by at least one stream receive a verdict.
    Note the test is priority-agnostic: RM assumes priorities are assigned
    by rate, which the paper's workloads do **not** do — one more reason the
    naive transfer of RM theory is inappropriate here.
    """
    per_link: Dict[Channel, list] = {}
    for s in streams:
        for ch in routing.route_channels(s.src, s.dst):
            per_link.setdefault(ch, []).append(s)
    verdicts = {}
    for ch, members in per_link.items():
        util = sum(m.utilization() for m in members)
        verdicts[ch] = LinkVerdict(
            channel=ch,
            stream_ids=tuple(sorted(m.stream_id for m in members)),
            utilization=util,
            bound=liu_layland_bound(len(members)),
        )
    return RMLinkAnalysis(verdicts=verdicts)
