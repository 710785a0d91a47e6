"""The one analyse → simulate → compare step.

Every place that holds a delay bound against the flit-level simulator
calls :func:`observe`: the paper tables, the fuzz oracle, the link-fault
check and the F-6 exhibit. It simulates once and reads the run against
one bound map per backend, over the one admitted scope
(:func:`admitted_scope`, finding F-7 of EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..core.streams import StreamSet
from ..sim.network import WormholeSimulator
from ..sim.stats import StatsCollector
from ..topology.routing import RoutingAlgorithm

__all__ = ["Observation", "admitted_scope", "observe"]


def admitted_scope(
    streams: Iterable,
    bounds: Mapping[int, int],
    hp_ids: Mapping[int, Tuple[int, ...]],
) -> Tuple[int, ...]:
    """Streams whose bound the analysis actually stands behind.

    ``0 < U <= min(T, D)`` must hold for the stream and for every member
    of its transitive HP closure (``hp_ids``). The ``min`` with the
    period keeps a stream's queueing behind its own previous message,
    which the analysis never covers, out of the comparison; the closure
    condition holds because the timing diagram confines each HP member
    instance to its own period window, which models reality only while
    that member finishes within its window.
    """
    by_id = {s.stream_id: s for s in streams}
    ok = {
        sid for sid, u in bounds.items()
        if 0 < u <= min(by_id[sid].period, by_id[sid].deadline)
    }
    changed = True
    while changed:
        changed = False
        for sid in sorted(ok):
            if any(m != sid and m not in ok for m in hp_ids.get(sid, ())):
                ok.discard(sid)
                changed = True
    return tuple(sorted(ok))


@dataclass(frozen=True)
class Observation:
    """One simulation run read against named bound maps."""

    stats: StatsCollector
    #: Per stream that produced samples.
    max_observed: Dict[int, int]
    mean_observed: Dict[int, float]
    bounds: Mapping[str, Mapping[int, int]]
    #: Per bound map, its :func:`admitted_scope`.
    admitted: Dict[str, Tuple[int, ...]]

    def excesses(
        self, name: str, *, bound_delta: int = 0
    ) -> Tuple[Tuple[int, int, int], ...]:
        """``(stream id, observed max, bound)`` for every admitted stream
        of ``name`` observed above its bound, by id.

        A positive ``bound_delta`` first weakens every bound to
        ``max(1, U - bound_delta)`` (the fuzz self-test's broken analysis).
        """
        out = []
        for sid in self.admitted[name]:
            observed = self.max_observed.get(sid)
            u = max(1, self.bounds[name][sid] - bound_delta)
            if observed is not None and observed > u:
                out.append((sid, observed, u))
        return tuple(out)


def observe(
    routing: RoutingAlgorithm,
    streams: StreamSet,
    *,
    sim_time: int,
    bounds: Mapping[str, Mapping[int, int]],
    hp_ids: Mapping[int, Tuple[int, ...]],
    phases: Optional[Mapping[int, int]] = None,
    warmup: int = 0,
) -> Observation:
    """Simulate ``streams`` once on ``routing.topology`` (a degraded one
    under :class:`~repro.topology.FaultAwareRouting`) and compare the run
    with ``bounds`` (name -> stream id -> U). ``phases`` are release
    offsets (default: the critical instant); releases before ``warmup``
    are not sampled. Simulator errors propagate."""
    sim = WormholeSimulator(routing.topology, routing, streams, warmup=warmup)
    stats = sim.simulate_streams(sim_time, phases=phases)
    summary = stats.all_stream_stats()
    return Observation(
        stats=stats,
        max_observed={sid: s.maximum for sid, s in summary.items()},
        mean_observed={sid: s.mean for sid, s in summary.items()},
        bounds=bounds,
        admitted={
            name: admitted_scope(streams, own, hp_ids)
            for name, own in bounds.items()
        },
    )
