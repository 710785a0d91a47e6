"""Classical (non-preemptive) wormhole switching baseline.

Traditional wormhole routers have no priority handling: a physical channel
is monopolised by whichever message holds it until the tail flit passes, and
a blocked message holds *its* channels while waiting. The paper's Fig. 2
shows the consequence — **priority inversion**: a top-priority message can
be blocked indefinitely behind lower-priority traffic.

This module runs the same workload twice on the same simulator, once with
the paper's per-priority preemptive VCs and once with single-VC classical
wormhole switching, and reports the per-priority latency blow-up. It also
provides :func:`priority_inversion_scenario`, a deterministic three-way
contention pattern in the spirit of Fig. 2 in which the highest-priority
stream shares its path prefix with a lower-priority stream while
medium-priority cross traffic keeps the contended channel busy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.streams import MessageStream, StreamSet
from ..errors import SimulationError
from ..sim.arbiter import ChannelArbiter, PriorityPreemptiveArbiter
from ..sim.network import WormholeSimulator
from ..sim.stats import DelayStats, StatsCollector
from ..topology.mesh import Mesh2D
from ..topology.routing import RoutingAlgorithm, XYRouting

__all__ = [
    "InversionComparison",
    "compare_arbitration",
    "priority_inversion_scenario",
]


@dataclass(frozen=True)
class InversionComparison:
    """Latency statistics of one workload under both switching modes."""

    preemptive: Dict[int, DelayStats]
    classical: Dict[int, DelayStats]

    def blowup(self, priority: int) -> float:
        """Mean-latency factor classical/preemptive for one priority level."""
        return (
            self.classical[priority].mean / self.preemptive[priority].mean
        )


def compare_arbitration(
    topology: Mesh2D,
    routing: RoutingAlgorithm,
    streams: StreamSet,
    *,
    until: int = 30_000,
    warmup: int = 2_000,
    arbiter: Optional[ChannelArbiter] = None,
) -> InversionComparison:
    """Run a workload under preemptive and classical wormhole switching.

    Both runs use identical release schedules (zero phases), so differences
    are purely due to the switching mode.
    """
    results = []
    for vc_mode in ("per_priority", "single"):
        sim = WormholeSimulator(
            topology,
            routing,
            streams,
            vc_mode=vc_mode,
            warmup=warmup,
            arbiter=arbiter or PriorityPreemptiveArbiter(),
        )
        stats = sim.simulate_streams(until)
        results.append(stats.priority_stats())
    return InversionComparison(preemptive=results[0], classical=results[1])


def priority_inversion_scenario(
    *, width: int = 10, height: int = 10
) -> Tuple[Mesh2D, XYRouting, StreamSet]:
    """Build the Fig. 2-style contention pattern on a 2-D mesh.

    Streams (priorities as in the figure: larger = more important):

    * ``A`` — priority 2, long messages, enters the contended row early and
      holds the shared channels;
    * ``1``/``2``/``n`` — priority 3 cross traffic injected part-way along
      the row, keeping the contended output channel busy whenever it frees;
    * ``B`` — priority 4 (highest), short urgent messages sharing the row
      prefix with ``A``.

    Under classical wormhole switching ``B`` repeatedly loses the channel to
    the priority-3 traffic and to ``A``'s residency (priority inversion);
    under the paper's preemptive VCs its latency stays near the no-load
    value.
    """
    if width < 8 or height < 2:
        raise SimulationError("scenario needs at least an 8x2 mesh")
    mesh = Mesh2D(width, height)
    routing = XYRouting(mesh)
    y = height // 2
    right = width - 1
    streams = StreamSet(
        [
            # A: low-priority bulk traffic over the whole row.
            MessageStream(
                0,
                mesh.node_xy(0, y),
                mesh.node_xy(right, y),
                priority=2,
                period=60,
                length=40,
                deadline=10_000,
            ),
            # Medium-priority cross traffic injected mid-row.
            MessageStream(
                1,
                mesh.node_xy(3, y),
                mesh.node_xy(right, y),
                priority=3,
                period=50,
                length=25,
                deadline=10_000,
            ),
            MessageStream(
                2,
                mesh.node_xy(4, y),
                mesh.node_xy(right, y),
                priority=3,
                period=55,
                length=25,
                deadline=10_000,
            ),
            # B: highest priority, shares the row prefix with A.
            MessageStream(
                3,
                mesh.node_xy(1, y),
                mesh.node_xy(right, y),
                priority=4,
                period=200,
                length=6,
                deadline=10_000,
            ),
        ]
    )
    return mesh, routing, streams
