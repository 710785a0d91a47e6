"""Workload generation: the paper's simulation traffic model.

Section 5 of the paper fixes the following workload for its tables (numeric
constants reconstructed from the OCR-damaged text; see DESIGN.md):

* 10x10 two-dimensional mesh, X-Y routing;
* each processing node sources **at most one** message stream;
* the destination of each stream is chosen with a spatial uniform
  distribution (any other node, uniformly);
* maximum message size ``C_i`` uniform on ``[10, 40]`` flits;
* minimum inter-generation time ``T_i`` uniform on ``[400, 900]`` flit
  times;
* every stream is periodic; priorities are assigned uniformly over the
  available priority levels ("each message stream has a priority value P_i
  with probability 1/(number of priority levels)");
* runs last 30000 flit times with the first 2000 discarded as start-up.

:class:`PaperWorkload` reproduces that generator with every constant
exposed as a parameter, plus helpers for release phases. All randomness
draws from a seeded :class:`numpy.random.Generator` so experiments are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.streams import MessageStream, StreamSet
from ..errors import SimulationError
from ..topology.base import Topology

__all__ = [
    "PaperWorkload",
    "random_phases",
]


@dataclass
class PaperWorkload:
    """Random periodic-stream workload generator (paper section 5).

    Parameters mirror the paper's constants; ``priority_levels`` is the
    table parameter (1, 4, 5 or 15 in the paper) and ``num_streams`` is 20
    or 60. Priorities are the integers ``1 .. priority_levels`` with larger
    values meaning higher priority, matching :class:`~repro.core.streams.MessageStream`.
    """

    num_streams: int
    priority_levels: int
    length_range: Tuple[int, int] = (10, 40)
    period_range: Tuple[int, int] = (400, 900)
    #: Deadline assigned to generated streams, as a multiple of the period.
    #: The paper's tables never test deadlines (they compare U against
    #: measured latency), so the conventional D = T is the default.
    deadline_factor: float = 1.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_streams < 1:
            raise SimulationError("num_streams must be >= 1")
        if self.priority_levels < 1:
            raise SimulationError("priority_levels must be >= 1")
        lo, hi = self.length_range
        if not (1 <= lo <= hi):
            raise SimulationError(f"bad length_range {self.length_range}")
        lo, hi = self.period_range
        if not (1 <= lo <= hi):
            raise SimulationError(f"bad period_range {self.period_range}")
        if self.deadline_factor <= 0:
            raise SimulationError("deadline_factor must be positive")

    def generate(self, topology: Topology) -> StreamSet:
        """Draw a stream set over ``topology``.

        Sources are distinct nodes (at most one stream per node, as in the
        paper); each destination is uniform over the other nodes.
        """
        n = topology.num_nodes
        if self.num_streams > n:
            raise SimulationError(
                f"cannot place {self.num_streams} single-source streams on "
                f"{n} nodes"
            )
        rng = np.random.default_rng(self.seed)
        sources = rng.choice(n, size=self.num_streams, replace=False)
        streams = StreamSet()
        for i, src in enumerate(int(s) for s in sources):
            dst = int(rng.integers(0, n - 1))
            if dst >= src:
                dst += 1  # uniform over nodes != src
            length = int(rng.integers(self.length_range[0],
                                      self.length_range[1] + 1))
            period = int(rng.integers(self.period_range[0],
                                      self.period_range[1] + 1))
            priority = int(rng.integers(1, self.priority_levels + 1))
            deadline = max(1, int(round(period * self.deadline_factor)))
            streams.add(
                MessageStream(
                    stream_id=i,
                    src=src,
                    dst=dst,
                    priority=priority,
                    period=period,
                    length=length,
                    deadline=deadline,
                )
            )
        return streams


def random_phases(
    streams: StreamSet, seed: Optional[int] = None
) -> Dict[int, int]:
    """Independent uniform release offsets in ``[0, T_i)`` per stream.

    Useful as a robustness check: the measured average latency should not
    depend strongly on the release alignment once the run is long relative
    to the periods.
    """
    rng = np.random.default_rng(seed)
    return {
        s.stream_id: int(rng.integers(0, s.period)) for s in streams
    }
