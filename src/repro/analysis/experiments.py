"""Experiment runners regenerating the paper's evaluation (Tables 1-5 and
the priority-level rule of section 5).

Each table is one configuration of the paper's workload (a number of
streams and a number of priority levels on a 10x10 mesh) pushed through the
full pipeline:

1. draw the random workload (:class:`~repro.sim.traffic.PaperWorkload`);
2. compute delay upper bounds with the proposed algorithm, inflating any
   period below its own bound (the paper: "If the calculated U_i is larger
   than T_i, we increased T_i to accommodate all generated traffics");
3. simulate 30000 flit times of the (inflated) workload on the flit-level
   preemptive network, discarding a 2000-flit-time warm-up;
4. report the actual/U ratio per priority level.

Reproduction notes: the paper does not state how the T-inflation interacts
with bounds of *other* streams (raising one stream's period loosens its
interference on everything below it), so :func:`inflate_periods` iterates
to a fixpoint with a pass cap and recomputes bounds after every pass; a
stream whose bound exceeds the search horizon gets its period doubled,
which mirrors "accommodate all generated traffic" for saturated sets. See
EXPERIMENTS.md for measured outcomes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.backends import KIM98, BoundBackend
from ..core.feasibility import FeasibilityAnalyzer
from ..core.streams import MessageStream, StreamSet
from ..errors import AnalysisError
from ..sim.stats import StatsCollector
from ..sim.traffic import PaperWorkload
from ..topology.mesh import Mesh2D
from ..topology.routing import RoutingAlgorithm, XYRouting
from .observe import observe
from .ratio import RatioStats, ratio_by_priority

__all__ = [
    "InflationResult",
    "inflate_periods",
    "TableResult",
    "run_table_experiment",
    "PAPER_TABLES",
    "run_paper_table",
    "priority_rule_sweep",
]


# ---------------------------------------------------------------------- #
# Period inflation
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class InflationResult:
    """Outcome of the period-inflation fixpoint."""

    streams: StreamSet
    upper_bounds: Dict[int, int]
    #: stream ids whose period was raised, with (original, final) periods.
    inflated: Dict[int, Tuple[int, int]]
    passes: int
    converged: bool
    #: HP-set member ids per stream (routes and priorities: T-independent).
    hp_ids: Dict[int, Tuple[int, ...]]


def inflate_periods(
    streams: StreamSet,
    routing: RoutingAlgorithm,
    *,
    backend: BoundBackend = KIM98,
    max_passes: int = 8,
    max_horizon: int = 1 << 18,
) -> InflationResult:
    """Raise periods below their own delay bound until none remains.

    Returns inflated streams plus the bounds computed on the **final**
    stream set, so ratios compare simulation and analysis of the same
    workload. Streams whose bound exceeds ``max_horizon`` have their period
    doubled each pass (their HP interference is saturating); if the
    fixpoint is not reached within ``max_passes`` the result is flagged
    ``converged=False`` and the last bounds are reported. ``backend``
    declares the analysis the bounds come from.
    """
    original = {s.stream_id: s.period for s in streams}
    current = StreamSet(streams)

    def analyse() -> Tuple[FeasibilityAnalyzer, Dict[int, int]]:
        analyzer = FeasibilityAnalyzer(current, routing, backend=backend)
        return analyzer, analyzer.all_upper_bounds(max_horizon=max_horizon)

    converged = False
    passes = 0
    for passes in range(1, max_passes + 1):
        analyzer, bounds = analyse()
        changed = False
        for s in list(current):
            u = bounds[s.stream_id]
            new_period = None
            if u < 0:
                new_period = s.period * 2
            elif u > s.period:
                new_period = u
            if new_period is not None:
                current.replace(
                    s.with_period(new_period).with_latency(s.latency)
                )
                changed = True
        if not changed:
            converged = True
            break
    # Bounds must describe the final stream set.
    if not converged:
        analyzer, bounds = analyse()
    inflated = {
        sid: (orig, current[sid].period)
        for sid, orig in original.items()
        if current[sid].period != orig
    }
    return InflationResult(
        streams=current,
        upper_bounds=bounds,
        inflated=inflated,
        passes=passes,
        converged=converged,
        hp_ids={sid: analyzer.hp_sets[sid].ids() for sid in bounds},
    )


# ---------------------------------------------------------------------- #
# Table experiments
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class TableResult:
    """One regenerated table: ratios per priority level plus provenance."""

    name: str
    num_streams: int
    priority_levels: int
    seed: Optional[int]
    rows: Dict[int, RatioStats]
    upper_bounds: Dict[int, int]
    stats: StatsCollector
    streams: StreamSet
    inflation: InflationResult
    sim_time: int
    warmup: int
    wall_seconds: float

    def highest_priority_ratio(self) -> float:
        """Mean ratio of the highest priority level present."""
        top = max(self.rows)
        return self.rows[top].mean

    def lowest_priority_ratio(self) -> float:
        """Mean ratio of the lowest priority level present."""
        bottom = min(self.rows)
        return self.rows[bottom].mean


def run_table_experiment(
    *,
    name: str,
    num_streams: int,
    priority_levels: int,
    seed: Optional[int] = 0,
    sim_time: int = 30_000,
    warmup: int = 2_000,
    mesh_width: int = 10,
    mesh_height: int = 10,
    max_horizon: int = 1 << 18,
    workload: Optional[PaperWorkload] = None,
) -> TableResult:
    """Run one full table configuration end to end.

    ``workload`` overrides the default paper generator (used by ablations
    that vary the traffic constants).
    """
    t0 = time.perf_counter()
    mesh = Mesh2D(mesh_width, mesh_height)
    routing = XYRouting(mesh)
    wl = workload or PaperWorkload(
        num_streams=num_streams,
        priority_levels=priority_levels,
        seed=seed,
    )
    drawn = wl.generate(mesh)
    inflation = inflate_periods(drawn, routing, max_horizon=max_horizon)
    streams = inflation.streams
    stats = observe(
        routing, streams, sim_time=sim_time,
        bounds={"kim98": inflation.upper_bounds},
        hp_ids=inflation.hp_ids, warmup=warmup,
    ).stats
    rows = ratio_by_priority(streams, inflation.upper_bounds, stats)
    return TableResult(
        name=name,
        num_streams=num_streams,
        priority_levels=priority_levels,
        seed=seed,
        rows=rows,
        upper_bounds=inflation.upper_bounds,
        stats=stats,
        streams=streams,
        inflation=inflation,
        sim_time=sim_time,
        warmup=warmup,
        wall_seconds=time.perf_counter() - t0,
    )


#: The paper's table configurations: (num_streams, priority_levels).
PAPER_TABLES: Dict[str, Tuple[int, int]] = {
    "table1": (20, 1),
    "table2": (60, 1),
    "table3": (20, 4),
    "table4": (20, 5),
    "table5": (60, 15),
}


def run_paper_table(
    table: str, *, seed: Optional[int] = 0, **kwargs
) -> TableResult:
    """Run one of the paper's five tables by name (``"table1"``..)."""
    try:
        num_streams, levels = PAPER_TABLES[table]
    except KeyError:
        raise AnalysisError(
            f"unknown table {table!r}; expected one of {sorted(PAPER_TABLES)}"
        ) from None
    return run_table_experiment(
        name=table,
        num_streams=num_streams,
        priority_levels=levels,
        seed=seed,
        **kwargs,
    )


# ---------------------------------------------------------------------- #
# The |M|/4 priority-level rule (section 5)
# ---------------------------------------------------------------------- #


def priority_rule_sweep(
    *,
    num_streams: int = 20,
    levels: Sequence[int] = (1, 2, 3, 4, 5, 6, 8, 10),
    seed: Optional[int] = 0,
    sim_time: int = 30_000,
    warmup: int = 2_000,
    **kwargs,
) -> Dict[int, TableResult]:
    """Sweep the number of priority levels at fixed |M|.

    The paper's finding: "at least (1/4)|M| priority levels are needed to
    have the ratio of the highest priority level be higher than 0.9". The
    returned map (levels -> table result) lets the benchmark check where the
    highest-priority ratio crosses 0.9.
    """
    out: Dict[int, TableResult] = {}
    for lv in levels:
        out[lv] = run_table_experiment(
            name=f"rule_|M|={num_streams}_L={lv}",
            num_streams=num_streams,
            priority_levels=lv,
            seed=seed,
            sim_time=sim_time,
            warmup=warmup,
            **kwargs,
        )
    return out
