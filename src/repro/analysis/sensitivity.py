"""Sensitivity sweeps: how the bound's tightness responds to workload knobs.

The paper varies only two knobs (stream count and priority-level count);
a user adopting the method wants the rest of the response surface:

* :func:`sweep_num_streams` — tightness vs network population (levels
  scale with the paper's |M|/4 rule);
* :func:`sweep_message_length` — tightness vs message size (longer worms
  occupy paths longer, inflating both interference and latency);
* :func:`sweep_period_scale` — tightness vs load (shorter periods raise
  utilization; the bound loosens and eventually saturates);
* :func:`sweep_mesh_size` — tightness vs network size at constant stream
  count (more room dilutes path overlap, so HP sets shrink).

Each sweep point runs the full pipeline (draw, inflate, bound, simulate)
over a few seeds and reports the seed-averaged mean and top-priority
ratios plus interference statistics. Results render as aligned text via
:func:`format_sweep` and regenerate with ``benchmarks/bench_sensitivity.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import AnalysisError
from ..sim.traffic import PaperWorkload
from .experiments import run_table_experiment

__all__ = [
    "SweepPoint",
    "sweep_num_streams",
    "sweep_message_length",
    "sweep_period_scale",
    "sweep_mesh_size",
    "format_sweep",
]


@dataclass(frozen=True)
class SweepPoint:
    """One x-value of a sensitivity sweep, seed-averaged."""

    x: float
    label: str
    mean_ratio: float
    top_ratio: float
    #: Mean HP-set size across streams (interference scope).
    mean_hp_size: float
    #: Fraction of streams whose period had to be inflated (T := U).
    inflated_share: float
    seeds: int


def _run_point(
    x: float,
    label: str,
    *,
    num_streams: int,
    priority_levels: int,
    seeds: Sequence[int],
    sim_time: int,
    mesh_width: int = 10,
    mesh_height: int = 10,
    workload_factory: Callable[[int], PaperWorkload],
) -> SweepPoint:
    means, tops, hp_sizes, inflated = [], [], [], []
    for seed in seeds:
        result = run_table_experiment(
            name=f"sweep_{label}_{x}_s{seed}",
            num_streams=num_streams,
            priority_levels=priority_levels,
            seed=seed,
            sim_time=sim_time,
            warmup=max(sim_time // 15, 1),
            mesh_width=mesh_width,
            mesh_height=mesh_height,
            workload=workload_factory(seed),
        )
        per_stream = [r.mean for r in result.rows.values()]
        means.append(float(np.mean(per_stream)))
        tops.append(result.highest_priority_ratio())
        hp_sizes.append(float(np.mean(
            [len(ids) for ids in result.inflation.hp_ids.values()]
        )))
        inflated.append(len(result.inflation.inflated) / num_streams)
    return SweepPoint(
        x=x,
        label=label,
        mean_ratio=float(np.mean(means)),
        top_ratio=float(np.mean(tops)),
        mean_hp_size=float(np.mean(hp_sizes)),
        inflated_share=float(np.mean(inflated)),
        seeds=len(list(seeds)),
    )


def sweep_num_streams(
    values: Sequence[int] = (10, 20, 30, 40, 50, 60),
    *,
    seeds: Sequence[int] = (0, 1),
    sim_time: int = 15_000,
) -> List[SweepPoint]:
    """Tightness vs |M|, levels following the paper's |M|/4 rule."""
    points = []
    for m in values:
        levels = max(1, m // 4)
        points.append(_run_point(
            m, "num_streams",
            num_streams=m, priority_levels=levels, seeds=seeds,
            sim_time=sim_time,
            workload_factory=lambda seed, m=m, lv=levels: PaperWorkload(
                num_streams=m, priority_levels=lv, seed=seed,
            ),
        ))
    return points


def sweep_message_length(
    scales: Sequence[float] = (0.5, 1.0, 1.5, 2.0, 3.0),
    *,
    seeds: Sequence[int] = (0, 1),
    sim_time: int = 15_000,
) -> List[SweepPoint]:
    """Tightness vs message size (paper's C ~ U[10,40] scaled).

    Run at 2 priority levels: the paper's 5-level default leaves most HP
    sets empty at |M| = 20, which would flatten the curve."""
    points = []
    for scale in scales:
        lo = max(1, int(10 * scale))
        hi = max(lo, int(40 * scale))
        points.append(_run_point(
            scale, "length_scale",
            num_streams=20, priority_levels=2, seeds=seeds,
            sim_time=sim_time,
            workload_factory=lambda seed, lo=lo, hi=hi: PaperWorkload(
                num_streams=20, priority_levels=2, seed=seed,
                length_range=(lo, hi),
            ),
        ))
    return points


def sweep_period_scale(
    scales: Sequence[float] = (0.25, 0.5, 1.0, 2.0),
    *,
    seeds: Sequence[int] = (0, 1),
    sim_time: int = 15_000,
) -> List[SweepPoint]:
    """Tightness vs load (T ~ U[400,900] scaled down = more load); run at
    2 priority levels for the same reason as :func:`sweep_message_length`."""
    points = []
    for scale in scales:
        lo = max(2, int(400 * scale))
        hi = max(lo, int(900 * scale))
        points.append(_run_point(
            scale, "period_scale",
            num_streams=20, priority_levels=2, seeds=seeds,
            sim_time=sim_time,
            workload_factory=lambda seed, lo=lo, hi=hi: PaperWorkload(
                num_streams=20, priority_levels=2, seed=seed,
                period_range=(lo, hi),
            ),
        ))
    return points


def sweep_mesh_size(
    widths: Sequence[int] = (5, 7, 10, 14),
    *,
    seeds: Sequence[int] = (0, 1),
    sim_time: int = 15_000,
) -> List[SweepPoint]:
    """Tightness vs network size at constant |M| = 20."""
    points = []
    for w in widths:
        points.append(_run_point(
            w, "mesh_width",
            num_streams=20, priority_levels=5, seeds=seeds,
            sim_time=sim_time, mesh_width=w, mesh_height=w,
            workload_factory=lambda seed: PaperWorkload(
                num_streams=20, priority_levels=5, seed=seed,
            ),
        ))
    return points


def format_sweep(title: str, points: Iterable[SweepPoint]) -> str:
    """Render a sweep as an aligned text table."""
    points = list(points)
    if not points:
        raise AnalysisError("empty sweep")
    lines = [
        title,
        f"{'x':>8} {'mean ratio':>11} {'top ratio':>10} "
        f"{'mean |HP|':>10} {'inflated':>9} {'seeds':>6}",
    ]
    for p in points:
        lines.append(
            f"{p.x:8g} {p.mean_ratio:11.3f} {p.top_ratio:10.3f} "
            f"{p.mean_hp_size:10.2f} {p.inflated_share:8.1%} {p.seeds:6d}"
        )
    return "\n".join(lines)
