"""E-AB1 — ablation: how much does Modify_Diagram tighten the bounds?

Modify_Diagram (the indirect-interference release) is the part of the
algorithm beyond a plain busy-window argument; the paper's section 4.4
example only becomes feasible because of it. This ablation quantifies its
effect on random paper workloads: per-stream bounds with and without the
release step, plus the fixpoint variant (repeating the release sweep until
nothing more can be freed)."""

from dataclasses import replace

import numpy as np

from benchmarks.common import write_output
from repro.core.backends import KIM98
from repro.core.feasibility import FeasibilityAnalyzer
from repro.sim.traffic import PaperWorkload
from repro.topology import Mesh2D, XYRouting

MAX_HORIZON = 1 << 16
NO_MODIFY = replace(KIM98, use_modify=False)
FIXPOINT_ONLY = replace(KIM98, modify_fixpoint=True)


def bounds_for(streams, routing, backend=KIM98):
    an = FeasibilityAnalyzer(streams, routing, backend=backend)
    return an.all_upper_bounds(max_horizon=MAX_HORIZON)


#: (label, workload kwargs). The paper's own constants put U inside the
#: first period window of every blocker, where Modify_Diagram cannot help
#: (the first instance of an indirect element is never releasable at the
#: critical instant); the high-interference config makes U span several
#: windows, which is where the release step pays off.
CONFIGS = [
    ("paper constants (20 str, 4 lvl)",
     dict(num_streams=20, priority_levels=4)),
    ("high interference (25 str, 2 lvl, T 80-160, C 8-20)",
     dict(num_streams=25, priority_levels=2,
          period_range=(80, 160), length_range=(8, 20))),
]


def test_ablation_modify(benchmark):
    mesh = Mesh2D(10, 10)
    routing = XYRouting(mesh)

    def run():
        rows = []
        for label, kw in CONFIGS:
            for seed in range(3):
                wl = PaperWorkload(seed=seed, **kw)
                streams = wl.generate(mesh)
                direct = bounds_for(streams, routing, NO_MODIFY)
                modify = bounds_for(streams, routing)
                fixpoint = bounds_for(streams, routing, FIXPOINT_ONLY)
                rows.append((label, seed, streams, direct, modify, fixpoint))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        "Ablation E-AB1 — Modify_Diagram effect on bounds (10x10 mesh)",
        f"{'config':<48} {'seed':>4} {'w/ indirect':>12} {'tightened':>10} "
        f"{'rescued':>8} {'mean gain':>10} {'fixpoint+':>10}",
    ]
    total_tightened = 0
    for label, seed, streams, direct, modify, fixpoint in rows:
        an = FeasibilityAnalyzer(streams, routing)
        with_indirect = sum(
            1 for s in streams if an.hp_sets[s.stream_id].indirect_ids()
        )
        gains = []
        extra = rescued = tightened = 0
        for sid in direct:
            d, m, f = direct[sid], modify[sid], fixpoint[sid]
            if d > 0 and m > 0 and m < d:
                tightened += 1
                gains.append((d - m) / d)
            elif d < 0 < m:
                rescued += 1  # unbounded without Modify, bounded with it
            if m > 0 and 0 < f < m:
                extra += 1
        total_tightened += tightened + rescued
        mean_gain = float(np.mean(gains)) if gains else 0.0
        lines.append(
            f"{label:<48} {seed:4d} {with_indirect:12d} {tightened:10d} "
            f"{rescued:8d} {mean_gain:9.1%} {extra:10d}"
        )
    lines.append(
        "(gain = (U_direct - U_modify) / U_direct; rescued = bound only "
        "exists with Modify; fixpoint+ = extra tightening from iterating "
        "the release sweep)"
    )
    lines.append(
        "finding: with the paper's own constants U falls inside every "
        "blocker's first window and Modify_Diagram changes nothing; it "
        "matters exactly when interference spans multiple windows (as in "
        "the paper's section 4.4 example, T=10..50 vs U=33)."
    )
    write_output("ablation_modify", "\n".join(lines))

    # Sanity: modify never loosens anything, and the high-interference
    # config demonstrates a real effect.
    for label, seed, streams, direct, modify, fixpoint in rows:
        for sid in direct:
            if direct[sid] > 0 and modify[sid] > 0:
                assert modify[sid] <= direct[sid]
            if modify[sid] > 0 and fixpoint[sid] > 0:
                assert fixpoint[sid] <= modify[sid]
    assert total_tightened > 0
