"""E-SOUND — the reproduction's central empirical claim, at scale.

Runs the fuzzer's ``paper`` preset (the paper's random workloads with
periods inflated to ``T := U``, every bound backend checked against the
flit-level simulator from zero and from random release phases) across
three workload regimes: the paper's constants, a high-interference
regime, and a many-levels regime. The expected outcome is zero violations
at ``residency_margin=1``; at margin 0 the paper's raw analysis may show
the documented +1-slot equal-priority violations (F-4) and nothing worse.
The F-6 exhibit computes slot-granular bounds and compares them through
:func:`repro.analysis.observe` directly.
"""

import dataclasses

from benchmarks.common import write_output
from repro.analysis import inflate_periods, observe
from repro.fuzz import GeneratorConfig, run_fuzz_campaign
from repro.sim import PaperWorkload
from repro.sim.traffic import random_phases
from repro.topology import Mesh2D, XYRouting

SEEDS = 5
SIM_TIME = 8_000

REGIMES = [
    ("paper constants", dict(max_streams=12, priority_levels=3,
                             period_range=(400, 900),
                             length_range=(10, 40))),
    ("high interference", dict(max_streams=15, priority_levels=3,
                               period_range=(100, 250),
                               length_range=(8, 20))),
    ("many levels", dict(max_streams=16, priority_levels=16,
                         period_range=(200, 500),
                         length_range=(10, 40))),
]


def _campaign(margin, phase_probability, regime):
    cfg = GeneratorConfig(
        width=10, height=10, sim_time=SIM_TIME, residency_margin=margin,
        presets=("paper",), phase_probability=phase_probability, **regime,
    )
    return run_fuzz_campaign(seeds=SEEDS, generator=cfg, jobs=1,
                             shrink=False)


def _slot_granular_excesses(regime):
    """F-6: the high-interference draws at margin 1 with the paper's
    literal per-slot release, from zero and from random phases."""
    mesh = Mesh2D(10, 10)
    routing = XYRouting(mesh)
    out = []
    for seed in range(SEEDS):
        drawn = PaperWorkload(
            num_streams=regime["max_streams"],
            priority_levels=regime["priority_levels"],
            period_range=regime["period_range"],
            length_range=regime["length_range"],
            seed=seed,
        ).generate(mesh)
        inflation = inflate_periods(
            drawn, routing, modify_granularity="slot", residency_margin=1,
            max_horizon=1 << 16,
        )
        streams = inflation.streams
        for phases in (None, random_phases(streams, seed=seed)):
            obs = observe(
                routing, streams, sim_time=SIM_TIME,
                bounds={"slot": inflation.upper_bounds},
                hp_ids=inflation.hp_ids, phases=phases,
            )
            out.extend((seed, phases is not None) + e
                       for e in obs.excesses("slot"))
    return out


def test_soundness_campaigns(benchmark):
    def run():
        reports = {}
        for margin in (0, 1):
            for name, regime in REGIMES:
                for label, p in (("zero phases", 0.0),
                                 ("random phases", 1.0)):
                    reports[(name, f"margin={margin}", label)] = _campaign(
                        margin, p, regime
                    )
        slot = _slot_granular_excesses(dict(REGIMES)["high interference"])
        return reports, slot

    reports, slot = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["E-SOUND — soundness campaigns (observed max delay vs U)"]
    for (name, variant, phases), r in reports.items():
        lines.append(f"[{name} | {variant} | {phases}] {r.summary()}")
    lines.append(
        "[high interference | margin=1, slot-granular release] "
        f"{len(slot)} violation(s) over {SEEDS} workloads x 2 phase sets"
    )
    for seed, phased, sid, observed, u in slot:
        lines.append(
            f"  seed={seed} {'random' if phased else 'zero'} phases "
            f"stream={sid}: observed {observed} > U={u} (+{observed - u})"
        )
    lines.append(
        "finding F-4: the paper's analysis (margin 0) charges an "
        "equal-priority interfering instance exactly C channel slots, but "
        "equal-priority worms share one VC per port and each holds a VC "
        "one slot past its channel occupancy (tail drain). Every observed "
        "violation is exactly +1 slot; residency_margin=1 removes all of "
        "them."
    )
    lines.append(
        "finding F-6: the paper's literal per-slot Modify_Diagram prose "
        "over-releases — erasing part of an instance's demand pretends "
        "flits disappear that in reality transmit later — producing "
        "double-digit violations; the worked example's per-instance "
        "semantics (our default) is clean."
    )
    write_output("soundness", "\n".join(lines))

    for (name, variant, phases), r in reports.items():
        if variant == "margin=1":
            # The residency-corrected analysis must be clean everywhere.
            assert r.sound, f"{name} {variant} {phases}: {r.summary()}"
        else:
            # The paper's analysis may show the documented +1-slot
            # equal-priority violations, and nothing worse.
            assert all(
                v.kind == "soundness" and v.observed - v.bound <= 1
                for o in r.violations for v in o.violations
            ), r.summary()
