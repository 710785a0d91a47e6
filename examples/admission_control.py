#!/usr/bin/env python
"""Host-processor admission control (the paper's Fig. 1 system model).

The host processor owns all traffic information and runs the schedulability
test whenever a real-time job asks to be loaded. This example plays a
sequence of job arrivals against an :class:`IncrementalAdmissionEngine`:
each job is a small bundle of message streams, admitted only if the
*entire* admitted set stays feasible (no existing guarantee may be broken).
Finally the admitted set is simulated to confirm every deadline is honoured.

Run:  python examples/admission_control.py
"""

import numpy as np

from repro import (
    FeasibilityAnalyzer,
    Mesh2D,
    MessageStream,
    StreamSet,
    XYRouting,
)
from repro.obs import explain_stream, render_explanation
from repro.service import IncrementalAdmissionEngine
from repro.sim import WormholeSimulator


def make_job(mesh, engine, rng, *, n_streams, priority):
    """Build one job: a few streams between random distinct nodes."""
    streams = []
    for _ in range(n_streams):
        src = int(rng.integers(0, mesh.num_nodes))
        dst = int(rng.integers(0, mesh.num_nodes - 1))
        if dst >= src:
            dst += 1
        period = int(rng.integers(150, 400))
        streams.append(MessageStream(
            stream_id=engine.fresh_id(),
            src=src,
            dst=dst,
            priority=priority,
            period=period,
            # Deadlines well below the period keep admission selective.
            length=int(rng.integers(10, 40)),
            deadline=max(30, period // 4),
        ))
    return streams


def main() -> None:
    mesh = Mesh2D(10, 10)
    routing = XYRouting(mesh)
    engine = IncrementalAdmissionEngine(routing, analysis="kim98")
    rng = np.random.default_rng(2026)

    admitted_jobs = []
    print("job arrivals (each = 3 streams at one priority level):")
    for job_no in range(1, 13):
        priority = int(rng.integers(1, 5))
        job = make_job(mesh, engine, rng, n_streams=3, priority=priority)
        decision = engine.try_admit(job)
        state = "ADMITTED" if decision.admitted else "REJECTED"
        detail = ""
        if not decision.admitted:
            detail = f" (would break streams {list(decision.violations)})"
        print(f"  job {job_no:>2} (priority {priority}): {state}{detail}")
        if decision.admitted:
            admitted_jobs.append(job)
        elif decision.violations:
            # Diagnose the first broken guarantee: who blocks it, where,
            # and by how much? (the question an operator asks after a
            # rejection)
            trial = FeasibilityAnalyzer(
                StreamSet([*engine.admitted, *job]), routing
            )
            explanation = explain_stream(trial, decision.violations[0])
            print("      diagnosis: "
                  + render_explanation(explanation).replace(
                      "\n", "\n      "))

    admitted = engine.admitted
    print(f"\nadmitted {len(admitted_jobs)} jobs, "
          f"{len(admitted)} streams, total injection utilization "
          f"{admitted.total_utilization():.2f}")

    report = engine.current_report()
    worst = min(
        (v.slack for v in report.verdicts.values() if v.slack is not None),
        default=None,
    )
    print(f"re-checked feasibility: {report.success}, tightest slack {worst}")

    print("\nvalidating guarantees by simulation (8000 flit times)...")
    sim = WormholeSimulator(mesh, routing, admitted)
    stats = sim.simulate_streams(8_000)
    misses = [
        sid for sid in stats.stream_ids()
        if stats.max_delay(sid) > admitted[sid].deadline
    ]
    print(f"deadline misses among admitted streams: {misses or 'none'}")


if __name__ == "__main__":
    main()
