"""Runner of the ``offline_tables`` workload: one fresh interpreter.

Spawned once per repeat by ``workloads.offline_repeat``. Imports the
library, runs one warm-up ``table1`` experiment, prints ``{"ready":
true}`` (the parent times spawn -> that line as ``setup_s``), then runs
the requested experiments with the calibration kernel between them and
prints one JSON result line. Checks per experiment: every stream's
observed maximum latency is within its computed bound, and the
:class:`TableResult` digest (compared across repeats by the parent).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time

from repro.analysis.experiments import TableResult, run_paper_table

from calibrate import Calibrator


def table_digest(result: TableResult) -> str:
    body = {
        "bounds": sorted(result.upper_bounds.items()),
        "rows": [[p, r.num_streams, r.num_unbounded, r.mean, r.minimum,
                  r.maximum] for p, r in sorted(result.rows.items())],
        "delays": [[sid, result.stats.max_delay(sid)]
                   for sid in result.stats.stream_ids()],
    }
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()
    ).hexdigest()


def bound_violations(result: TableResult) -> int:
    """Streams whose simulated maximum exceeds their (finite) bound."""
    return sum(
        1 for sid in result.stats.stream_ids()
        if 0 < result.upper_bounds[sid] < result.stats.max_delay(sid)
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--experiments", required=True)
    parser.add_argument("--sim-time", type=int, required=True)
    args = parser.parse_args()
    experiments = [tuple(e) for e in json.loads(args.experiments)]

    run_paper_table("table1", seed=1, sim_time=args.sim_time)
    print(json.dumps({"ready": True}), flush=True)

    cal = Calibrator()
    raw_s = cal_s = cpu_raw = cpu_cal = 0.0
    failed = 0
    digests = {}
    before = cal.probe()
    for table, seed in experiments:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        result = run_paper_table(table, seed=seed, sim_time=args.sim_time)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        after = cal.probe()
        scale = cal.scale(before, after)
        raw_s += wall
        cal_s += wall * scale
        cpu_raw += cpu
        cpu_cal += cpu * scale
        before = after
        failed += bound_violations(result) > 0
        digests[f"{table}/{seed}"] = table_digest(result)
    print(json.dumps({
        "ops": len(experiments),
        "failed": failed,
        "raw_s": raw_s,
        "cal_s": cal_s,
        "cpu_raw_s": cpu_raw,
        "cpu_cal_s": cpu_cal,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": digests,
        "host_speed": cal.host_speed(),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
