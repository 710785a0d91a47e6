#!/usr/bin/env python3
"""The bench spine: the repo's one benchmark (see README.md here).

    python3 benchmarks/spine/run.py --workload broker_sparse --seed 0 \\
        --seconds 20 --trace 0        # end-to-end metrics of one workload
    python3 benchmarks/spine/run.py --workload broker_sparse --trace 1
                                      # per-layer ladder of the same schedule
    python3 benchmarks/spine/run.py   # all four workloads, repeats interleaved
    python3 benchmarks/spine/run.py --smoke     # tiny op counts, < 30 s
    python3 benchmarks/spine/run.py --aa 2      # same code twice, within bounds?

The last line of standard output is one JSON object. With ``--workload``
it is the driver contract's ``{"correct", "attempted", "failed",
"metrics"}``; without, the same object per workload under ``"workloads"``.
Exit status is non-zero if any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench spine: no program to measure under {ROOT / 'src'}")
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

from calibrate import CAL_REF_S, Calibrator  # noqa: E402
from stack import clean_env  # noqa: E402
import workloads as wl  # noqa: E402

OUT = Path("benchmarks/spine/out")  # relative: the cwd is the checkout root


def pin_to_one_cpu() -> int:
    """Run the bench and everything it spawns on a single CPU, under
    ``SCHED_BATCH`` (both are inherited by every child).

    One CPU: the calibration kernel can only stand in for the server's
    speed if both run on the same CPU. On the 2-vCPU build host the two
    CPUs' speeds are uncorrelated (r = -0.1 at 50 ms), so a kernel on
    one says nothing about a server on the other.

    ``SCHED_BATCH``: a batch task never preempts on wake-up, so in the
    client/server ping-pong the next to run is decided by who blocks,
    not by the vruntime history of the two processes. Under the default
    policy ``read_p50_ms`` of the same seed spread 10-13 % (IQR/median
    over 8 runs) from that alone; under ``SCHED_BATCH`` 4 %.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    return cpu


def host_record(cpu: int) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "scheduler": "SCHED_BATCH",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cal_ref_s": CAL_REF_S,
    }


def result_line(metrics: Dict[str, float], units: Dict[str, str],
                attempted: int, failed: int) -> Dict[str, Any]:
    return {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def run_end_to_end(names: Sequence[str], seed: int, scale: float,
                   repeats: int, work: Path, host: Dict[str, Any],
                   ) -> Dict[str, Dict[str, Any]]:
    """Untraced pass. Repeats of the selected workloads are interleaved
    round-robin so a slow minute of the host taxes all of them alike."""
    cal = Calibrator()
    plans: Dict[str, Any] = {}
    for name in names:
        w = wl.WORKLOADS[name]
        plans[name] = (wl.offline_experiments(seed, scale)
                       if w.surface == "offline"
                       else wl.build_schedule(w, seed, scale))
    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for index in range(repeats):
        for name in names:
            w = wl.WORKLOADS[name]
            where = work / f"{name}-{index}"
            if w.surface == "offline":
                runs[name].append(wl.offline_repeat(plans[name], cal, where))
            else:
                runs[name].append(
                    wl.service_repeat(w, plans[name], cal, where)
                )
    results: Dict[str, Dict[str, Any]] = {}
    for name in names:
        if wl.WORKLOADS[name].surface == "offline":
            metrics, detail, failed = wl.offline_metrics(runs[name])
            attempted = sum(r["ops"] for r in runs[name]) + 1
        else:
            metrics, detail = wl.service_metrics(plans[name], runs[name])
            attempted = sum(r["attempted"] for r in runs[name])
            failed = sum(r["failed"] for r in runs[name])
        line = result_line(metrics, wl.UNITS, attempted, failed)
        results[name] = line
        write_json(OUT / f"detail_{name}.json", {
            "workload": name, "seed": seed, "scale": scale,
            "repeats": repeats, "host": host,
            "host_speed": cal.host_speed(), "result": line, **detail,
        })
    return results


def run_traced(name: str, seed: int, scale: float, work: Path,
               host: Dict[str, Any]) -> Dict[str, Any]:
    import ladder

    metrics, units, attempted, failed, trace = ladder.run(
        wl.WORKLOADS[name], seed, scale, work
    )
    write_json(OUT / f"trace_{name}.json",
               {"workload": name, "seed": seed, "host": host, **trace})
    return result_line(metrics, units, attempted, failed)


def write_json(path: Path, body: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")


def show(name: str, line: Dict[str, Any]) -> None:
    print(f"{name}: attempted {line['attempted']}, failed "
          f"{line['failed']}, correct {line['correct']}")
    for metric, cell in line["metrics"].items():
        print(f"  {metric:<44s} {cell['value']:>14.4f} {cell['unit']}")


def run_aa(sets: int, names: Sequence[str], seed: int, scale: float,
           repeats: int, work: Path, host: Dict[str, Any]) -> int:
    """Run the same code ``sets`` times; every workload/metric pair's
    medians must agree within the bound BENCHMARK.json gives the metric."""
    bounds = {m["name"]: (m["bound"], m["better"]) for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text()
    )["end_to_end"]}
    results = [run_end_to_end(names, seed, scale, repeats, work, host)
               for _ in range(sets)]
    rows, worst_ok = [], True
    for name in names:
        for metric in results[0][name]["metrics"]:
            values = [r[name]["metrics"][metric]["value"] for r in results]
            bound, _ = bounds[metric]
            diff = (max(values) - min(values)) / min(values)
            ok = diff <= bound and all(r[name]["correct"] for r in results)
            worst_ok = worst_ok and ok
            rows.append({"workload": name, "metric": metric,
                         "values": values, "rel_diff": diff,
                         "bound": bound, "ok": ok})
            print(f"{name:<15s} {metric:<22s} "
                  + " ".join(f"{v:>12.4f}" for v in values)
                  + f"  diff {diff:6.2%}  bound {bound:4.0%}  "
                  + ("ok" if ok else "EXCEEDED"))
    body = {"sets": sets, "seed": seed, "scale": scale, "host": host,
            "ok": worst_ok, "rows": rows}
    write_json(OUT / "aa_latest.json", body)
    print(json.dumps({"ok": worst_ok, "pairs": len(rows)}))
    return 0 if worst_ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=wl.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny op counts, two repeats (< 30 s)")
    parser.add_argument("--aa", type=int, nargs="?", const=2, default=0,
                        metavar="N", help="run N identical sets (default "
                        "2) and compare them against the bounds")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    clean = clean_env()
    os.environ.clear()
    os.environ.update(clean)
    host = host_record(pin_to_one_cpu())
    scale = args.seconds / wl.RUN_SECONDS
    repeats = wl.REPEATS
    if args.smoke:
        scale, repeats = 0.05, 2
    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    work = OUT / f"work-{os.getpid()}"
    try:
        if args.aa:
            return run_aa(args.aa, names, args.seed, scale, repeats, work,
                          host)
        if args.trace or args.traced:
            results = {
                name: run_traced(name, args.seed, scale, work, host)
                for name in names
            }
        else:
            results = run_end_to_end(names, args.seed, scale, repeats,
                                     work, host)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        from repro.analysis.parallel import shutdown_verdict_pool

        shutdown_verdict_pool()
    for name, line in results.items():
        show(name, line)
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "workloads": results,
        }))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
