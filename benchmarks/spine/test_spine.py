"""Checks on the bench spine itself (not part of the tier-1 suite):

    python3 -m pytest benchmarks/spine/test_spine.py

* a seed always yields byte-identical schedules, whatever the phase;
* calibration scaling reaches every timing the driver produces;
* the workload/metric matrix is exactly what BENCHMARK.json declares;
* a deliberately wrong reference digest makes a run fail;
* no process of a spawned stack survives teardown;
* ``run.py --smoke`` passes end to end.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import ladder  # noqa: E402
import schedule as sched  # noqa: E402
import stack  # noqa: E402
import workloads as wl  # noqa: E402
from calibrate import CAL_REF_S, Calibrator  # noqa: E402

SMOKE_SCALE = 0.05


@pytest.fixture(autouse=True)
def _from_checkout_root(monkeypatch):
    monkeypatch.chdir(ROOT)  # socket paths are relative to the root


@pytest.fixture()
def work_dir():
    path = Path("benchmarks/spine/out") / f"test-{os.getpid()}"
    yield path
    import shutil

    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", ["broker_sparse", "gateway_trace"])
def test_schedule_is_a_pure_function_of_the_seed(name):
    workload = wl.WORKLOADS[name]
    first = wl.build_schedule(workload, 7, SMOKE_SCALE)
    again = wl.build_schedule(workload, 7, SMOKE_SCALE)
    other = wl.build_schedule(workload, 8, SMOKE_SCALE)
    assert first.canonical() == again.canonical()
    assert first.canonical() != other.canonical()
    # Another phase of the same cycle: same multiset of timed work.
    assert len(first.serial) == len(other.serial)
    assert sorted(op.kind for op in first.serial) == sorted(
        op.kind for op in other.serial
    )


class _Echo:
    """A connection whose server answers the schedule's ops, in order,
    the way the reference did (so digests match) after a 0.5 ms
    busy-wait."""

    def __init__(self, plan):
        host = [sched.EngineHost(plan.topology) for _ in range(plan.tenants)]
        self._answers = iter([
            host[op.conn].handle_request(op.request())
            for op in plan.all_ops()
        ])
        self._ready = []

    def send(self, kind, **fields):
        end = time.perf_counter() + 0.0005
        while time.perf_counter() < end:
            pass
        self._ready.append(next(self._answers))

    def flush(self):
        pass

    def recv(self):
        return self._ready.pop(0)


def test_calibration_scales_every_timing():
    plan = wl.build_schedule(wl.WORKLOADS["broker_sparse"], 0, SMOKE_SCALE)
    slow_host = Calibrator(kernel_fn=lambda: 2.0 * CAL_REF_S)
    conns = [_Echo(plan)]
    for op in plan.preload:
        conns[0].send(op.kind, **op.fields)
        conns[0].recv()
    serial = wl.drive(conns, plan.serial, window=1, cal=slow_host,
                      cut_s=0.005)
    piped = wl.drive(conns, plan.pipelined, window=wl.WINDOW,
                     cal=slow_host, cut_ops=8)
    assert serial.failed == 0 and piped.failed == 0
    for seg in (serial, piped):
        assert seg.cal_s == pytest.approx(seg.raw_s / 2.0)
        assert len(seg.log) > 1
    # Every round trip took >= 0.5 ms raw; halved, they sum to less
    # than the (halved) segment and each is near 0.25 ms.
    assert len(serial.lat_ms) == len(plan.serial)
    assert min(serial.lat_ms) >= 0.25
    assert sum(serial.lat_ms) / 1e3 <= serial.cal_s
    assert len(slow_host.samples) == len(serial.log) + len(piped.log) + 2
    assert len(piped.log) == -(-len(plan.pipelined) // 8)  # cut by count


def test_matrix_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "benchmarks/spine/run.py"]
    assert spec["paths"] == ["benchmarks/spine"]
    assert spec["run_seconds"] == wl.RUN_SECONDS
    service = [w for w in wl.WORKLOADS.values() if w.surface != "offline"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in service
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, wl.UNITS[name]) for name in wl.SERVICE_METRICS
    ]
    assert set(wl.OFFLINE_METRICS) < set(wl.SERVICE_METRICS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        ladder.PER_LAYER_UNITS.items()
    )
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["better"] in ("lower", "higher")


def test_wrong_reference_digest_fails_the_run(work_dir):
    workload = wl.WORKLOADS["broker_sparse"]
    plan = wl.build_schedule(workload, 0, SMOKE_SCALE)
    good = wl.service_repeat(workload, plan, Calibrator(), work_dir / "a")
    assert good["failed"] == 0 and good["attempted"] > 0
    plan.serial[3].expect = plan.serial[3].expect.replace("true", "false")
    plan.final_states[0] = "0" * 64
    bad = wl.service_repeat(workload, plan, Calibrator(), work_dir / "b")
    assert bad["failed"] == 3  # the op, the pre-kill state, the recovery


def test_no_process_survives_teardown(work_dir):
    work_dir.mkdir(parents=True, exist_ok=True)
    # A server that leaves a grandchild behind when it dies: the pattern
    # that orphaned verdict-pool children under terminate().
    script = (
        "import subprocess, sys, time\n"
        "subprocess.Popen([sys.executable, '-c', "
        "'import time; time.sleep(600)'])\n"
        "time.sleep(600)\n"
    )
    tree = stack.Stack([sys.executable, "-c", script],
                       log_path=work_dir / "tree.log")
    deadline = time.monotonic() + 10
    while len(tree.pids()) < 2 and time.monotonic() < deadline:
        time.sleep(0.02)
    assert len(tree.pids()) == 2
    assert tree.cpu_seconds() >= 0.0 and tree.peak_rss_mib() > 1.0
    tree.kill()
    assert stack.session_pids(tree.sid) == []  # zombies are dead


def test_smoke_run_passes():
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert time.monotonic() - started < 60
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["workloads"]) == set(wl.WORKLOADS)
    for name, line in result["workloads"].items():
        assert line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == set(
            wl.metrics_of(wl.WORKLOADS[name])
        )
        assert all(cell["value"] > 0 for cell in line["metrics"].values())
