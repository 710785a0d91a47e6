"""The spine's workloads and the closed-loop driver that measures them.

Three service workloads run against the *deployed* surfaces (``repro
serve``, ``repro gateway --workers``) from one load-generator thread;
``offline_tables`` runs the paper's table experiments in a fresh child
interpreter and is the control: no service code runs there.

One service repeat is::

    setup     spawn -> hello -> preload to the cycle's state at the seed's
              phase -> snapshot
    serial    one lap of the cycle, window 1          (all latency metrics)
    pipelined one more lap, window 8                  (ops_per_s, cpu_ms_per_op)
    kill      SIGKILL the whole process group
    recover   restart on the same state dir -> first correct ``report``

Every repeat starts a fresh stack and replays the same schedule, so
repeats do identical work. All times are speed-calibrated (calibrate.py).
"""

from __future__ import annotations

import json
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.parallel import shutdown_verdict_pool
from repro.service.loadgen import BrokerClient

import schedule as sched
from calibrate import Calibrator
from stack import HttpConn, Stack, StackError, free_tcp_port

HERE = Path(__file__).resolve().parent

#: ``--seconds`` at which the op counts below apply; other values scale
#: the cycle bodies linearly.
RUN_SECONDS = 20
REPEATS = 5
WINDOW = 8

MESH_10 = {"type": "mesh", "width": 10, "height": 10}
MESH_8 = {"type": "mesh", "width": 8, "height": 8}
TENANTS = (("tenant-0", "key-0"), ("tenant-1", "key-1"))


@dataclass(frozen=True)
class Workload:
    """One row of the workload table.

    ``queries_per_op``: reads of a live stream per mutating op — sized so
    that a lap holds >= 50 ms of reads; a ``read_p50_ms`` over a few
    milliseconds of work would be jitter. Chunking: a serial chunk is
    closed, and a calibration taken, once it has run ``serial_cut_s``.
    Host speed has a lag-1 autocorrelation of ~0.7 at 0.1 s, so the
    kernel has to interleave with the work at a finer grain than that,
    yet a chunk must hold a few ops. Pipelined chunks are cut after
    ``pipelined_cut_ops`` ops (~20 ms worth, never below the window,
    which must be able to fill).
    """

    name: str
    why: str
    surface: str            # broker | gateway | offline
    topology: Optional[Dict[str, Any]] = None
    mesh: str = ""
    live_target: int = 0
    priority_levels: int = 0
    body_ops: int = 0       # cycle body length at RUN_SECONDS
    queries_per_op: float = 0.0
    constant: int = 0       # the cycle's defining seed; not --seed
    pipelined_cut_ops: int = 0
    serial_cut_s: float = 0.0


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "broker_sparse",
        "~12 live streams, 15 priority levels: the engine is under a "
        "third of an op, so protocol framing, the asyncio socket hop, "
        "host dispatch and the journal dominate",
        "broker", MESH_10, "10x10", 12, 15, 1500, 0.3, 1, 48, 0.012,
    ),
    Workload(
        "broker_dense",
        "~90 live streams, 4 priority levels: large HP closures put "
        ">=80% of an op inside the engine, so verdict/diagram/HP work "
        "shows here and transport work must not",
        "broker", MESH_8, "8x8", 88, 4, 414, 8.0, 1, 36, 0.030,
    ),
    Workload(
        "gateway_trace",
        "2 tenants replay bursty traces with link faults through the "
        "HTTP gateway, shard placement and 2 worker processes: a third "
        "of an op is engine, the rest is the three fleet layers",
        "gateway", MESH_10, "10x10", 30, 15, 120, 0.4, 10, 24, 0.015,
    ),
    Workload(
        "offline_tables",
        "paper tables in a fresh interpreter: simulator and one-shot "
        "feasibility do all the work and no service code runs; the "
        "control for service changes",
        "offline",
    ),
)}

#: Which end-to-end metrics a workload emits. ``offline_tables`` has no
#: admission round trips, no journal and no recovery; it emits no
#: placeholder for them.
SERVICE_METRICS = (
    "setup_s", "ops_per_s", "admit_p50_ms", "admit_p95_ms",
    "release_p50_ms", "read_p50_ms", "cpu_ms_per_op", "rss_mb",
    "recover_s", "journal_bytes_per_op",
)
OFFLINE_METRICS = ("setup_s", "ops_per_s", "cpu_ms_per_op", "rss_mb")
UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "admit_p50_ms": "ms",
    "admit_p95_ms": "ms", "release_p50_ms": "ms", "read_p50_ms": "ms",
    "cpu_ms_per_op": "ms", "rss_mb": "MiB", "recover_s": "s",
    "journal_bytes_per_op": "B",
}


def metrics_of(workload: Workload) -> Tuple[str, ...]:
    return OFFLINE_METRICS if workload.surface == "offline" else SERVICE_METRICS


# --------------------------------------------------------------------- #
# Schedules
# --------------------------------------------------------------------- #


def build_schedule(workload: Workload, seed: int, scale: float,
                   ) -> sched.Schedule:
    body = max(20, int(round(workload.body_ops * scale)))
    if workload.surface == "broker":
        cycles = [sched.churn_cycle(
            workload.constant, topology=workload.topology,
            live_target=workload.live_target,
            priority_levels=workload.priority_levels, body_ops=body,
            queries_per_op=workload.queries_per_op,
        )]
    else:
        cycles = [sched.trace_cycle(
            workload.constant + t, topology=workload.topology,
            live_target=workload.live_target, body_ops=body,
            link_rate=0.01, queries_per_op=workload.queries_per_op,
        ) for t in range(len(TENANTS))]
    plan = sched.build(cycles, seed)
    # The reference replay may have started this process's verdict pool;
    # its children must not sit beside the stack while it is measured.
    shutdown_verdict_pool()
    return plan


# --------------------------------------------------------------------- #
# Closed-loop driver
# --------------------------------------------------------------------- #


@dataclass
class Segment:
    """What one timed segment measured, raw and calibrated."""

    ops: int = 0
    failed: int = 0
    raw_s: float = 0.0
    cal_s: float = 0.0
    #: window 1: calibrated round trip of op ``i``, in ms
    lat_ms: List[float] = field(default_factory=list)
    #: per chunk: (last op index, raw seconds, kernel before, kernel after)
    log: List[Tuple[int, float, float, float]] = field(default_factory=list)

    @property
    def speed(self) -> float:
        """Mean calibration factor over the segment."""
        return self.cal_s / self.raw_s if self.raw_s else 1.0


def drive(conns: Sequence[Any], ops: Sequence[sched.Op], *, window: int,
          cal: Calibrator, cut_s: Optional[float] = None,
          cut_ops: Optional[int] = None,
          spans: Optional[List[Tuple[str, Optional[str], float, float]]]
          = None) -> Segment:
    """Send ``ops`` closed-loop with at most ``window`` in flight.

    The loop is cut into chunks — after ``cut_ops`` ops, or once a chunk
    has run ``cut_s`` seconds; the window is drained at every cut and the
    calibration kernel runs between chunks, so the server is idle while
    the host's speed is sampled. Each chunk (and each round trip in it)
    is scaled by the two samples around it. Responses are checked
    against the reference digests afterwards, outside the timed region.
    ``spans`` (traced pass, window 1) collects ``(kind, rid, start,
    end)`` of every round trip.
    """
    seg = Segment(ops=len(ops))
    in_flight: List[Tuple[int, float]] = []
    pending: List[float] = []
    responses: List[Optional[Dict[str, Any]]] = [None] * len(ops)

    def settle(limit: int) -> None:
        while len(in_flight) > limit:
            index, sent = in_flight.pop(0)
            op = ops[index]
            responses[index] = conns[op.conn].recv()
            if window == 1:
                done = time.perf_counter()
                pending.append(done - sent)
                if spans is not None:
                    spans.append(
                        (op.kind, op.fields.get("rid"), sent, done)
                    )

    before = cal.probe()
    chunk_start = time.perf_counter()
    chunk_first = 0
    for index, op in enumerate(ops):
        conn = conns[op.conn]
        sent = time.perf_counter()
        conn.send(op.kind, **op.fields)
        conn.flush()
        in_flight.append((index, sent))
        settle(window - 1)
        cut = (index + 1 - chunk_first >= cut_ops if cut_ops
               else time.perf_counter() - chunk_start >= cut_s)
        if cut or index == len(ops) - 1:
            settle(0)
            raw = time.perf_counter() - chunk_start
            after = cal.probe()
            scale = cal.scale(before, after)
            seg.raw_s += raw
            seg.cal_s += raw * scale
            seg.log.append((index, raw, before, after))
            seg.lat_ms.extend(seconds * scale * 1e3 for seconds in pending)
            pending.clear()
            before = after
            chunk_start = time.perf_counter()
            chunk_first = index + 1
    for op, response in zip(ops, responses):
        if response is None or sched.digest(op.kind, response) != op.expect:
            seg.failed += 1
    return seg


# --------------------------------------------------------------------- #
# One service repeat
# --------------------------------------------------------------------- #


def _spawn(workload: Workload, state_dir: Path, log: Path,
           ) -> Tuple[Stack, Callable[[], List[Any]]]:
    """Start the deployed surface; returns the stack and a ``connect``
    that raises ``OSError`` until every connection answered ``hello``.
    ``state_dir`` is relative to the checkout root, which is the cwd of
    both sides: unix-socket paths must stay short (``sun_path`` is ~108
    bytes) wherever the checkout lives."""
    if workload.surface == "broker":
        sock = state_dir.parent / "b.sock"
        stack = Stack.repro(
            ["serve", "--socket", str(sock), "--mesh", workload.mesh,
             "--state-dir", str(state_dir)], log_path=log,
        )

        def connect() -> List[Any]:
            client = BrokerClient(socket_path=sock)
            client.check("hello")
            return [client]
    else:
        port = free_tcp_port()
        argv = ["gateway", "--port", str(port), "--workers", "2",
                "--shards", "2", "--mesh", workload.mesh,
                "--state-dir", str(state_dir)]
        for name, key in TENANTS:
            argv += ["--tenant", f"{name}={key}"]
        stack = Stack.repro(argv, log_path=log)

        def connect() -> List[Any]:
            conns = [HttpConn(port, key) for _, key in TENANTS]
            conns[0].get("/healthz")
            for conn in conns:
                if not conn.request("hello").get("ok"):
                    raise StackError("gateway hello failed")
            return conns
    return stack, connect


def _timed_start(workload: Workload, state_dir: Path, log: Path,
                 cal: Calibrator, then: Callable[[List[Any]], None],
                 ) -> Tuple[Stack, List[Any], float, float]:
    """Spawn, wait until ready, run ``then(conns)``; returns the stack,
    its connections and the (raw, calibrated) seconds that took. The
    host's speed is probed before, after and between the connection
    attempts — a start-up cannot be interleaved any finer."""
    first = len(cal.samples)
    cal.probe()
    t0 = time.perf_counter()
    stack, connect = _spawn(workload, state_dir, log)
    try:
        conns = stack.wait_ready(connect, between=cal.probe)
        then(conns)
    except BaseException:
        stack.kill()
        raise
    raw = time.perf_counter() - t0
    cal.probe()
    return stack, conns, raw, raw * cal.scale(*cal.samples[first:])


def _journal_bytes(state_dir: Path) -> int:
    return sum(p.stat().st_size for p in state_dir.rglob("journal.jsonl"))


def _reports(conns: Sequence[Any]) -> List[str]:
    return [sched.report_digest(conn.request("report")) for conn in conns]


def _states(conns: Sequence[Any]) -> List[str]:
    return [sched.state_digest(conn.request) for conn in conns]


def service_repeat(workload: Workload, plan: sched.Schedule,
                   cal: Calibrator, work_dir: Path) -> Dict[str, Any]:
    """One full repeat on a fresh stack; returns its measurements."""
    shutil.rmtree(work_dir, ignore_errors=True)
    state_dir = work_dir / "state"
    state_dir.mkdir(parents=True)
    out: Dict[str, Any] = {}
    preload = Segment()

    def load(conns: List[Any]) -> None:
        for op in plan.preload:
            response = conns[op.conn].request(op.kind, **op.fields)
            preload.ops += 1
            preload.failed += (
                sched.digest(op.kind, response) != op.expect
            )
        # A served broker has a snapshot (every restart compacts); the
        # journal then holds the timed laps only, and recovery is
        # snapshot load + journal tail, the path a real restart takes.
        for conn in conns:
            preload.ops += 1
            preload.failed += not conn.request("snapshot").get("ok")

    stack, conns, raw, calibrated = _timed_start(
        workload, state_dir, work_dir / "server.log", cal, load
    )
    try:
        out["setup_raw_s"], out["setup_s"] = raw, calibrated
        serial = drive(conns, plan.serial, window=1, cal=cal,
                       cut_s=workload.serial_cut_s)
        cpu0 = stack.cpu_seconds()
        piped = drive(conns, plan.pipelined, window=WINDOW, cal=cal,
                      cut_ops=workload.pipelined_cut_ops)
        cpu = stack.cpu_seconds() - cpu0
        out["serial"], out["pipelined"] = serial, piped
        out["cpu_raw_s"], out["cpu_s"] = cpu, cpu * piped.speed
        before_kill = _reports(conns)
        state_ok = _states(conns) == plan.final_states
        out["rss_mb"] = stack.peak_rss_mib()
        acked = sum(op.journaled for op in plan.serial + plan.pipelined)
        out["journal_bytes_per_op"] = _journal_bytes(state_dir) / acked
    finally:
        for conn in conns:
            conn.close()
        stack.kill()

    recovered: List[str] = []
    stack, conns, raw, calibrated = _timed_start(
        workload, state_dir, work_dir / "recover.log", cal,
        lambda conns: recovered.extend(_reports(conns)),
    )
    try:
        recovered_ok = (recovered == before_kill
                        and _states(conns) == plan.final_states)
    finally:
        for conn in conns:
            conn.close()
        stack.kill()
    out["recover_raw_s"], out["recover_s"] = raw, calibrated
    checks = 2  # pre-kill state vs reference, post-recovery vs pre-kill
    out["attempted"] = (preload.ops + serial.ops + piped.ops + checks)
    out["failed"] = (preload.failed + serial.failed + piped.failed
                     + (not state_ok) + (not recovered_ok))
    shutil.rmtree(work_dir, ignore_errors=True)
    return out


def _percentile(samples: Sequence[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def service_metrics(plan: sched.Schedule, repeats: Sequence[Dict[str, Any]],
                    ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Throughput-type metrics: median over repeats. Latency
    percentiles: over the pooled calibrated samples of all repeats."""
    med = statistics.median
    by_kind: Dict[str, List[float]] = {}
    for rep in repeats:
        for op, ms in zip(plan.serial, rep["serial"].lat_ms):
            by_kind.setdefault(op.kind, []).append(ms)
    ops = len(plan.pipelined)
    metrics = {
        "setup_s": med(r["setup_s"] for r in repeats),
        "ops_per_s": med(ops / r["pipelined"].cal_s for r in repeats),
        "admit_p50_ms": _percentile(by_kind["admit"], 0.50),
        "admit_p95_ms": _percentile(by_kind["admit"], 0.95),
        "release_p50_ms": _percentile(by_kind["release"], 0.50),
        "read_p50_ms": _percentile(by_kind["query"], 0.50),
        "cpu_ms_per_op": med(r["cpu_s"] / ops * 1e3 for r in repeats),
        "rss_mb": med(r["rss_mb"] for r in repeats),
        "recover_s": med(r["recover_s"] for r in repeats),
        "journal_bytes_per_op": med(
            r["journal_bytes_per_op"] for r in repeats
        ),
    }
    detail = {
        "samples": {kind: len(v) for kind, v in by_kind.items()},
        "measured_s_per_repeat": {
            "serial": med(r["serial"].raw_s for r in repeats),
            "pipelined": med(r["pipelined"].raw_s for r in repeats),
        },
        "raw": {
            "setup_s": [r["setup_raw_s"] for r in repeats],
            "recover_s": [r["recover_raw_s"] for r in repeats],
            "serial_s": [r["serial"].raw_s for r in repeats],
            "pipelined_s": [r["pipelined"].raw_s for r in repeats],
            "cpu_s": [r["cpu_raw_s"] for r in repeats],
        },
        "calibrated": {
            "serial_s": [r["serial"].cal_s for r in repeats],
            "pipelined_s": [r["pipelined"].cal_s for r in repeats],
        },
        "chunks": {
            "serial": [r["serial"].log for r in repeats],
            "pipelined": [r["pipelined"].log for r in repeats],
        },
    }
    return metrics, detail


# --------------------------------------------------------------------- #
# offline_tables
# --------------------------------------------------------------------- #

#: (table, workload seed) pairs, the same for every ``--seed`` (which
#: rotates their order). ``table2`` is left out: its cost is decided by
#: one draw (seed 0 takes 16.7 s, seed 1 0.67 s on the same host), so a
#: workload containing it measures that draw and nothing else.
OFFLINE_EXPERIMENTS = tuple(
    (table, s) for s in (1, 2, 3)
    for table in ("table1", "table3", "table4", "table5")
)
OFFLINE_SIM_TIME = 30_000


def offline_experiments(seed: int, scale: float) -> List[Tuple[str, int]]:
    count = max(2, int(round(len(OFFLINE_EXPERIMENTS) * scale)))
    picked = list(OFFLINE_EXPERIMENTS[:count])
    shift = seed % len(picked)
    return picked[shift:] + picked[:shift]


def offline_repeat(experiments: Sequence[Tuple[str, int]],
                   cal: Calibrator, work_dir: Path) -> Dict[str, Any]:
    """One fresh child interpreter running the experiments; the child
    calibrates its own timed region (same kernel, same CPU) and reports
    its own CPU and peak RSS just before it exits."""
    work_dir.mkdir(parents=True, exist_ok=True)
    first = len(cal.samples)
    cal.probe()
    t0 = time.perf_counter()
    stack = Stack(
        [sys.executable, str(HERE / "offline_child.py"),
         "--sim-time", str(OFFLINE_SIM_TIME),
         "--experiments", json.dumps(list(experiments))],
        log_path=work_dir / "offline.log", stdout=subprocess.PIPE,
    )
    try:
        ready = _read_line(stack, cal.probe)
        raw = time.perf_counter() - t0
        cal.probe()
        scale = cal.scale(*cal.samples[first:])
        result = _read_line(stack, None)
    except BaseException:
        stack.kill()
        raise
    code = stack.wait_exit(timeout=30)
    if code != 0 or not ready.get("ready"):
        raise StackError(f"offline child exited with code {code}")
    result["setup_raw_s"] = raw
    result["setup_s"] = raw * scale
    return result


def _read_line(stack: Stack, between: Optional[Callable[[], Any]],
               timeout: float = 150.0) -> Dict[str, Any]:
    """Next JSON line of the child's stdout, probing while it is awaited."""
    pipe = stack.proc.stdout
    deadline = time.monotonic() + timeout
    while True:
        readable, _, _ = select.select([pipe], [], [], 0.04)
        if readable:
            line = pipe.readline()
            if not line:
                raise StackError(
                    f"offline child closed its output; log tail:\n"
                    f"{stack.log_tail()}"
                )
            return json.loads(line)
        if time.monotonic() > deadline:
            raise StackError("offline child timed out")
        if between is not None:
            between()


def offline_metrics(repeats: Sequence[Dict[str, Any]],
                    ) -> Tuple[Dict[str, float], Dict[str, Any], int]:
    med = statistics.median
    digests = {json.dumps(r["digests"], sort_keys=True) for r in repeats}
    failed = sum(r["failed"] for r in repeats) + (len(digests) != 1)
    metrics = {
        "setup_s": med(r["setup_s"] for r in repeats),
        "ops_per_s": med(r["ops"] / r["cal_s"] for r in repeats),
        "cpu_ms_per_op": med(
            r["cpu_cal_s"] / r["ops"] * 1e3 for r in repeats
        ),
        "rss_mb": med(r["rss_mb"] for r in repeats),
    }
    detail = {
        "raw": {
            "setup_s": [r["setup_raw_s"] for r in repeats],
            "run_s": [r["raw_s"] for r in repeats],
            "cpu_s": [r["cpu_raw_s"] for r in repeats],
        },
        "host_speed_child": [r["host_speed"] for r in repeats],
    }
    return metrics, detail, failed
