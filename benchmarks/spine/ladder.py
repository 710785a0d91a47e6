"""The traced pass: one schedule replayed at every depth of the stack.

Each *row* of the ladder replays the same lap of the workload's cycle
(the one the untraced serial segment runs) through one more layer than
the row beneath it::

    service.engine        bare IncrementalAdmissionEngine
    service.host          EngineHost.handle_request, in memory
    service.persistence   the same host, journaled (state dir)
    service.server        that host behind an in-process BrokerServer
    fleet.shards          Fleet.handle_request, journaled, in-process
    fleet.workers         Fleet(workers=2): shards in child processes
    fleet.gateway         GatewayClient -> in-process GatewayServer

so ``self_us_per_op`` of a layer is its row minus the row beneath it
(``fleet.shards`` stands on ``service.persistence``: a fleet hosts
journaled EngineHosts directly, not brokers). Layers are measured from
outside, by timing calls into their public functions; the only numbers
read from inside the program are the ``EngineStats`` it already exports.
Every call is wrapped in a span (layer, start, end, parent row, the
op's ``rid``); spans stay in memory and are written when the pass ends.
The remaining rows are direct calls on fixed inputs (Table 5's stream
set), the same for every workload. All times are speed-calibrated.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.experiments import inflate_periods, run_table_experiment
from repro.core.feasibility import FeasibilityAnalyzer
from repro.core.hpset import build_all_hp_sets
from repro.fleet.client import GatewayClient
from repro.fleet.gateway import GatewayServer
from repro.fleet.replication import ShardStandby
from repro.fleet.shards import Fleet, TenantSpec
from repro.io import stream_from_spec, topology_from_spec
from repro.service.engine import IncrementalAdmissionEngine
from repro.service.host import EngineHost
from repro.service.loadgen import BrokerClient
from repro.service.persistence import BrokerState
from repro.service.protocol import decode, encode
from repro.service.server import BrokerServer
from repro.sim.network import WormholeSimulator
from repro.sim.traffic import PaperWorkload
from repro.topology import FaultAwareRouting, normalize_link
from repro.topology.mesh import Mesh2D
from repro.topology.route_table import RouteTable
from repro.topology.routing import XYRouting

import schedule as sched
import workloads as wl
from calibrate import Calibrator
from stack import free_tcp_port

#: Times each ladder row is replayed on a fresh instance of its layer;
#: a row's figures are medians over these replays.
ROW_REPEATS = 2

Span = Tuple[str, Optional[str], float, float]


# --------------------------------------------------------------------- #
# Calibrated timing of direct calls
# --------------------------------------------------------------------- #


def timed(cal: Calibrator, fn: Callable[[], Any], *, repeats: int = 2,
          ) -> Tuple[float, Any]:
    """Median calibrated seconds of ``fn()`` over ``repeats`` calls, each
    bracketed by the kernel; also returns the last result."""
    values = []
    result = None
    before = cal.probe()
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        after = cal.probe()
        values.append(raw * cal.scale(before, after))
        before = after
    return statistics.median(values), result


class Direct:
    """A synchronous ``ask(kind, **fields) -> response`` dressed as a
    connection, so ``workloads.drive`` (chunking, calibration, digest
    checks) serves every ladder row. ``ask`` is a client's ``request``
    or, via :func:`asker`, a layer's ``handle_request``."""

    def __init__(self, ask: Callable[..., Dict[str, Any]]):
        self._ask = ask
        self._response: Optional[Dict[str, Any]] = None

    def send(self, kind: str, **fields: Any) -> None:
        self._response = self._ask(kind, **fields)

    def flush(self) -> None:
        pass

    def recv(self) -> Dict[str, Any]:
        return self._response


def asker(handle: Callable[..., Dict[str, Any]], *route: Any,
          ) -> Callable[..., Dict[str, Any]]:
    """``ask(kind, **fields)`` over ``handle(*route, request_dict)``."""
    return lambda kind, **fields: handle(*route, {"op": kind, **fields})


class Row:
    """Replays preload + one lap through a layer and keeps the figures."""

    def __init__(self, plan: sched.Schedule, cal: Calibrator,
                 spans: List[Dict[str, Any]], cut_s: float):
        self.plan = plan
        self.cal = cal
        self.spans = spans
        self.cut_s = cut_s
        self.attempted = 0
        self.failed = 0
        self.us_per_op: Dict[str, float] = {}
        self.kind_us: Dict[str, Dict[str, float]] = {}

    def replay(self, layer: str, conns: Sequence[Any], *,
               record: bool) -> wl.Segment:
        """Preload (untimed) then the timed lap; returns the segment."""
        for op in self.plan.preload:
            conns[op.conn].send(op.kind, **op.fields)
            self.failed += (
                sched.digest(op.kind, conns[op.conn].recv()) != op.expect
            )
        marks: Optional[List[Span]] = [] if record else None
        seg = wl.drive(conns, self.plan.serial, window=1, cal=self.cal,
                       cut_s=self.cut_s, spans=marks)
        self.attempted += len(self.plan.preload) + seg.ops
        self.failed += seg.failed
        if marks is not None:
            row_id = len(self.spans)
            self.spans.append({
                "id": row_id, "name": f"ladder/{layer}", "parent": None,
                "start": marks[0][2], "end": marks[-1][3], "rid": None,
            })
            for kind, rid, start, end in marks:
                self.spans.append({
                    "id": len(self.spans), "name": f"{layer}/{kind}",
                    "parent": row_id, "start": start, "end": end,
                    "rid": rid,
                })
        return seg

    def measure(self, layer: str,
                open_conns: Callable[[], Tuple[Sequence[Any],
                                               Callable[[], None]]],
                *, repeats: int = ROW_REPEATS) -> List[wl.Segment]:
        """Replay the row ``repeats`` times on fresh instances of the
        layer (the second replay records spans: the first also warms
        caches up); keeps the median over replays of the mean round
        trip, overall and per op kind."""
        segs = []
        for index in range(repeats):
            conns, close = open_conns()
            try:
                segs.append(self.replay(layer, conns, record=index == 1))
            finally:
                close()
        self.us_per_op[layer] = statistics.median(
            statistics.mean(seg.lat_ms) * 1e3 for seg in segs
        )
        kinds = [op.kind for op in self.plan.serial]
        self.kind_us[layer] = {
            kind: statistics.median(
                statistics.mean(ms for ms, k in zip(seg.lat_ms, kinds)
                                if k == kind) * 1e3
                for seg in segs
            )
            for kind in sorted(set(kinds))
        }
        return segs


# --------------------------------------------------------------------- #
# Layer adapters
# --------------------------------------------------------------------- #


class BareEngine:
    """The engine alone, answering in the protocol's shape so the same
    digests check it. This is what ``EngineHost`` does around the engine
    minus validation, metrics, idempotency and response assembly."""

    def __init__(self, topology_spec: Dict[str, Any]):
        self.topology, self.base_routing = topology_from_spec(topology_spec)
        self.engine = IncrementalAdmissionEngine(self.base_routing)
        self.failed: set = set()

    def __call__(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request["op"]
        engine = self.engine
        if op == "admit":
            streams = [
                stream_from_spec(self.topology, entry,
                                 stream_id=entry["id"])
                for entry in request["streams"]
            ]
            decision = engine.try_admit(streams)
            return {
                "ok": True, "admitted": decision.admitted,
                "ids": [s.stream_id for s in streams],
                "bounds": {str(sid): v.upper_bound for sid, v in
                           decision.report.verdicts.items()},
            }
        if op == "release":
            engine.release(request["ids"])
            return {"ok": True, "released": request["ids"]}
        if op == "query":
            sid = request["stream"]
            verdict = engine.verdict(sid)
            return {
                "ok": True, "upper_bound": verdict.upper_bound,
                "feasible": verdict.feasible, "slack": verdict.slack,
                "closure": list(engine.closure(sid)),
            }
        link = normalize_link(*request["link"])
        self.failed = (self.failed | {link} if op == "fail_link"
                       else self.failed - {link})
        routing = (FaultAwareRouting(self.base_routing, sorted(self.failed))
                   if self.failed else self.base_routing)
        delta = engine.apply_routing(routing)
        return {
            "ok": True, "link": [link[0], link[1]], **delta.to_spec(),
            "failed_links": sorted([u, v] for u, v in self.failed),
        }


class OnOwnLoop:
    """An in-process asyncio server (``BrokerServer``, ``GatewayServer``)
    started and served on a thread of its own."""

    def __init__(self, server: Any, start: Callable[[], Any]):
        self.server = server
        self._start = start
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError(f"in-process {type(server).__name__} "
                               "did not start")

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def main() -> None:
            await self._start()
            self._ready.set()
            await self.server.serve_forever()

        self._loop.run_until_complete(main())
        self._loop.close()

    def close(self) -> None:
        self._loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(timeout=30)
        if self._thread.is_alive():
            raise RuntimeError(f"in-process {type(self.server).__name__} "
                               "did not stop")


# --------------------------------------------------------------------- #
# Fixed-input rows (the same on every workload)
# --------------------------------------------------------------------- #


def fixed_rows(cal: Calibrator, topology: Dict[str, Any],
               ) -> Dict[str, float]:
    """Direct calls on Table 5's stream set (60 streams, 15 levels,
    10x10 mesh, seed 1) and on the workload's own topology."""
    out: Dict[str, float] = {}
    topo, routing = topology_from_spec(topology)

    def fill() -> RouteTable:
        table = RouteTable(routing)
        for src in range(topo.num_nodes):
            for dst in range(topo.num_nodes):
                if src != dst:
                    table.lookup(src, dst)
        return table

    seconds, table = timed(cal, fill)
    out["topology.route_table.build_ms"] = seconds * 1e3
    out["topology.route_table.misses"] = float(len(table))

    mesh = Mesh2D(10, 10)
    xy = XYRouting(mesh)
    drawn = PaperWorkload(num_streams=60, priority_levels=15,
                          seed=1).generate(mesh)
    seconds, inflation = timed(cal, lambda: inflate_periods(drawn, xy))
    out["analysis.experiments.inflate_ms"] = seconds * 1e3
    streams = inflation.streams

    analyzer = FeasibilityAnalyzer(streams, xy)
    seconds, _ = timed(cal, lambda: build_all_hp_sets(
        analyzer.streams, channels=analyzer.channels))
    out["core.hpset.build_ms"] = seconds * 1e3
    seconds, _ = timed(
        cal, lambda: FeasibilityAnalyzer(streams, xy).determine_feasibility()
    )
    out["core.feasibility.ms_per_stream"] = seconds * 1e3 / len(streams)
    ids = sorted(streams.ids())
    seconds, _ = timed(cal, lambda: [analyzer.cal_u(j) for j in ids])
    out["core.timing_diagram.cal_u_us"] = seconds * 1e6 / len(ids)

    sim_time = 30_000
    seconds, _ = timed(cal, lambda: WormholeSimulator(
        mesh, xy, streams, warmup=2_000).simulate_streams(sim_time))
    out["sim.network.ms_per_run"] = seconds * 1e3
    out["sim.network.cycles_per_s"] = sim_time / seconds
    seconds, _ = timed(cal, lambda: run_table_experiment(
        name="table5", num_streams=60, priority_levels=15, seed=1,
        sim_time=sim_time))
    out["analysis.experiments.table_ms"] = seconds * 1e3
    return out


# --------------------------------------------------------------------- #
# The ladder
# --------------------------------------------------------------------- #


def _tenant_specs(plan: sched.Schedule) -> List[TenantSpec]:
    return [TenantSpec(name, key, plan.topology)
            for name, key in wl.TENANTS[:plan.tenants]]


def _fleet_conns(fleet: Fleet, plan: sched.Schedule) -> List[Direct]:
    return [Direct(asker(fleet.handle_request, name))
            for name, _ in wl.TENANTS[:plan.tenants]]


def service_rows(plan: sched.Schedule, cal: Calibrator, work: Path,
                 spans: List[Dict[str, Any]], fsyncs: List[int],
                 cut_s: float) -> Tuple[Dict[str, float], int, int]:
    """``fsyncs[0]`` is the count kept by the ``os.fsync`` wrapper that
    :func:`run` installs for the whole pass."""
    out: Dict[str, float] = {}
    row = Row(plan, cal, spans, cut_s)
    tenants = range(plan.tenants)
    counter = iter(range(10_000))

    def fresh_dir(label: str) -> Path:
        path = work / f"{label}-{next(counter)}"
        path.mkdir(parents=True)
        return path

    # -- service.engine ------------------------------------------------
    engines: List[BareEngine] = []

    def open_engines():
        engines[:] = [BareEngine(plan.topology) for _ in tenants]
        return [Direct(asker(engine)) for engine in engines], lambda: None

    segs = row.measure("service.engine", open_engines)
    stats = [engine.engine.stats for engine in engines]
    ops = segs[-1].ops
    speed = segs[-1].speed
    layer = "service.engine"
    out[f"{layer}.us_per_op"] = row.us_per_op[layer]
    out[f"{layer}.admit_us"] = row.kind_us[layer]["admit"]
    out[f"{layer}.release_us"] = row.kind_us[layer]["release"]
    for phase in ("route", "hp", "diagram", "verdict"):
        out[f"{layer}.{phase}_s"] = speed * sum(
            getattr(s, f"{phase}_seconds") for s in stats
        )
    recomputed = sum(s.verdicts_recomputed for s in stats)
    reused = sum(s.verdicts_reused for s in stats)
    out[f"{layer}.cache_hit_rate"] = reused / max(1, recomputed + reused)
    out[f"{layer}.dirty_mean"] = (
        sum(s.dirty_total for s in stats) / max(1, sum(s.ops for s in stats))
    )
    out[f"{layer}.verdicts_recomputed"] = float(recomputed)
    out[f"{layer}.hp_rebuilt"] = float(sum(s.hp_rebuilt for s in stats))

    # -- service.host (in memory) --------------------------------------
    def open_hosts():
        hosts = [EngineHost(plan.topology) for _ in tenants]
        return [Direct(asker(h.handle_request)) for h in hosts], lambda: None

    row.measure("service.host", open_hosts)
    out["service.host.us_per_op"] = row.us_per_op["service.host"]
    out["service.host.self_us_per_op"] = (
        row.us_per_op["service.host"] - row.us_per_op["service.engine"]
    )

    # -- service.persistence (journaled host) --------------------------
    journal_dirs: List[Path] = []

    def open_journaled():
        journal_dirs[:] = [fresh_dir("host") for _ in tenants]
        hosts = [EngineHost(plan.topology, state_dir=d)
                 for d in journal_dirs]
        fsyncs[0] = 0
        return ([Direct(asker(h.handle_request)) for h in hosts],
                lambda: [h.close() for h in hosts])

    row.measure("service.persistence", open_journaled)
    acked = sum(op.journaled for op in plan.preload + plan.serial)
    journals = [d / "journal.jsonl" for d in journal_dirs]
    out["service.persistence.self_us_per_op"] = (
        row.us_per_op["service.persistence"] - row.us_per_op["service.host"]
    )
    out["service.persistence.fsyncs_per_op"] = fsyncs[0] / acked
    out["service.persistence.bytes_per_op"] = (
        sum(j.stat().st_size for j in journals) / acked
    )
    records = [json.loads(line) for j in journals
               for line in j.read_text().splitlines()]

    def append_all() -> None:
        state = BrokerState(fresh_dir("append"), plan.topology)
        for record in records:
            state.append(record)
        state.close()

    seconds, _ = timed(cal, append_all)
    out["service.persistence.append_us"] = seconds * 1e6 / len(records)
    seconds, _ = timed(cal, lambda: [
        BrokerState(d, plan.topology).recover() for d in journal_dirs
    ])
    out["service.persistence.recover_ms"] = seconds * 1e3

    def replay_journal() -> None:
        for d in journal_dirs:
            host = EngineHost(plan.topology)
            for record in BrokerState(d, plan.topology).recover().ops:
                host.apply_journal_op(record)

    seconds, _ = timed(cal, replay_journal, repeats=2)
    out["service.host.replay_ms"] = seconds * 1e3

    # -- fleet.replication (over the same journals) --------------------
    standbys: List[ShardStandby] = []

    def catch_up() -> None:
        standbys[:] = [ShardStandby(d, plan.topology) for d in journal_dirs]
        for standby in standbys:
            standby.catch_up()

    seconds, _ = timed(cal, catch_up, repeats=2)
    out["fleet.replication.catch_up_ms"] = seconds * 1e3
    seconds, promoted = timed(
        cal, lambda: [s.promote() for s in standbys], repeats=1
    )
    for host in promoted:
        host.close()
    out["fleet.replication.promote_ms"] = seconds * 1e3

    # -- service.protocol ----------------------------------------------
    requests = [op.request() for op in plan.serial]
    wire = [encode(r) for r in requests]
    reference = [EngineHost(plan.topology) for _ in tenants]
    for op in plan.preload:
        reference[op.conn].handle_request(op.request())
    responses = [reference[op.conn].handle_request(op.request())
                 for op in plan.serial]
    seconds, _ = timed(cal, lambda: [encode(m) for m in responses])
    out["service.protocol.encode_us"] = seconds * 1e6 / len(responses)
    seconds, _ = timed(cal, lambda: [decode(line) for line in wire])
    out["service.protocol.decode_us"] = seconds * 1e6 / len(wire)

    # -- service.server (journaled host behind a unix socket) ----------
    batch_mean = [0.0]

    def open_servers():
        servers, clients = [], []
        for _ in tenants:
            base = fresh_dir("server")
            broker = BrokerServer(plan.topology, state_dir=base / "state")
            servers.append(OnOwnLoop(
                broker, lambda b=broker, p=base: b.start_unix(p / "b.sock")
            ))
            clients.append(BrokerClient(socket_path=base / "b.sock"))

        def close() -> None:
            batching = clients[0].request("stats")["service"]["batching"]
            batch_mean[0] = batching["mean_size"]
            for client in clients:
                client.close()
            for server in servers:
                server.close()

        return [Direct(c.request) for c in clients], close

    row.measure("service.server", open_servers)
    out["service.server.us_per_op"] = row.us_per_op["service.server"]
    out["service.server.self_us_per_op"] = (
        row.us_per_op["service.server"]
        - row.us_per_op["service.persistence"]
    )
    out["service.server.batch_mean"] = batch_mean[0]

    # -- fleet.shards (journaled, in-process) --------------------------
    escalations = [0]

    def open_fleet():
        fleet = Fleet(_tenant_specs(plan), shards=2,
                      state_dir=fresh_dir("fleet"))

        def close() -> None:
            escalations[0] = sum(
                tf.escalations for tf in fleet.tenants.values()
            )
            fleet.close()

        return _fleet_conns(fleet, plan), close

    row.measure("fleet.shards", open_fleet)
    out["fleet.shards.us_per_op"] = row.us_per_op["fleet.shards"]
    out["fleet.shards.self_us_per_op"] = (
        row.us_per_op["fleet.shards"] - row.us_per_op["service.persistence"]
    )
    out["fleet.shards.escalations"] = float(escalations[0])
    link_us = [row.kind_us["fleet.shards"].get(kind)
               for kind in ("fail_link", "restore_link")]
    link_us = [v for v in link_us if v is not None]
    out["fleet.shards.link_op_ms"] = (
        statistics.mean(link_us) / 1e3 if link_us else _probe_link_ms(
            plan, cal, fresh_dir("fleet-link"))
    )

    # -- fleet.workers (shards in 2 child processes) -------------------
    spawn_ms: List[float] = []
    rtt_us: List[float] = []

    def open_workers():
        state = fresh_dir("workers")
        seconds, fleet = timed(
            cal, lambda: Fleet(_tenant_specs(plan), shards=2,
                               state_dir=state, workers=2), repeats=1)
        spawn_ms.append(seconds * 1e3)
        client = fleet.supervisor.workers[0].client
        probe = {"op": "worker_stats",
                 "shard": f"{wl.TENANTS[0][0]}/shard-0"}
        seconds, _ = timed(cal, lambda: [
            client.call(probe) for _ in range(200)
        ])
        rtt_us.append(seconds * 1e6 / 200)
        return _fleet_conns(fleet, plan), fleet.close

    row.measure("fleet.workers", open_workers)
    out["fleet.workers.us_per_op"] = row.us_per_op["fleet.workers"]
    out["fleet.workers.self_us_per_op"] = (
        row.us_per_op["fleet.workers"] - row.us_per_op["fleet.shards"]
    )
    out["fleet.workers.rpc_rtt_us"] = statistics.median(rtt_us)
    out["fleet.workers.spawn_ms"] = statistics.median(spawn_ms)

    # -- fleet.gateway (HTTP in front of the worker fleet) -------------
    healthz_us: List[float] = []

    def open_gateway():
        fleet = Fleet(_tenant_specs(plan), shards=2,
                      state_dir=fresh_dir("gateway"), workers=2)
        port = free_tcp_port()
        server = GatewayServer(fleet)
        try:
            gateway = OnOwnLoop(server,
                                lambda: server.start("127.0.0.1", port))
        except BaseException:
            fleet.close()
            raise
        clients = [GatewayClient(f"127.0.0.1:{port}", api_key=key)
                   for _, key in wl.TENANTS[:plan.tenants]]
        seconds, _ = timed(cal, lambda: [
            clients[0].get("/healthz") for _ in range(100)
        ])
        healthz_us.append(seconds * 1e6 / 100)

        def close() -> None:
            for client in clients:
                client.close()
            gateway.close()  # closes the fleet and stops its workers

        return [Direct(c.request) for c in clients], close

    segs = row.measure("fleet.gateway", open_gateway, repeats=3)
    out["fleet.gateway.us_per_op"] = row.us_per_op["fleet.gateway"]
    out["fleet.gateway.self_us_per_op"] = (
        row.us_per_op["fleet.gateway"] - row.us_per_op["fleet.workers"]
    )
    out["fleet.gateway.healthz_rtt_us"] = statistics.median(healthz_us)
    # The second replay of a row records spans, the others do not.
    untraced = statistics.mean(seg.cal_s for seg in (segs[0], segs[2]))
    out["trace.overhead_pct"] = (
        (segs[1].cal_s - untraced) / untraced * 100.0
    )
    return out, row.attempted, row.failed


def _probe_link_ms(plan: sched.Schedule, cal: Calibrator,
                   state: Path) -> float:
    """A cycle without link events (the churn workloads): time one
    fail/restore pair on a journaled fleet holding the preload set."""
    fleet = Fleet(_tenant_specs(plan), shards=2, state_dir=state)
    try:
        name = wl.TENANTS[0][0]
        for op in plan.preload:
            fleet.handle_request(name, op.request())
        topo = topology_from_spec(plan.topology)[0]
        link = sorted(tuple(sorted(c)) for c in topo.channels())[0]

        def pair() -> None:
            for kind in ("fail_link", "restore_link"):
                reply = fleet.handle_request(
                    name, {"op": kind, "link": list(link)})
                if not reply.get("ok"):
                    raise RuntimeError(f"link probe failed: {reply}")

        seconds, _ = timed(cal, pair, repeats=1)
        return seconds * 1e3 / 2
    finally:
        fleet.close()


PER_LAYER_UNITS = {
    "topology.route_table.build_ms": "ms",
    "topology.route_table.misses": "count",
    "core.hpset.build_ms": "ms",
    "core.feasibility.ms_per_stream": "ms",
    "core.timing_diagram.cal_u_us": "us",
    "analysis.experiments.inflate_ms": "ms",
    "analysis.experiments.table_ms": "ms",
    "sim.network.cycles_per_s": "1/s",
    "sim.network.ms_per_run": "ms",
    "service.engine.us_per_op": "us",
    "service.engine.admit_us": "us",
    "service.engine.release_us": "us",
    "service.engine.route_s": "s",
    "service.engine.hp_s": "s",
    "service.engine.diagram_s": "s",
    "service.engine.verdict_s": "s",
    "service.engine.cache_hit_rate": "ratio",
    "service.engine.dirty_mean": "count",
    "service.engine.verdicts_recomputed": "count",
    "service.engine.hp_rebuilt": "count",
    "service.host.us_per_op": "us",
    "service.host.self_us_per_op": "us",
    "service.host.replay_ms": "ms",
    "service.persistence.self_us_per_op": "us",
    "service.persistence.append_us": "us",
    "service.persistence.fsyncs_per_op": "count",
    "service.persistence.bytes_per_op": "B",
    "service.persistence.recover_ms": "ms",
    "service.protocol.encode_us": "us",
    "service.protocol.decode_us": "us",
    "service.server.us_per_op": "us",
    "service.server.self_us_per_op": "us",
    "service.server.batch_mean": "count",
    "fleet.shards.us_per_op": "us",
    "fleet.shards.self_us_per_op": "us",
    "fleet.shards.escalations": "count",
    "fleet.shards.link_op_ms": "ms",
    "fleet.workers.us_per_op": "us",
    "fleet.workers.self_us_per_op": "us",
    "fleet.workers.rpc_rtt_us": "us",
    "fleet.workers.spawn_ms": "ms",
    "fleet.gateway.us_per_op": "us",
    "fleet.gateway.self_us_per_op": "us",
    "fleet.gateway.healthz_rtt_us": "us",
    "fleet.replication.catch_up_ms": "ms",
    "fleet.replication.promote_ms": "ms",
    "trace.overhead_pct": "%",
}


def run(workload: wl.Workload, seed: int, scale: float, work: Path,
        ) -> Tuple[Dict[str, float], Dict[str, str], int, int,
                   Dict[str, Any]]:
    """The traced pass of one workload; see the module docstring."""
    cal = Calibrator()
    spans: List[Dict[str, Any]] = []
    topology = workload.topology or wl.MESH_10
    metrics = fixed_rows(cal, topology)
    attempted, failed = len(metrics), 0
    if workload.surface != "offline":
        plan = wl.build_schedule(workload, seed, scale)
        # The spine's flush policy (sut_site/sitecustomize.py), applied
        # to the in-process rows too: flushes are counted, not waited for.
        fsyncs = [0]
        real_fsync = os.fsync

        def counted_fsync(fd: int) -> None:
            fsyncs[0] += 1

        os.fsync = counted_fsync
        try:
            rows, attempted, failed = service_rows(
                plan, cal, work, spans, fsyncs, workload.serial_cut_s
            )
        finally:
            os.fsync = real_fsync
        metrics.update(rows)
    metrics = {name: metrics[name] for name in PER_LAYER_UNITS
               if name in metrics}
    units = {name: PER_LAYER_UNITS[name] for name in metrics}
    trace = {"host_speed": cal.host_speed(), "spans": spans,
             "metrics": metrics}
    return metrics, units, attempted, failed, trace
