"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``example``
    Run the paper's section 4.4 worked example and print the ASCII
    renderings of Figs. 7-9 plus the bounds U = (7, 8, 26, 20, 33).
``table {table1..table5}``
    Regenerate one of the paper's evaluation tables end to end.
``inversion``
    The Fig. 2 priority-inversion comparison (classical vs preemptive).
``check FILE``
    Feasibility-test a stream set described in a JSON problem file::

        {
          "topology": {"type": "mesh", "width": 10, "height": 10},
          "streams": [
            {"id": 0, "src": [7, 3], "dst": [7, 7],
             "priority": 5, "period": 150, "length": 4, "deadline": 150}
          ]
        }

    Three topology types are accepted (see :func:`repro.io.topology_from_spec`):
    ``{"type": "mesh", "width": W, "height": H}`` (X-Y routing),
    ``{"type": "torus", "dims": [d0, d1, ...]}`` (dimension-order routing
    with dateline VC classes), and ``{"type": "hypercube", "dimension": n}``
    (e-cube routing). ``src``/``dst`` may be coordinate lists (mesh/torus)
    or integer node ids; the legacy top-level ``mesh`` key is still
    accepted. Exit codes: 0 feasible, 1 infeasible, 2 invalid problem,
    3 malformed JSON, 4 missing file.
``explain FILE STREAM``
    Show *where a stream's delay bound comes from*: the HP elements
    (DIRECT/INDIRECT) with their busy-slot contributions, the released
    indirect instances, and an annotated timing diagram (see
    :mod:`repro.obs.provenance`). ``--json`` emits the machine-readable
    breakdown. Exit codes follow ``check``, plus 0/1 for the stream's own
    feasibility.
``trace JSONL OUT``
    Convert a JSONL trace (recorded with ``REPRO_TRACE=1``; see
    :mod:`repro.obs.trace`) to Chrome trace format for ``about:tracing``
    / Perfetto. ``--clock logical`` matches ``REPRO_TRACE_CLOCK=logical``
    recordings.
``fuzz``
    Differential soundness fuzzing (see :mod:`repro.fuzz`): random
    workloads through analysis and simulator, invariant cross-checks,
    counterexample shrinking and replay. ``--replay FILE`` re-runs a
    stored counterexample; ``--self-test`` proves the harness against an
    injected bound perturbation; ``--preset paper`` is the paper's
    soundness campaign (its workload with ``T := U``). Exit 0 iff no
    violation (for ``--replay``: iff the counterexample still
    reproduces, exit 1).
``serve``
    Run the online channel broker (see :mod:`repro.service`): a
    JSON-lines server on one ``selectors`` loop over a unix socket (``--socket``) or TCP
    (``--host``/``--port``) exposing admit/release/query/report/snapshot/
    stats ops (one request per line, up to 8 MiB), with optional
    snapshot+journal persistence (``--state-dir``). ``--metrics-port
    PORT`` additionally serves Prometheus metrics on ``GET /metrics``.
    SIGTERM or SIGINT stops it as a ``shutdown`` op does: drained, its
    socket unlinked.
``load``
    Replay seeded admit/release churn against a running broker and print
    a JSON summary (throughput, acceptance rate, server stats). Used by
    the CI smoke job and for capacity probing. ``--target http://...``
    (with ``--api-key``, optionally ``--tenant`` to assert which tenant
    the key maps to) drives a fleet gateway over HTTP instead of a raw
    broker socket — same workload, same summary.
``gateway``
    Run the multi-tenant broker fleet behind an HTTP front end (see
    :mod:`repro.fleet`): per-tenant API keys (``--tenant NAME=KEY``,
    repeatable), one engine per tenant, journals under ``--state-dir``,
    ``GET /healthz``, a Prometheus ``GET /metrics`` rollup, the JSON
    admission API under ``/v1/`` and kill/failover admin ops under
    ``/admin/`` (a failover replays the tenant's journal, as a restart
    does). ``--shards`` is accepted (at least 1) and ignored. SIGTERM
    or SIGINT stops it as a ``shutdown`` op does; its worker processes
    (``--workers``) are SIGTERMed, drain and are reaped.
``chaos``
    Run a seeded fault-injection campaign (see
    :mod:`repro.faults.campaign`): a fault-free oracle executes an op
    schedule, then the same schedule runs against a persistent broker
    while persistence, protocol, engine and (``--link-rate``) link
    faults fire: torn journal writes, kills + restarts, dropped
    connections, cache storms. Exit 0 iff the recovered state is
    bit-identical to the oracle, no acknowledged op was lost, and at
    least ``--min-faults`` faults fired. The printed seed reproduces the
    campaign exactly. ``--fleet`` points the same driver at the fleet
    instead: multi-tenant churn with journal faults, whole-fleet crash
    restarts, tenant kills and their failovers, and worker SIGKILLs,
    judged per tenant against single-engine oracles.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import __version__
from .core.feasibility import FeasibilityAnalyzer
from .core.streams import MessageStream, StreamSet
from .errors import ReproError
from .topology import Mesh2D, XYRouting

__all__ = ["main", "build_parser"]


def _inert_shards(text: str) -> int:
    """``repro gateway --shards N``: validated as at least 1, then
    ignored. The bench spine still passes it; retired with ROADMAP item
    10(a)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"need at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Real-Time Communication Method for "
            "Wormhole Switching Networks' (ICPP 1998)"
        ),
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("example", help="run the section 4.4 worked example")

    p_table = sub.add_parser("table", help="regenerate a paper table")
    p_table.add_argument("name", choices=[f"table{i}" for i in range(1, 6)])
    p_table.add_argument("--seed", type=int, default=0)
    p_table.add_argument("--sim-time", type=int, default=30_000)

    sub.add_parser("inversion",
                   help="Fig. 2 priority-inversion comparison")

    p_check = sub.add_parser("check",
                             help="feasibility-test streams from a JSON file")
    p_check.add_argument("file", help="JSON problem description")
    p_check.add_argument("--out", default=None,
                         help="write the report as JSON to this path")
    p_check.add_argument("--analysis", default=None, metavar="BACKEND",
                         help="bound backend (kim98/tighter/buffered; "
                              "default: REPRO_ANALYSIS_BACKEND or kim98); "
                              "unknown names exit 2")

    p_explain = sub.add_parser(
        "explain",
        help="show where a stream's delay bound comes from",
    )
    p_explain.add_argument("file", help="JSON problem description")
    p_explain.add_argument("stream", type=int,
                           help="stream id to explain")
    p_explain.add_argument("--json", action="store_true",
                           help="emit the explanation as JSON")
    p_explain.add_argument("--no-diagram", action="store_true",
                           help="skip the annotated timing diagram")
    p_explain.add_argument("--analysis", default=None, metavar="BACKEND",
                           help="bound backend to explain under "
                                "(default: REPRO_ANALYSIS_BACKEND or kim98)")

    p_trace = sub.add_parser(
        "trace", help="convert a JSONL trace to Chrome trace format"
    )
    p_trace.add_argument("jsonl", help="trace file written under REPRO_TRACE")
    p_trace.add_argument("out", help="Chrome trace JSON output path")
    p_trace.add_argument("--clock", choices=["wall", "logical"],
                         default="wall",
                         help="timestamp base the trace was recorded with "
                              "(REPRO_TRACE_CLOCK; default wall)")

    p_fuzz = sub.add_parser(
        "fuzz", help="differential soundness fuzzing (analysis vs simulator)"
    )
    p_fuzz.add_argument("--seeds", type=int, default=100,
                        help="number of random cases (default 100)")
    p_fuzz.add_argument("--seed0", type=int, default=0,
                        help="first seed (default 0)")
    p_fuzz.add_argument("--mesh", default="4x4", metavar="WxH",
                        help="mesh size, e.g. 4x4 (default)")
    p_fuzz.add_argument("--max-streams", type=int, default=8,
                        help="stream-count ceiling per case (default 8)")
    p_fuzz.add_argument("--sim-time", type=int, default=2_500,
                        help="simulated slots per case (default 2500)")
    p_fuzz.add_argument("--jobs", type=int, default=0,
                        help="worker processes; 0 = one per CPU, 1 = serial")
    p_fuzz.add_argument("--time-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="soft wall-clock cap; stop starting new batches")
    p_fuzz.add_argument("--corpus", default="fuzz-corpus",
                        help="directory for shrunk counterexamples "
                             "(default fuzz-corpus/)")
    p_fuzz.add_argument("--residency-margin", type=int, default=1,
                        help="analysis residency margin (default 1; "
                             "0 = the paper's unsound original)")
    p_fuzz.add_argument("--preset", default=None, metavar="NAME",
                        help="draw every case from one preset (uniform, "
                             "chain, hotspot, funnel, paper)")
    p_fuzz.add_argument("--replay", metavar="FILE", default=None,
                        help="re-run one stored counterexample and exit")
    p_fuzz.add_argument("--self-test", action="store_true",
                        help="prove the harness catches an injected "
                             "bound perturbation end to end")

    p_serve = sub.add_parser(
        "serve", help="run the online channel broker (JSON-lines server)"
    )
    p_serve.add_argument("--socket", default=None, metavar="PATH",
                         help="listen on a unix socket at PATH")
    p_serve.add_argument("--host", default=None,
                         help="listen on TCP HOST (with --port)")
    p_serve.add_argument("--port", type=int, default=7315,
                         help="TCP port (default 7315)")
    p_serve.add_argument("--mesh", default=None, metavar="WxH",
                         help="shortcut for a WxH mesh topology")
    p_serve.add_argument("--topology", default=None, metavar="JSON",
                         help="topology spec as JSON, e.g. "
                              "'{\"type\": \"torus\", \"dims\": [4, 4]}'")
    p_serve.add_argument("--state-dir", default=None, metavar="DIR",
                         help="snapshot+journal persistence directory")
    p_serve.add_argument("--analysis", default=None, metavar="BACKEND",
                         help="engine-default bound backend for admits "
                              "that do not name one (default: "
                              "REPRO_ANALYSIS_BACKEND or kim98)")
    p_serve.add_argument("--metrics-port", type=int, default=None,
                         metavar="PORT",
                         help="serve Prometheus metrics over HTTP on "
                              "127.0.0.1:PORT (GET /metrics)")
    p_serve.add_argument("--metrics-host", default="127.0.0.1",
                         help="bind address for --metrics-port "
                              "(default 127.0.0.1)")

    p_gateway = sub.add_parser(
        "gateway", help="run the multi-tenant broker fleet behind HTTP"
    )
    p_gateway.add_argument("--host", default="127.0.0.1",
                           help="bind address (default 127.0.0.1)")
    p_gateway.add_argument("--port", type=int, default=7316,
                           help="HTTP port (default 7316)")
    p_gateway.add_argument("--tenant", action="append", default=None,
                           metavar="NAME=KEY",
                           help="tenant and its API key; repeatable "
                                "(default: one tenant 'default=dev-key')")
    p_gateway.add_argument("--shards", type=_inert_shards, default=1,
                           help="accepted (at least 1) and ignored: a "
                                "tenant is one engine")
    p_gateway.add_argument("--workers", type=int, default=0,
                           help="run tenants in N supervised worker "
                                "processes (needs --state-dir; default "
                                "0 = in-process)")
    p_gateway.add_argument("--mesh", default=None, metavar="WxH",
                           help="shortcut for a WxH mesh topology")
    p_gateway.add_argument("--topology", default=None, metavar="JSON",
                           help="topology spec as JSON (all tenants)")
    p_gateway.add_argument("--state-dir", default=None, metavar="DIR",
                           help="persistence root (one subdirectory per "
                                "tenant); also enables "
                                "/admin/failover")

    p_load = sub.add_parser(
        "load", help="replay admit/release churn against a running broker"
    )
    p_load.add_argument("--socket", default=None, metavar="PATH",
                        help="broker unix socket")
    p_load.add_argument("--host", default=None, help="broker TCP host")
    p_load.add_argument("--port", type=int, default=7315,
                        help="broker TCP port (default 7315)")
    p_load.add_argument("--target", default=None, metavar="URL",
                        help="fleet gateway base URL (http://host:port); "
                             "drives the same churn over HTTP")
    p_load.add_argument("--api-key", default=None,
                        help="tenant API key for --target")
    p_load.add_argument("--tenant", default=None,
                        help="assert the --api-key maps to this tenant")
    p_load.add_argument("--ops", type=int, default=300,
                        help="operations to replay (default 300)")
    p_load.add_argument("--seed", type=int, default=0,
                        help="churn RNG seed (default 0)")
    p_load.add_argument("--target-live", type=int, default=40,
                        help="occupancy the churn hovers around")
    p_load.add_argument("--batch-size", type=int, default=1,
                        help="streams per admit request (default 1)")
    p_load.add_argument("--pipeline", type=int, default=1,
                        help="requests kept in flight, over a socket "
                             "or --target alike (default 1 = closed loop)")
    p_load.add_argument("--wait", type=float, default=10.0,
                        help="seconds to wait for the broker socket")
    p_load.add_argument("--trace", default=None, metavar="FILE",
                        help="replay a recorded JSON-lines op trace "
                             "instead of seeded churn")
    p_load.add_argument("--pattern", default=None,
                        choices=["bursty", "diurnal"],
                        help="generate a seeded trace (admit bursts / "
                             "sinusoidal occupancy) and replay it")
    p_load.add_argument("--link-rate", type=float, default=0.0,
                        help="per-op probability of a link fail/restore "
                             "event in a generated trace (--pattern "
                             "only; default 0)")
    p_load.add_argument("--save-trace", default=None, metavar="FILE",
                        help="write the replayed trace to FILE "
                             "(JSON lines)")
    p_load.add_argument("--assert-stats", action="store_true",
                        help="exit 1 unless server stats are non-empty")
    p_load.add_argument("--shutdown", action="store_true",
                        help="send a shutdown op after the run")

    p_chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection campaign against the channel broker",
    )
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="campaign seed (default 0); reproduces "
                              "schedule and fault placement exactly")
    p_chaos.add_argument("--ops", type=int, default=150,
                         help="schedule length (default 150)")
    p_chaos.add_argument("--mesh", default="6x6", metavar="WxH",
                         help="mesh size (default 6x6)")
    p_chaos.add_argument("--target-live", type=int, default=12,
                         help="occupancy the churn hovers around")
    p_chaos.add_argument("--persistence-rate", type=float, default=0.30,
                         help="per-op probability of a journal fault")
    p_chaos.add_argument("--protocol-rate", type=float, default=0.45,
                         help="per-op probability of a connection fault")
    p_chaos.add_argument("--engine-rate", type=float, default=0.18,
                         help="per-op probability of a cache storm")
    p_chaos.add_argument("--restart-rate", type=float, default=0.06,
                         help="per-op probability of a socket-stage "
                              "server restart")
    p_chaos.add_argument("--link-rate", type=float, default=0.0,
                         help="per-slot probability the schedule kills "
                              "or restores a topology link (default 0; "
                              "also with --fleet)")
    p_chaos.add_argument("--socket-fraction", type=float, default=0.4,
                         help="fraction of ops run over a real unix "
                              "socket (default 0.4)")
    p_chaos.add_argument("--state-dir", default=None, metavar="DIR",
                         help="broker state dir (default: a temp dir)")
    p_chaos.add_argument("--min-faults", type=int, default=0,
                         help="fail unless at least this many faults "
                              "fired across all three layers")
    p_chaos.add_argument("--fleet", action="store_true",
                         help="run the campaign against a multi-tenant "
                              "fleet (kills, failovers, whole-fleet "
                              "restarts)")
    p_chaos.add_argument("--tenants", type=int, default=3,
                         help="fleet tenants (--fleet only; default 3)")
    p_chaos.add_argument("--kill-rate", type=float, default=0.04,
                         help="per-op probability of a tenant kill "
                              "(--fleet only; default 0.04)")
    p_chaos.add_argument("--min-kills", type=int, default=0,
                         help="fail unless at least this many tenants "
                              "were killed (--fleet only)")
    p_chaos.add_argument("--workers", type=int, default=0,
                         help="run tenants in N supervised worker "
                              "processes and SIGKILL them for real "
                              "(--fleet only; default 0 = in-process)")
    p_chaos.add_argument("--worker-kill-rate", type=float, default=0.10,
                         help="per-op probability of a worker SIGKILL "
                              "(--fleet --workers only; default 0.10)")
    p_chaos.add_argument("--min-worker-kills", type=int, default=0,
                         help="fail unless at least this many worker "
                              "processes were SIGKILLed (--fleet only)")

    return parser


def _run_example() -> int:
    from .core.hpset import HPEntry, HPSet
    from .core.render import render_diagram, render_hp_set

    mesh = Mesh2D(10, 10)
    routing = XYRouting(mesh)
    spec = [
        ((7, 3), (7, 7), 5, 15, 4, 15, 7),
        ((1, 1), (5, 4), 4, 10, 2, 10, 8),
        ((2, 1), (7, 5), 3, 40, 4, 40, 12),
        ((4, 1), (8, 5), 2, 45, 9, 45, 16),
        ((6, 1), (9, 3), 1, 50, 6, 50, 10),
    ]
    streams = StreamSet()
    for i, (s, r, p, t, c, d, latency) in enumerate(spec):
        streams.add(MessageStream(
            i, mesh.node_xy(*s), mesh.node_xy(*r), priority=p, period=t,
            length=c, deadline=d, latency=latency,
        ))
    override = {
        3: HPSet(3, [HPEntry.direct(1)]),
        4: HPSet(4, [HPEntry.indirect(0, [2]), HPEntry.indirect(1, [2, 3]),
                     HPEntry.direct(2), HPEntry.direct(3)]),
    }
    an = FeasibilityAnalyzer(streams, routing, hp_override=override)
    for sid in sorted(an.hp_sets):
        print(render_hp_set(an.hp_sets[sid]))
    final, removed = an.diagram_for(4)
    print(render_diagram(final, upper_bound=final.upper_bound(10)))
    report = an.determine_feasibility()
    print(f"U = {report.upper_bounds()} "
          f"-> {'success' if report.success else 'fail'}")
    return 0


def _run_table(name: str, seed: int, sim_time: int) -> int:
    from .analysis import format_table, run_paper_table

    result = run_paper_table(name, seed=seed, sim_time=sim_time)
    print(format_table(result))
    return 0


def _run_inversion() -> int:
    from .baselines import compare_arbitration, priority_inversion_scenario

    mesh, routing, streams = priority_inversion_scenario()
    cmp = compare_arbitration(mesh, routing, streams,
                              until=20_000, warmup=2_000)
    for p in sorted(cmp.preemptive, reverse=True):
        pre, cla = cmp.preemptive[p], cmp.classical[p]
        print(f"P{p}: preemptive {pre.mean:.1f}/{pre.maximum} "
              f"classical {cla.mean:.1f}/{cla.maximum} "
              f"({cmp.blowup(p):.1f}x)")
    return 0


def _run_check(
    path: str, out: Optional[str] = None, analysis: Optional[str] = None
) -> int:
    from .core.backends import get as get_backend, resolve_name
    from .io import load_problem, report_to_spec

    # Validated before any file I/O: an unknown --analysis must exit 2
    # (invalid input), never silently fall back to kim98. get/resolve
    # raise AnalysisError, which main() maps to exit code 2.
    backend = get_backend(resolve_name(analysis))
    try:
        topology, routing, streams = load_problem(path)
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
        return 4
    except json.JSONDecodeError as exc:
        print(f"error: {path} is not valid JSON: {exc}", file=sys.stderr)
        return 3
    report = FeasibilityAnalyzer(
        streams, routing, backend=backend
    ).determine_feasibility()
    if out:
        import pathlib

        pathlib.Path(out).write_text(
            json.dumps(report_to_spec(report), indent=2) + "\n"
        )
    for sid, verdict in sorted(report.verdicts.items()):
        mark = "ok  " if verdict.feasible else "MISS"
        print(f"  M{sid}: U={verdict.upper_bound:>5}  "
              f"D={verdict.stream.deadline:>5}  {mark}")
    print(f"{'feasible' if report.success else 'infeasible'} "
          f"({backend.name})")
    return 0 if report.success else 1


def _run_explain(args: argparse.Namespace) -> int:
    from .core.backends import get as get_backend, resolve_name
    from .io import load_problem
    from .obs.provenance import explain_stream, render_explanation

    backend = get_backend(resolve_name(args.analysis))
    try:
        topology, routing, streams = load_problem(args.file)
    except FileNotFoundError:
        print(f"error: no such file: {args.file}", file=sys.stderr)
        return 4
    except json.JSONDecodeError as exc:
        print(f"error: {args.file} is not valid JSON: {exc}", file=sys.stderr)
        return 3
    if args.stream not in streams:
        known = ", ".join(str(s.stream_id) for s in streams)
        print(f"error: no stream {args.stream} in {args.file} "
              f"(streams: {known})", file=sys.stderr)
        return 2
    analyzer = FeasibilityAnalyzer(streams, routing, backend=backend)
    explanation = explain_stream(analyzer, args.stream)
    if args.json:
        print(json.dumps(explanation.to_spec(), indent=2))
    else:
        print(render_explanation(
            explanation,
            analyzer=None if args.no_diagram else analyzer,
        ))
    return 0 if explanation.feasible else 1


def _run_trace(args: argparse.Namespace) -> int:
    from .obs.chrome import export_chrome_trace

    try:
        count = export_chrome_trace(args.jsonl, args.out, clock=args.clock)
    except FileNotFoundError:
        print(f"error: no such file: {args.jsonl}", file=sys.stderr)
        return 4
    print(f"wrote {count} events to {args.out}")
    return 0


def _parse_mesh(text: str) -> tuple:
    try:
        w, h = text.lower().split("x")
        width, height = int(w), int(h)
    except ValueError:
        raise ReproError(
            f"--mesh wants WxH (e.g. 4x4), got {text!r}"
        ) from None
    if width < 2 or height < 1:
        raise ReproError(f"mesh {width}x{height} is too small to route on")
    return width, height


def _run_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import (
        GeneratorConfig,
        replay,
        run_fuzz_campaign,
        run_self_test,
    )

    if args.replay is not None:
        try:
            result = replay(args.replay)
        except FileNotFoundError:
            print(f"error: no such file: {args.replay}", file=sys.stderr)
            return 4
        except json.JSONDecodeError as exc:
            print(f"error: {args.replay} is not valid JSON: {exc}",
                  file=sys.stderr)
            return 3
        print(result.summary())
        return 1 if result.reproduced else 0

    width, height = _parse_mesh(args.mesh)
    cfg = GeneratorConfig(
        width=width,
        height=height,
        max_streams=args.max_streams,
        sim_time=args.sim_time,
        residency_margin=args.residency_margin,
        **({"presets": (args.preset,)} if args.preset else {}),
    )
    if args.self_test:
        ok, text = run_self_test(
            corpus_dir=args.corpus, generator=cfg, jobs=args.jobs
        )
        print(text)
        return 0 if ok else 1

    report = run_fuzz_campaign(
        seeds=args.seeds,
        seed0=args.seed0,
        generator=cfg,
        jobs=args.jobs,
        time_budget=args.time_budget,
        corpus_dir=args.corpus,
    )
    print(report.summary())
    return 0 if report.sound else 1


def _serve_topology_spec(args: argparse.Namespace) -> dict:
    if args.mesh is not None and args.topology is not None:
        raise ReproError("pass --mesh or --topology, not both")
    if args.topology is not None:
        try:
            spec = json.loads(args.topology)
        except json.JSONDecodeError as exc:
            raise ReproError(f"--topology is not valid JSON: {exc}") from None
        if not isinstance(spec, dict):
            raise ReproError("--topology must be a JSON object")
        return spec
    width, height = _parse_mesh(args.mesh or "10x10")
    return {"type": "mesh", "width": width, "height": height}


def _run_serve(args: argparse.Namespace) -> int:
    from .service.server import BrokerServer

    if (args.socket is None) == (args.host is None):
        raise ReproError("pass exactly one of --socket or --host")
    server = BrokerServer(
        _serve_topology_spec(args),
        state_dir=args.state_dir,
        analysis=args.analysis,
    )
    server.stop_on_signals()
    if args.socket is not None:
        server.bind_unix(args.socket)
        where = args.socket
    else:
        port = server.bind_tcp(args.host, args.port)
        where = f"{args.host}:{port}"
    if args.metrics_port is not None:
        port = server.bind_metrics_http(args.metrics_host, args.metrics_port)
        print(f"metrics on http://{args.metrics_host}:{port}/metrics",
              flush=True)
    print(f"repro-broker listening on {where} "
          f"({len(server.engine.admitted)} recovered)", flush=True)
    server.run()
    return 0


def _run_gateway(args: argparse.Namespace) -> int:
    from .fleet import Fleet, GatewayServer, TenantSpec

    topo = _serve_topology_spec(args)
    pairs = args.tenant or ["default=dev-key"]
    specs = []
    for pair in pairs:
        name, sep, key = pair.partition("=")
        if not sep or not name or not key:
            raise ReproError(
                f"--tenant wants NAME=KEY, got {pair!r}"
            )
        specs.append(TenantSpec(name, key, topo))
    fleet = Fleet(specs, state_dir=args.state_dir, workers=args.workers)
    gateway = GatewayServer(fleet)
    gateway.stop_on_signals()
    recovered = sum(
        answer.get("admitted") or 0 for answer in fleet.stats().values()
    )
    if fleet.supervisor is not None:  # the count's loops would only idle
        for wp in fleet.supervisor.workers:
            wp.client.close_forward()
    port = gateway.bind_tcp(args.host, args.port)
    print(
        f"repro-gateway listening on http://{args.host}:{port} "
        f"({len(specs)} tenant(s), {recovered} stream(s) recovered, "
        f"{args.workers or 'no'} worker process(es))",
        flush=True,
    )
    gateway.run()
    return 0


def _run_load(args: argparse.Namespace) -> int:
    import random

    from .service.loadgen import (
        BrokerClient,
        generate_trace,
        load_trace,
        run_load,
        run_trace,
        save_trace,
    )

    chosen = [o for o in (args.socket, args.host, args.target)
              if o is not None]
    if len(chosen) != 1:
        raise ReproError(
            "pass exactly one of --socket, --host or --target"
        )
    if args.trace is not None and args.pattern is not None:
        raise ReproError("pass at most one of --trace and --pattern")
    if args.target is not None:
        from .fleet import GatewayClient

        if args.api_key is None:
            raise ReproError("--target needs --api-key")
        client = GatewayClient(args.target, api_key=args.api_key)
        if args.tenant is not None:
            hello = client.check("hello")
            if hello.get("tenant") != args.tenant:
                client.close()
                raise ReproError(
                    f"API key maps to tenant {hello.get('tenant')!r}, "
                    f"not {args.tenant!r}"
                )
    elif args.socket is not None:
        client = BrokerClient.wait_for_unix(args.socket, timeout=args.wait)
    else:
        client = BrokerClient(host=args.host, port=args.port)
    with client:
        if args.trace is not None or args.pattern is not None:
            if args.trace is not None:
                trace = load_trace(args.trace)
            else:
                hello = client.check("hello")
                pool: List[tuple] = []
                if args.link_rate > 0:
                    from .io import topology_from_spec
                    from .topology import links

                    pool = links(topology_from_spec(hello["topology"])[0])
                trace = generate_trace(
                    args.pattern,
                    random.Random(args.seed),
                    int(hello["nodes"]),
                    ops=args.ops,
                    target_live=args.target_live,
                    links=pool,
                    link_rate=args.link_rate,
                )
            if args.save_trace is not None:
                save_trace(args.save_trace, trace)
            summary = run_trace(client, trace)
        else:
            summary = run_load(
                client,
                ops=args.ops,
                seed=args.seed,
                target_live=args.target_live,
                batch_size=args.batch_size,
                pipeline=args.pipeline,
            )
        if args.shutdown:
            client.check("shutdown")
    print(json.dumps(summary.to_dict(), indent=2))
    if summary.errors:
        return 1
    if args.assert_stats:
        engine = (summary.server_stats or {}).get("engine", {})
        missing = [k for k in
                   ("dirty_last", "dirty_max", "dirty_total")
                   if k not in engine]
        if not engine.get("ops", 0):
            print("error: server stats empty", file=sys.stderr)
            return 1
        if missing:
            print(f"error: engine stats miss gauge(s) {missing}",
                  file=sys.stderr)
            return 1
    return 0


def _run_chaos(args: argparse.Namespace) -> int:
    import dataclasses

    from .faults import campaign

    cls = campaign.FleetChaosConfig if args.fleet else campaign.ChaosConfig
    width, height = _parse_mesh(args.mesh)
    # Every campaign knob with a flag has the flag's name.
    knobs = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(cls) if hasattr(args, f.name)
    }
    cfg = cls(**knobs, width=width, height=height)
    report = campaign.run_chaos_campaign(cfg, state_dir=args.state_dir)
    print(json.dumps(report.to_dict(), indent=2))
    print(report.summary(), file=sys.stderr)
    if not report.ok:
        return 1
    floors = [("faults", report.faults_total, "faults fired")]
    if args.fleet:
        floors += [
            ("kills", report.kills, "tenants killed"),
            ("worker-kills", report.worker_kills, "workers SIGKILLed"),
        ]
    for name, got, what in floors:
        floor = getattr(args, f"min_{name.replace('-', '_')}")
        if got < floor:
            print(f"error: only {got} {what} (--min-{name} {floor})",
                  file=sys.stderr)
            return 1
    if not args.fleet and args.min_faults and report.layers_covered < 3:
        print(
            f"error: only {report.layers_covered}/3 fault layers covered",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "example":
            return _run_example()
        if args.command == "table":
            return _run_table(args.name, args.seed, args.sim_time)
        if args.command == "inversion":
            return _run_inversion()
        if args.command == "check":
            return _run_check(args.file, args.out, args.analysis)
        if args.command == "explain":
            return _run_explain(args)
        if args.command == "trace":
            return _run_trace(args)
        if args.command == "fuzz":
            return _run_fuzz(args)
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "gateway":
            return _run_gateway(args)
        if args.command == "load":
            return _run_load(args)
        if args.command == "chaos":
            return _run_chaos(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(  # pragma: no cover - argparse enforces choices
        f"unhandled command {args.command!r}"
    )
