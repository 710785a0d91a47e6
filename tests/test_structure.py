"""Structural invariants of the analysis layers and the front end.

Every comparison of a delay bound with the flit-level simulator goes
through :func:`repro.analysis.observe.observe`, and the admitted scope it
compares over (finding F-7) is stated once, in
:func:`repro.analysis.observe.admitted_scope`. A timing-diagram row is
filled by one function, on integer bitsets, and the modules a service
interpreter loads for the diagram and its explanations import NumPy
only inside the functions that build array views; under ``core/`` a
test of the tracer guards only span and instant calls, so tracing never
picks which code runs. Every listener — the broker's, its scrape
port, the gateway and the fleet worker — is a
:class:`repro.service.server.Connection` answered in its reader: no
stream reader, request queue or second server-side protocol class or
HTTP parser (the one other protocol is the gateway's client link to a
worker), and no task: every server runs on the one selectors loop, and
asyncio is imported only by the adapters that serve from an asyncio
caller's loop. A fleet worker
is a fork of its supervisor, never a fresh interpreter, and its branch
of the fork can only leave through ``os._exit``. A dead fleet tenant has one recovery path, the restart's
journal replay: no warm standby, journal poller or hand-off is served,
and the journal-tailing module is a test oracle nothing under
``src/repro`` imports. A worker serves whole tenants: no proxy, cached
bounds, private ``worker_*`` op or gateway thread pool stands between a
tenant and its host. The wire is stated in
``service/protocol.py`` and spoken by ``service/client.py``; a chaos
campaign is written once, in ``faults/campaign.py``; an op's rid outcome
is built once and interpreted by ``service/host.py``. Every function,
class and method under ``src/repro`` is named by something a deployed
surface runs (``src/repro`` itself, ``benchmarks/``, ``examples/``), bar a
short list kept for the tests with a reason each, and the package has a
line count that only moves down, each drop recorded in its ceiling.
Bound rules are declared once, by a ``BoundBackend``: no function takes
one as a parameter. The ``REPRO_*`` knob count is bounded and retired knobs
stay gone. Every ``repro_broker_*`` / ``repro_engine_*`` Prometheus family
is named by the one renderer of ``stats`` answers in
``service/metrics.py``. The blocked-by relation and its closures are
built once, by ``core/hpset.py``'s ``BlockingIndex``: the engine keeps
no copy of its own, and the section 4.1 oracle under
``tests/reference/`` never touches the index. These checks read the
source tree, so a second copy fails here rather than drifting.
"""

import ast
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: The F-7 admission predicate ``0 < U <= min(T, D)`` and the closure
#: walk over HP members.
SCOPE_PATTERNS = (
    re.compile(r"<=\s*min\([^)]*\.period,\s*[^)]*\.deadline\)"),
    re.compile(r"for \w+ in hp_ids"),
)


#: What builds or reads the blocking index of ``core/hpset.py``.
INDEX_NAMES = frozenset({
    "BlockingIndex", "index_hp_sets", "build_all_hp_sets",
    "hp_set_from_reach",
})


#: Lines of ``src/repro/fleet``: the count, ratcheted (a smaller count
#: fails until this is lowered to it).
FLEET_LINE_CEILING = 1900

#: Lines of ``src/repro``: the count, ratcheted like the fleet's.
SRC_LINE_CEILING = 19511

#: The bound rules a :class:`repro.core.backends.BoundBackend` declares,
#: plus the retired names that once carried them past the declaration.
RULE_NAMES = frozenset({
    "residency_margin", "interference_margin", "use_modify",
    "modify_fixpoint", "modify_granularity", "eqp_instance_cap",
    "apply_modify", "analyzer_kwargs",
})

#: Definitions under ``src/repro`` that nothing deployed names, each kept
#: for one reason. Everything else that only tests reached is deleted or
#: lives under ``tests/reference/`` (EXPERIMENTS.md has the measurement).
KEPT_FOR_TESTS = {
    "set_routing": "re-routes a live simulation: the simulator's half of "
                   "a link-fault history (ROADMAP aim 3)",
    "push_flit": "the rescan oracle (tests/reference/sim.py) moves flits "
                 "with it",
    "pop_flit": "the rescan oracle moves flits with it",
    "head_ready": "the rescan oracle reads a VC's head flit with it",
    "free_vc_indices": "the rescan oracle allocates VCs with it",
    "no_load_latency": "the contention-free delay the simulator tests "
                       "compare measured delays against",
}

#: Called by the transport that drives a connection — the selectors
#: loop's (``service/loop.py``) — never by name.
PROTOCOL_CALLBACKS = frozenset({
    "connection_made", "data_received", "eof_received", "connection_lost",
    "pause_writing", "resume_writing",
})

#: Distinct ``REPRO_*`` names: a new knob raises this on purpose or not
#: at all.
KNOB_CEILING = 8

#: Retired knobs, without their ``REPRO_`` prefix so that this file does
#: not name them.
RETIRED_KNOBS = (
    "SIM_FASTPATH", "INCREMENTAL", "KERNEL", "SERVICE_TIMING",
    "ANALYSIS_PROCS", "ANALYSIS_THRESHOLD", "PERF_REPEATS", "TRACE_BUFFER",
    "WORKER_SPAWN_TIMEOUT", "WORKER_RPC_TIMEOUT",
)


def _modules_matching(pattern):
    return sorted(
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if pattern.search(path.read_text())
    )


def _occurrences(pattern):
    return sum(len(pattern.findall(path.read_text()))
               for path in SRC.rglob("*.py"))


def _lines_matching(pattern, *packages):
    """The module of every source line of ``src/repro`` (or of its
    ``packages``) that ``pattern`` matches, once per line."""
    roots = [SRC / package for package in packages] or [SRC]
    return [
        path.relative_to(SRC).as_posix()
        for root in roots
        for path in sorted(root.rglob("*.py"))
        for line in path.read_text().splitlines()
        if pattern.search(line)
    ]


def _tree_files(names, suffixes=None):
    """Files under the repo-root entries ``names`` (files or directories),
    optionally only those with one of ``suffixes``."""
    for name in names:
        path = ROOT / name
        paths = [path] if path.is_file() else (
            sorted(path.rglob("*")) if path.is_dir() else [])
        for found in paths:
            if (found.is_file() and "__pycache__" not in found.parts
                    and (suffixes is None or found.suffix in suffixes)):
                yield found


def test_only_observe_simulates_against_bounds():
    # The arbitration comparison simulates without bounds.
    assert _modules_matching(re.compile(r"\.simulate_streams\(")) == [
        "analysis/observe.py",
        "baselines/nonpreemptive.py",
    ]


def test_admitted_scope_is_stated_once():
    for pattern in SCOPE_PATTERNS:
        assert _modules_matching(pattern) == ["analysis/observe.py"], (
            pattern.pattern
        )


def test_one_blocking_index():
    # The index in core/hpset.py is the only code that builds the
    # blocked-by relation or a reach closure.
    scan = re.compile(r"def direct_blockers\(|def build_hp_set\(|\.isdisjoint\(")
    assert _modules_matching(scan) == []
    stored = set()
    for node in ast.walk(ast.parse((SRC / "service" / "engine.py").read_text())):
        if isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
            while isinstance(node, ast.Subscript):
                node = node.value
            if isinstance(node, ast.Attribute):
                stored.add(node.attr)
    assert stored & {"_channel_users", "_blockers", "_rev", "_reach"} == set()
    # The oracle derives HP sets without it: no name of the index, and
    # no analyzer built by a constructor that fills one.
    for path in sorted((ROOT / "tests" / "reference").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Call):
                names = {getattr(node.func, "id", None),
                         getattr(node.func, "attr", None)}
                assert not names & {"FeasibilityAnalyzer", "analyzer"}, (
                    f"{path.name}:{node.lineno}")
                continue
            else:
                names = {getattr(node, "id", None),
                         getattr(node, "attr", None)}
            assert not names & INDEX_NAMES, f"{path.name}:{node.lineno}"


def test_second_campaign_runner_is_gone():
    assert not (SRC / "analysis" / "validation.py").exists()


def test_one_row_fill_on_bitsets():
    assert not (SRC / "core" / "kernel.py").exists()
    fills = re.compile(r"^def (_?fill_row|fill_masks\w*)\(", re.M)
    found = sorted(
        (path.relative_to(SRC).as_posix(), name)
        for path in (SRC / "core").rglob("*.py")
        for name in fills.findall(path.read_text())
    )
    assert found == [("core/timing_diagram.py", "_fill_row")]


def test_diagram_modules_import_numpy_lazily():
    module_scope = re.compile(r"^(import numpy|from numpy)", re.M)
    for module in ("core/timing_diagram.py", "core/modify.py",
                   "obs/provenance.py"):
        assert not module_scope.search((SRC / module).read_text()), module


#: What a tracer guard under ``core/`` may do: record, never compute.
TRACER_RECORDS = frozenset({"begin", "end", "instant", "counter"})


def _tracer_guards(tree):
    """``(handles, if)`` for every ``if`` whose test reads the tracer
    handle: a ``_trace_active()`` call or a name bound to one."""
    def is_active(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_trace_active")

    handles = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and is_active(node.value)
        for target in node.targets if isinstance(target, ast.Name)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and any(
                is_active(n) or isinstance(n, ast.Name) and n.id in handles
                for n in ast.walk(node.test)):
            yield handles, node


def test_tracing_chooses_no_path():
    """The analysis runs the same code traced or not: an ``if`` on the
    tracer under ``core/`` holds only ``tr.begin/end/instant/counter``
    calls — no early return, no second algorithm."""
    offenders = []
    for path in sorted((SRC / "core").rglob("*.py")):
        for handles, guard in _tracer_guards(ast.parse(path.read_text())):
            for stmt in guard.body + guard.orelse:
                call = stmt.value if isinstance(stmt, ast.Expr) else None
                if not (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr in TRACER_RECORDS
                        and isinstance(call.func.value, ast.Name)
                        and call.func.value.id in handles):
                    offenders.append(
                        f"{path.relative_to(SRC).as_posix()}:{stmt.lineno}"
                    )
    assert offenders == []


def test_one_front_end():
    front_end = re.compile(
        r"asyncio\.(start_server|start_unix_server|Queue|Protocol)\b"
        r"|StreamReader"
    )
    assert _modules_matching(front_end) == []
    # One connection class (the protocol callbacks are defined once, and
    # once more by the gateway's link to a worker, a client), one HTTP
    # head parser.
    assert _modules_matching(re.compile(r"def data_received\b")) == [
        "fleet/workers.py", "service/server.py"]
    assert _occurrences(re.compile(r"def data_received\b")) == 2
    assert _occurrences(re.compile(r"def _?parse_head\b")) == 1
    for module in ("cli.py", "service/server.py"):
        assert not re.search(r"batch[-_]max", (SRC / module).read_text())


def test_no_task_and_asyncio_only_in_the_adapters():
    """One event loop: an answer that comes later is a callback, so no
    task is started anywhere, and asyncio is imported only inside the
    body of the adapter that serves from an asyncio caller's loop."""
    assert _modules_matching(re.compile(r"create_task|ensure_future")) == []
    imports = re.compile(r"^\s*(import asyncio|from asyncio\b)", re.M)
    assert _modules_matching(imports) == ["service/server.py"]
    tree = ast.parse((SRC / "service" / "server.py").read_text())
    importers = [
        node.name for node in ast.walk(tree)
        if isinstance(node, ast.AsyncFunctionDef)
        and any(isinstance(inner, ast.Import)
                and [a.name for a in inner.names] == ["asyncio"]
                for inner in ast.walk(node))
    ]
    assert importers == ["serve_forever"]
    assert _occurrences(imports) == 1


def test_workers_are_forked_and_their_branch_ends_in_exit():
    fork = re.compile(r"\bos\.fork\(")
    assert _modules_matching(fork) == ["fleet/workers.py"]
    assert _occurrences(fork) == 1
    source = (SRC / "fleet" / "workers.py").read_text()
    for word in ("subprocess", "sys.executable", "argparse", "__main__"):
        assert word not in source, word
    [child] = [node for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.If)
               and ast.unparse(node.test) == "pid == 0"]
    # Whatever the child runs, it never returns into the parent's stack.
    last = child.body[-1]
    assert isinstance(last, ast.Try) and last.finalbody
    assert ast.unparse(last.finalbody[-1]).startswith("os._exit(")


def test_one_recovery_path():
    served = re.compile(
        r"StandbyPool|worker_detach|poll_interval|_poll_standbys"
        r"|\.detach\(|def detach\("
    )
    assert _modules_matching(served) == []
    imports = re.compile(
        r"^\s*(from\s+[\w.]*replication\s+import|import\s+[\w.]*replication)",
        re.M,
    )
    assert _modules_matching(imports) == []
    _assert_line_count(SRC / "fleet", FLEET_LINE_CEILING,
                       "FLEET_LINE_CEILING")


def test_one_way_to_reach_a_worker():
    """A worker is spoken to on links only — no second client under
    ``fleet`` beside the gateway's own HTTP client, which subclasses the
    broker's and talks to the gateway — and is served by the one
    serve-drain-close, with no loop of its own."""
    named = _lines_matching(re.compile(r"\bBrokerClient\b"), "fleet")
    assert set(named) == {"fleet/client.py"}
    assert _modules_matching(re.compile(r"\bWorkerDied\b")) == []
    tree = ast.parse((SRC / "fleet" / "workers.py").read_text())
    [server] = [node for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef)
                and node.name == "_WorkerServer"]
    assert [ast.unparse(base) for base in server.bases] == ["LoopServer"]
    assert "SelectorLoop" not in ast.unparse(server)


def test_a_worker_serves_whole_tenants():
    bridge = re.compile(
        r"WorkerShard|shard_clients|_shard_bounds|_probe_stable"
        r"""|(["']op["']\s*:|==|startswith\()\s*["']worker_"""
    )
    assert _modules_matching(bridge) == []
    gateway = (SRC / "fleet" / "gateway.py").read_text()
    assert "ThreadPoolExecutor" not in gateway


def _assert_line_count(root, ceiling, constant):
    """``root`` has exactly ``ceiling`` lines: more is over the ceiling,
    fewer means the ceiling has to come down to the new count."""
    lines = sum(len(path.read_text().splitlines())
                for path in root.rglob("*.py"))
    where = root.relative_to(ROOT).as_posix()
    assert lines <= ceiling, f"{where} has {lines} lines, over its ceiling"
    assert lines == ceiling, (
        f"{where} shrank to {lines} lines: lower {constant} to {lines}"
    )


def test_src_line_ceiling():
    _assert_line_count(SRC, SRC_LINE_CEILING, "SRC_LINE_CEILING")


def test_no_bound_rule_is_a_parameter():
    """An analysis is selected by its declaration alone: no function
    under ``src/repro`` takes a bound rule (or a bag of them) as a
    parameter."""
    found = [
        f"{path.relative_to(SRC).as_posix()}:{node.lineno} "
        f"{node.name}({arg.arg})"
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in (node.args.posonlyargs + node.args.args
                    + node.args.kwonlyargs
                    + [a for a in (node.args.vararg, node.args.kwarg) if a])
        if arg.arg in RULE_NAMES
    ]
    assert found == []


def _uses(path, *, reexports):
    """``(name, line)`` for every name ``path`` uses: identifiers,
    attributes, imported names and identifier-like strings (``getattr``
    dispatch). ``__all__`` does not count, nor, when ``reexports`` is
    false, a package ``__init__``'s imports."""
    tree = ast.parse(path.read_text())
    exported = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets)
        for inner in ast.walk(node)
    }
    for node in ast.walk(tree):
        if id(node) in exported:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom) and (
                reexports or path.name != "__init__.py"):
            for alias in node.names:
                yield alias.name, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, node.lineno


def test_every_definition_is_named_by_a_deployed_surface():
    uses = defaultdict(list)
    for path in SRC.rglob("*.py"):
        for name, line in _uses(path, reexports=False):
            uses[name].append((path, line))
    for path in _tree_files(("benchmarks", "examples"), {".py"}):
        for name, line in _uses(path, reexports=True):
            uses[name].append((path, line))
    unnamed = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if (name.startswith("__") and name.endswith("__")
                    or name.startswith("_op_") or name in PROTOCOL_CALLBACKS):
                continue
            start = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            if not any(used != path or not start <= line <= node.end_lineno
                       for used, line in uses[name]):
                unnamed.add(name)
    assert sorted(unnamed) == sorted(KEPT_FOR_TESTS)


def test_knob_count_and_retired_knobs():
    knob = re.compile(r"REPRO_[A-Z_]+[A-Z]")
    names = {
        match
        for path in _tree_files(
            ("src", "tests", "benchmarks", "examples", ".github"),
            {".py", ".yml"})
        for match in knob.findall(path.read_text(errors="replace"))
    }
    assert len(names) <= KNOB_CEILING, sorted(names)
    retired = re.compile("REPRO_(" + "|".join(RETIRED_KNOBS) + ")")
    back = [
        path.relative_to(ROOT).as_posix()
        for path in _tree_files(
            ("src", "tests", "examples", "docs", "README.md", "DESIGN.md",
             ".claude", ".github"))
        if retired.search(path.read_text(errors="replace"))
    ]
    assert back == [], "a retired knob is back"


def test_the_wire_has_one_home():
    assert _modules_matching(re.compile(r"_CODE_TO_ERROR|http\.client")) == []
    assert len(_modules_matching(re.compile(r"def request_with_retry"))) == 1
    op_list = re.compile(r'"(admit|release)", *"(release|query)"')
    for module in ("fleet/gateway.py", "fleet/shards.py", "fleet/workers.py"):
        assert not op_list.search((SRC / module).read_text()), (
            f"an op list is restated in {module}"
        )
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.fleet.gateway, repro.fleet.workers; "
         "sys.exit('http.client' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)), timeout=120,
    )
    assert loaded.returncode == 0, "the fleet imports http.client"


def test_one_chaos_driver():
    assert len(_modules_matching(
        re.compile(r"def generate_\w*schedule"))) == 1
    assert len(_modules_matching(re.compile(r"range\(_MAX_ATTEMPTS\)"))) == 1
    cli = (SRC / "cli.py").read_text()
    assert len(re.findall(r"def _run_.*chaos", cli)) == 1
    # The journal tailer's record parse is the one allowed match:
    # snapshot.json is read by service/persistence.py alone.
    replication = (SRC / "fleet" / "replication.py").read_text()
    assert replication.count("json.loads") == 1


def test_an_op_is_declared_once():
    outcome = re.compile(r'"admitted": True|\{"released"')
    assert [m for m in _modules_matching(outcome)
            if m != "service/protocol.py"] == [], (
        "a rid outcome is built outside service/protocol.py"
    )
    assert _modules_matching(
        re.compile(r"def _link_outcome|def _merge_link_outcomes")) == []
    assert len([m for m in _lines_matching(re.compile(r"coerce_rid\("))
                if m != "service/protocol.py"]) <= 1
    assert len(_lines_matching(re.compile(r"FaultAwareRouting\("),
                               "service", "fleet")) <= 1
    assert _lines_matching(re.compile(r"down; fail over"), "faults") == [], (
        "the converge loop matches a message instead of code down"
    )


def test_one_prometheus_renderer():
    """A ``repro_broker_*`` or ``repro_engine_*`` family is named only by
    ``service/metrics.py``, whose one renderer turns ``stats`` answers
    into series (a broker's unlabelled, a fleet tenant's under
    ``tenant``): a family named anywhere else is a second table."""
    prefixes = ("repro_broker_", "repro_engine_")
    naming = sorted({
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.startswith(prefixes)
    })
    assert naming == ["service/metrics.py"], naming
    assert _modules_matching(re.compile(
        r"def sync_registry|def export_journal|MetricsRegistry\(\)"
    )) == ["service/metrics.py"]
