"""Structural invariants of the analysis layers and the front end.

Every comparison of a delay bound with the flit-level simulator goes
through :func:`repro.analysis.observe.observe`, and the admitted scope it
compares over (finding F-7) is stated once, in
:func:`repro.analysis.observe.admitted_scope`. A timing-diagram row is
filled by one function, on integer bitsets, and the modules a service
interpreter loads for the diagram and its explanations import NumPy
only inside the functions that build array views. Every listener is a
:class:`repro.service.server.Connection` answered in its reader: no
stream reader, request queue or second protocol class or HTTP parser,
and a task only where an answer has to be awaited (the fleet worker's
blocking ``select`` loop serves one client and is not an asyncio
server: it measured faster than a ``LineConnection`` listener, see
EXPERIMENTS.md). A fleet worker is a fork of its supervisor, never a
fresh interpreter, and its branch of the fork can only leave through
``os._exit``. These checks read the source tree, so a second copy fails
here rather than drifting.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The F-7 admission predicate ``0 < U <= min(T, D)`` and the closure
#: walk over HP members.
SCOPE_PATTERNS = (
    re.compile(r"<=\s*min\([^)]*\.period,\s*[^)]*\.deadline\)"),
    re.compile(r"for \w+ in hp_ids"),
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
                   "core/report.py", "obs/provenance.py"):
        assert not module_scope.search((SRC / module).read_text()), module


def test_one_front_end():
    front_end = re.compile(
        r"asyncio\.(start_server|start_unix_server|Queue)\b|StreamReader"
    )
    assert _modules_matching(front_end) == []
    assert _occurrences(re.compile(r"\(asyncio\.Protocol\)")) == 1
    assert _occurrences(re.compile(r"def _?parse_head\b")) == 1
    for module in ("cli.py", "service/server.py"):
        assert not re.search(r"batch[-_]max", (SRC / module).read_text())


def test_a_task_only_where_an_answer_is_awaited():
    server = (SRC / "service" / "server.py").read_text()
    assert re.findall(r"create_task|ensure_future", server) == [
        "create_task"
    ]
    assert re.search(
        r"if not isinstance\(answer, bytes\):\n.*create_task\("
        r"self\._awaited\(answer\)\)",
        server,
    )


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
