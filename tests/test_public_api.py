"""Public API surface checks: every advertised name exists and resolves."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import repro


class TestPublicSurface:
    def test_root_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.topology",
            "repro.core",
            "repro.sim",
            "repro.baselines",
            "repro.rtchannel",
            "repro.analysis",
        ],
    )
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        assert mod.__all__, module
        for name in mod.__all__:
            assert hasattr(mod, name), f"{module}.{name}"

    def test_version_matches_package_metadata(self):
        assert repro.__version__ == "1.0.0"

    def test_error_hierarchy(self):
        from repro.errors import (
            AnalysisError,
            DeadlockError,
            ReproError,
            RoutingError,
            SimulationError,
            StreamError,
            TopologyError,
        )

        for exc in (TopologyError, RoutingError, StreamError,
                    AnalysisError, SimulationError):
            assert issubclass(exc, ReproError)
        assert issubclass(DeadlockError, SimulationError)

    def test_quickstart_docstring_example_runs(self):
        """The usage example in the package docstring must stay valid."""
        from repro import (
            FeasibilityAnalyzer,
            Mesh2D,
            MessageStream,
            StreamSet,
            XYRouting,
        )

        mesh = Mesh2D(10, 10)
        routing = XYRouting(mesh)
        streams = StreamSet([
            MessageStream(0, mesh.node_xy(7, 3), mesh.node_xy(7, 7),
                          priority=5, period=150, length=4, deadline=150),
            MessageStream(1, mesh.node_xy(1, 1), mesh.node_xy(5, 4),
                          priority=4, period=100, length=2, deadline=100),
        ])
        report = FeasibilityAnalyzer(streams, routing).determine_feasibility()
        assert report.success
        assert report.upper_bounds() == {0: 7, 1: 8}

    def test_no_paper_docstring_drift(self):
        """Module docstrings that quote the paper's reconstructed constants
        must agree with the conftest fixture (guards accidental edits)."""
        from tests.conftest import PAPER_EXAMPLE, PAPER_EXAMPLE_U

        assert PAPER_EXAMPLE[0][2:] == (5, 15, 4, 15, 7)
        assert PAPER_EXAMPLE_U == {0: 7, 1: 8, 2: 26, 3: 20, 4: 33}


API_DOC = Path(__file__).resolve().parents[1] / "docs" / "API.md"


def _documented_names():
    """``(module, name column, purpose column)`` per row of every
    ``## `repro.x``` table in docs/API.md."""
    module = None
    for line in API_DOC.read_text().splitlines():
        heading = re.fullmatch(r"## `(repro(?:\.\w+)*)`", line)
        if heading or line.startswith("## "):
            module = heading[1] if heading else None
        elif module and line.startswith("|") and not line.startswith("|-"):
            cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
            if cells[0] != "name":
                yield module, cells[0], cells[1]


def _member(owner, name):
    """``owner.name``, or ``owner`` itself when ``name`` is an attribute
    its ``__init__`` assigns (an instance attribute), else ``None``."""
    if hasattr(owner, name):
        return getattr(owner, name)
    if isinstance(owner, type) and re.search(
            rf"self\.{name}\b\s*[:=]", inspect.getsource(owner)):
        return owner
    return None


def test_every_documented_name_resolves():
    """Every backticked name in docs/API.md's tables exists in ``repro``
    or the subpackage the table is for (``.name`` on the class named last
    before it); a method named in the purpose column exists on one of
    the row's objects."""
    missing, owner = [], None
    for module_name, names, purpose in _documented_names():
        module = importlib.import_module(module_name)
        found = []
        for item in re.findall(r"`([^`]+)`", names):
            path = re.match(r"\.?[A-Za-z_][\w.]*", item)[0]
            obj = owner if path.startswith(".") else None
            for part in path.lstrip(".").split("."):
                obj = (_member(obj, part) if obj is not None
                       else getattr(module, part, getattr(repro, part, None)))
                if obj is None:
                    missing.append(f"{module_name}: {item}")
                    break
                if isinstance(obj, type):
                    owner = obj
            else:
                found.append(obj)
        for item in re.findall(r"`([^`]+)`", purpose):
            word = re.fullmatch(r"([A-Za-z_]\w*)(\(.*\))?", item)
            if word and not any(_member(obj, word[1]) is not None
                                for obj in found + [module]):
                missing.append(f"{module_name}: {item} (in {names})")
    assert missing == [], missing
