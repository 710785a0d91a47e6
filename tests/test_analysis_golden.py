"""Every analysis declaration's bounds, pinned exactly.

``tests/golden/analysis_bounds.json`` holds ``all_upper_bounds()`` for
each registered backend at residency margins 0 and 1 and for the offline
variants (no ``Modify_Diagram``, fixpoint sweep alone, slot granularity),
over seeded ``PaperWorkload`` sets under X-Y and up*/down* routing. The
file was written by the keyword-argument analyzer that the declarations
replaced (see tests/golden/README.md), so this test pins that a variant
built as ``dataclasses.replace`` of a registered declaration computes
the same bounds. Routing and backends are named explicitly, so neither
``REPRO_ROUTING`` nor ``REPRO_ANALYSIS_BACKEND`` changes what is checked.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.core import backends
from repro.core.feasibility import FeasibilityAnalyzer
from repro.sim import PaperWorkload
from repro.topology import Mesh2D, UpDownRouting, XYRouting

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "analysis_bounds.json")
    .read_text()
)
MESH = Mesh2D(*GOLDEN["mesh"])
ROUTINGS = {"xy": XYRouting(MESH), "updown": UpDownRouting(MESH)}


def _declaration(variant):
    spec = GOLDEN["variants"][variant]
    return dataclasses.replace(backends.get(spec["backend"]), **spec["rules"])


def _streams(workload):
    return PaperWorkload(**{
        k: tuple(v) if isinstance(v, list) else v
        for k, v in workload.items()
    }).generate(MESH)


def test_golden_covers_every_registered_backend_at_both_margins():
    pinned = {
        (spec["backend"], spec["rules"].get("residency_margin", 0))
        for spec in GOLDEN["variants"].values()
    }
    for name in ("kim98", "tighter", "buffered"):
        assert {(name, 0), (name, 1)} <= pinned


@pytest.mark.parametrize("routing", sorted(ROUTINGS))
def test_bounds_match_golden(routing):
    checked = 0
    for case in GOLDEN["cases"]:
        if case["routing"] != routing:
            continue
        backend = _declaration(case["variant"])
        analyzer = FeasibilityAnalyzer(
            _streams(case["workload"]), ROUTINGS[routing], backend=backend
        )
        bounds = analyzer.all_upper_bounds(max_horizon=GOLDEN["max_horizon"])
        assert {str(k): v for k, v in sorted(bounds.items())} == \
            case["bounds"], (routing, case["workload"], case["variant"])
        checked += 1
    assert checked == len(GOLDEN["variants"]) * 3
