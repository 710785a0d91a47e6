"""E-F7/F8/F9 — paper section 4.4 worked example (Figs. 7, 8 and 9).

Fig. 7: the initial (direct-only) timing diagram of HP_4 — exactly 7 free
slots within the deadline, fewer than M4's latency of 10.
Fig. 8: HP_4's blocking dependency graph.
Fig. 9: the final diagram after Modify_Diagram — M0's 2nd/3rd and M1's 4th
instances removed, M3's first instance compacted, U_4 = 33.
The full example yields U = (7, 8, 26, 20, 33).
"""

from dataclasses import replace

import pytest

from benchmarks.common import write_output
from repro.core.backends import KIM98
from repro.core.bdg import build_bdg
from repro.core.feasibility import FeasibilityAnalyzer
from repro.core.hpset import HPEntry, HPSet
from repro.core.render import render_bdg, render_diagram, render_hp_set
from repro.core.streams import MessageStream, StreamSet
from repro.topology import Mesh2D, XYRouting

PAPER_EXAMPLE = [
    ((7, 3), (7, 7), 5, 15, 4, 15, 7),
    ((1, 1), (5, 4), 4, 10, 2, 10, 8),
    ((2, 1), (7, 5), 3, 40, 4, 40, 12),
    ((4, 1), (8, 5), 2, 45, 9, 45, 16),
    ((6, 1), (9, 3), 1, 50, 6, 50, 10),
]
PAPER_U = {0: 7, 1: 8, 2: 26, 3: 20, 4: 33}


@pytest.fixture()
def example():
    mesh = Mesh2D(10, 10)
    routing = XYRouting(mesh)
    streams = StreamSet()
    for i, (s, r, p, t, c, d, latency) in enumerate(PAPER_EXAMPLE):
        streams.add(MessageStream(
            i, mesh.node_xy(*s), mesh.node_xy(*r), priority=p, period=t,
            length=c, deadline=d, latency=latency,
        ))
    override = {
        3: HPSet(3, [HPEntry.direct(1)]),
        4: HPSet(4, [HPEntry.indirect(0, [2]), HPEntry.indirect(1, [2, 3]),
                     HPEntry.direct(2), HPEntry.direct(3)]),
    }
    return mesh, routing, streams, override


def test_fig7_fig9_worked_example(benchmark, example):
    mesh, routing, streams, override = example

    def full_example():
        an = FeasibilityAnalyzer(streams, routing, hp_override=override)
        report = an.determine_feasibility()
        init, _ = FeasibilityAnalyzer(
            streams, routing, hp_override=override,
            backend=replace(KIM98, use_modify=False),
        ).diagram_for(4)
        final, removed = an.diagram_for(4)
        return an, report, init, final, removed

    an, report, init, final, removed = benchmark.pedantic(
        full_example, rounds=1, iterations=1
    )

    parts = ["section 4.4 worked example (paper HP sets)"]
    for sid, hp in sorted(an.hp_sets.items()):
        parts.append(render_hp_set(hp))
    parts.append(
        f"\nFig. 7 — initial timing diagram of HP_4 "
        f"({init.num_free_slots()} free slots < L_4 = 10):"
    )
    parts.append(render_diagram(init))
    g = build_bdg(an.hp_sets[4], an.blockers)
    parts.append("\nFig. 8 — " + render_bdg(g, 4))
    parts.append(
        "\nFig. 9 — final diagram after Modify_Diagram (removed: "
        + ", ".join(f"M{k} inst {sorted(v)}" for k, v in sorted(removed.items()))
        + "):"
    )
    parts.append(render_diagram(final, upper_bound=final.upper_bound(10)))
    parts.append(
        f"\nU = {report.upper_bounds()}  (paper: {PAPER_U}) -> "
        f"{'success' if report.success else 'fail'}"
    )
    write_output("fig7_fig9_example", "\n".join(parts))

    assert init.num_free_slots() == 7
    assert report.upper_bounds() == PAPER_U
    assert report.success
    assert removed == {0: {1, 2}, 1: {3}}
