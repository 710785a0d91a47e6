#!/usr/bin/env python
"""The paper's section 4.4 worked example, end to end, with ASCII figures.

Reproduces:

* the five message streams M0..M4 on the 10x10 mesh (constants
  reconstructed from the OCR-damaged text; DESIGN.md documents how);
* the HP sets (with the paper's printed HP_3/HP_4 injected via
  ``hp_override`` — the printed HP_3 omits M2 despite a genuine path
  overlap; we print both variants);
* Fig. 7: the initial timing diagram of HP_4 (7 free slots < L_4 = 10);
* Fig. 8: the blocking dependency graph of HP_4;
* Fig. 9: the final diagram after Modify_Diagram, U_4 = 33;
* the bounds U = (7, 8, 26, 20, 33) and the success verdict.

Run:  python examples/paper_example.py
"""

from dataclasses import replace

from repro import (
    FeasibilityAnalyzer,
    HPEntry,
    HPSet,
    Mesh2D,
    MessageStream,
    StreamSet,
    XYRouting,
    render_bdg,
    render_diagram,
    render_hp_set,
)
from repro.core.backends import KIM98
from repro.core.bdg import build_bdg

#: (src, dst, P, T, C, D, L) — section 4.4, reconstructed constants.
EXAMPLE = [
    ((7, 3), (7, 7), 5, 15, 4, 15, 7),
    ((1, 1), (5, 4), 4, 10, 2, 10, 8),
    ((2, 1), (7, 5), 3, 40, 4, 40, 12),
    ((4, 1), (8, 5), 2, 45, 9, 45, 16),
    ((6, 1), (9, 3), 1, 50, 6, 50, 10),
]


def build_streams(mesh: Mesh2D) -> StreamSet:
    streams = StreamSet()
    for i, (s, r, p, t, c, d, latency) in enumerate(EXAMPLE):
        streams.add(MessageStream(
            i, mesh.node_xy(*s), mesh.node_xy(*r), priority=p, period=t,
            length=c, deadline=d, latency=latency,
        ))
    return streams


def main() -> None:
    mesh = Mesh2D(10, 10)
    routing = XYRouting(mesh)
    streams = build_streams(mesh)

    paper_hp = {
        3: HPSet(3, [HPEntry.direct(1)]),
        4: HPSet(4, [
            HPEntry.indirect(0, [2]),
            HPEntry.indirect(1, [2, 3]),
            HPEntry.direct(2),
            HPEntry.direct(3),
        ]),
    }
    analyzer = FeasibilityAnalyzer(streams, routing, hp_override=paper_hp)

    print("== HP sets (paper's printed values) ==")
    for sid in sorted(analyzer.hp_sets):
        print(render_hp_set(analyzer.hp_sets[sid]))

    direct_only = FeasibilityAnalyzer(
        streams, routing, hp_override=paper_hp,
        backend=replace(KIM98, use_modify=False),
    )
    init, _ = direct_only.diagram_for(4)
    print(f"\n== Fig. 7: initial diagram of HP_4 "
          f"({init.num_free_slots()} free slots, L_4 = 10) ==")
    print(render_diagram(init))

    g = build_bdg(analyzer.hp_sets[4], analyzer.blockers)
    print("\n== Fig. 8 ==")
    print(render_bdg(g, 4))

    final, removed = analyzer.diagram_for(4)
    print("\n== Fig. 9: after Modify_Diagram ==")
    print("released instances:",
          {f"M{k}": sorted(v) for k, v in removed.items()})
    print(render_diagram(final, upper_bound=final.upper_bound(10)))

    report = analyzer.determine_feasibility()
    print(f"\nU = {report.upper_bounds()}  (paper: 7, 8, 26, 20, 33)")
    print("verdict:", "success" if report.success else "fail")

    # The documented inconsistency: with HP sets derived from the printed
    # coordinates (M2 overlaps M3), the bounds for M3/M4 grow — and the
    # larger U_3 is the one the simulation actually requires.
    computed = FeasibilityAnalyzer(streams, routing)
    print("\n== overlap-derived HP sets (no override) ==")
    for sid in sorted(computed.hp_sets):
        print(render_hp_set(computed.hp_sets[sid]))
    print("U =", computed.determine_feasibility().upper_bounds(),
          " (U_3 = 30 is the sound bound; see EXPERIMENTS.md)")


if __name__ == "__main__":
    main()
