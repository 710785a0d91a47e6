"""ASCII rendering of timing diagrams, HP sets and BDGs.

The paper's figures 4, 6, 7 and 9 are timing diagrams and figures 5 and 8
are blocking dependency graphs; with no plotting stack available offline we
render them as monospace text, which is faithful to the original figures
(they are themselves discrete grids). The benchmark harness prints these for
the figure-reproduction experiments (E-F4..E-F9).

Cell legend (matching the paper's)::

    X  ALLOCATED   the row's stream transmits in the slot
    w  WAITING     the row's stream is preempted / blocked in the slot
    #  BUSY        a higher-priority row occupies the slot
    .  FREE        slot available to lower priorities
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Tuple

from .bdg import bfs_layers
from .hpset import HPSet
from .timing_diagram import CellState, TimingDiagram

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["render_diagram", "render_hp_set", "render_bdg", "CELL_CHARS"]

#: Character used for each cell state.
CELL_CHARS: Mapping[int, str] = {
    int(CellState.FREE): ".",
    int(CellState.BUSY): "#",
    int(CellState.WAITING): "w",
    int(CellState.ALLOCATED): "X",
}


def _time_ruler(dtime: int, label_width: int, major: int = 10) -> str:
    """Build a header line marking every ``major``-th slot."""
    cells = []
    for t in range(1, dtime + 1):
        if t % major == 0:
            mark = str(t)
            cells.append(mark[-1])
        elif t % 5 == 0:
            cells.append("+")
        else:
            cells.append("-")
    return " " * label_width + "".join(cells)


def render_diagram(
    diagram: TimingDiagram,
    *,
    upper_bound: Optional[int] = None,
    major: int = 10,
) -> str:
    """Render a timing diagram as monospace text (paper Figs. 7 and 9).

    Parameters
    ----------
    diagram:
        The populated diagram.
    upper_bound:
        When given, a caret marks the slot where the owner's bound falls on
        the result row (the arrow in the paper's Fig. 9).
    major:
        Ruler period.
    """
    grid = diagram.to_grid()
    labels = [f"M{s.stream_id}" for s in diagram.row_streams] + ["result"]
    label_width = max(len(x) for x in labels) + 2
    lines = [
        f"timing diagram for M{diagram.owner_id} "
        f"(dtime={diagram.dtime}, free slots={diagram.num_free_slots()})",
        _time_ruler(diagram.dtime, label_width, major),
    ]
    for row, label in enumerate(labels):
        chars = "".join(
            CELL_CHARS[int(grid[row, t])] for t in range(1, diagram.dtime + 1)
        )
        lines.append(label.ljust(label_width) + chars)
    if upper_bound is not None and upper_bound > 0:
        lines.append(
            " " * label_width
            + " " * (upper_bound - 1)
            + "^"
            + f" U = {upper_bound}"
        )
    lines.append(
        " " * label_width
        + "legend: X=ALLOCATED  w=WAITING  #=BUSY  .=FREE"
    )
    return "\n".join(lines)


def render_hp_set(hp: HPSet) -> str:
    """Render an HP set in the paper's notation (Fig. 3 / section 4.4)."""
    parts = []
    for e in hp:
        if e.is_direct:
            parts.append(f"({e.stream_id}, DIRECT, ∅)")
        else:
            ins = ", ".join(str(i) for i in sorted(e.intermediates))
            parts.append(f"({e.stream_id}, INDIRECT, ({ins}))")
    return f"HP_{hp.owner_id} = {{ " + "; ".join(parts) + " }"


def render_bdg(g: "nx.DiGraph", owner_id: int) -> str:
    """Render a blocking dependency graph as BFS layers + edge list.

    The paper draws the BDG as a chain/tree rooted at the analysed stream
    (Figs. 5 and 8); BFS layers from the owner give the same reading order.
    """
    layers = bfs_layers(g, owner_id)
    lines = [f"blocking dependency graph of M{owner_id}"]
    for depth, layer in enumerate(layers):
        names = "  ".join(f"M{i}" for i in layer)
        lines.append(f"  depth {depth}: {names}")
    lines.append("  blocked-by edges:")
    for u, v in sorted(g.edges()):
        lines.append(f"    M{u} -> M{v}")
    return "\n".join(lines)
