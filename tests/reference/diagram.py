"""Literal (slow) reference implementation of the paper's pseudocode.

``generate_init_diagram_reference`` transcribes ``Generate_Init_Diagram``
cell by cell, exactly as printed in section 4.3: scan each instance's
window slot by slot, allocate free slots until the demand is met, mark
skipped busy slots WAITING, propagate BUSY downwards. It is O(rows x
dtime) Python and exists purely as a test oracle for the production
implementation (`repro.core.timing_diagram`), which replaces the scan
with a few bitwise operations per window.

The equivalence test (`tests/test_reference_equivalence.py`) drives both
over hypothesis-generated stream sets and requires bit-identical cell
states.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.bdg import indirect_processing_order
from repro.core.hpset import HPSet
from repro.core.streams import MessageStream, StreamSet
from repro.core.timing_diagram import CellState

__all__ = ["generate_init_diagram_reference", "modify_diagram_reference"]


def generate_init_diagram_reference(
    row_streams: Sequence[MessageStream],
    dtime: int,
    removed: Optional[Mapping[int, Set[int]]] = None,
) -> np.ndarray:
    """Return the dense state grid (rows + result row, 1-based slots).

    Mirrors ``TimingDiagram.to_grid()``'s layout: shape
    ``(len(rows) + 1, dtime + 1)``, column 0 unused (FREE).
    """
    removed = removed or {}
    n = len(row_streams)
    grid = np.full((n + 1, dtime + 1), int(CellState.FREE), dtype=np.int8)

    for mi, stream in enumerate(row_streams):
        period, length = stream.period, stream.length
        skip = removed.get(stream.stream_id, set())
        index = 0
        release = 0
        while release < dtime:
            if index not in skip:
                alloctime = 0
                # FOR l = 1 TO T: scan the instance's own window.
                for l in range(1, period + 1):
                    t = release + l
                    if t > dtime:
                        break
                    if grid[mi][t] == CellState.FREE:
                        alloctime += 1
                        grid[mi][t] = CellState.ALLOCATED
                        # Rows below (and the result row) become BUSY.
                        for r in range(mi + 1, n + 1):
                            grid[r][t] = CellState.BUSY
                    elif grid[mi][t] == CellState.BUSY:
                        grid[mi][t] = CellState.WAITING
                    if alloctime == length:
                        break
            release += period
            index += 1
    return grid


def _grid_upper_bound(grid: np.ndarray, latency: int, dtime: int) -> int:
    """Cal_U's final scan on a reference grid."""
    free = 0
    for t in range(1, dtime + 1):
        if grid[-1][t] == CellState.FREE:
            free += 1
            if free == latency:
                return t
    return -1


def modify_diagram_reference(
    owner: MessageStream,
    hp: HPSet,
    streams: StreamSet,
    blockers,
    dtime: int,
) -> Tuple[np.ndarray, Dict[int, Set[int]]]:
    """Literal Modify_Diagram: per-slot release checks on reference grids.

    Walks indirect elements in the production code's BFS order, but
    evaluates everything on grids produced by
    :func:`generate_init_diagram_reference`; an instance is released when
    every slot it occupies (ALLOCATED or WAITING on its row) has every
    intermediate row FREE or BUSY, after which the grid is regenerated
    from scratch.
    """
    rows = tuple(sorted(
        (streams[e.stream_id] for e in hp
         if e.stream_id != owner.stream_id),
        key=lambda s: (-s.priority, s.stream_id),
    ))
    row_of = {s.stream_id: i for i, s in enumerate(rows)}
    removed: Dict[int, Set[int]] = {}
    grid = generate_init_diagram_reference(rows, dtime, removed)

    def occupied_slots(grid, sid, index):
        stream = streams[sid]
        mi = row_of[sid]
        lo = index * stream.period + 1
        hi = min((index + 1) * stream.period, dtime)
        return [
            t for t in range(lo, hi + 1)
            if grid[mi][t] in (CellState.ALLOCATED, CellState.WAITING)
        ]

    order = indirect_processing_order(hp, blockers, streams)
    for k in order:
        entry = hp[k]
        inter_rows = [row_of[r] for r in sorted(entry.intermediates)]
        stream_k = streams[k]
        n_inst = (dtime + stream_k.period - 1) // stream_k.period
        changed = False
        for index in range(n_inst):
            if index in removed.get(k, set()):
                continue
            slots = occupied_slots(grid, k, index)
            if not slots:
                continue
            releasable = all(
                grid[r][t] in (CellState.FREE, CellState.BUSY)
                for t in slots
                for r in inter_rows
            )
            if releasable:
                removed.setdefault(k, set()).add(index)
                changed = True
        if changed:
            grid = generate_init_diagram_reference(rows, dtime, removed)
    return grid, removed
