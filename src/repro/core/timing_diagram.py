"""Worst-case timing diagrams (the paper's ``Generate_Init_Diagram``).

The delay upper bound of a stream ``M_j`` is computed on a two-dimensional
*timing diagram*: one row per HP-set element (sorted by non-increasing
priority), one column per time slot ``1 .. dtime``, plus a final *result*
row. Cells take the paper's four states:

``FREE``
    nobody above uses the slot;
``BUSY``
    a higher-priority row allocated the slot (propagated downward);
``WAITING``
    the row's stream wanted the slot but it was busy (preempted state);
``ALLOCATED``
    the row's stream transmits during the slot.

All streams are released simultaneously at time 0 (the critical instant) and
every instance ``i`` of a stream with period ``T`` may only use slots inside
its own window ``(i*T, (i+1)*T]``; within the window it claims the first
``C`` free slots, marking busy slots it had to skip as WAITING until its
demand is met. Slots allocated by a row render every lower row (including
the result row) BUSY. ``U_j`` is then the earliest time by which the FREE
slots of the result row accumulate to the network latency ``L_j``
(``Cal_U``'s final scan).

This module stores rows as NumPy boolean masks (one ``allocated`` and one
``waiting`` mask per row) rather than a dense state grid: the construction
then costs a few vector operations per message instance instead of one
Python iteration per cell, which matters because the evaluation recomputes
diagrams for tens of streams over horizons of 10^4..10^5 slots. A dense
``int8`` grid (for rendering the paper's figures and for tests) is
materialised on demand by :meth:`TimingDiagram.to_grid`.

Hand-validated against the paper: the initial diagram of ``HP_4`` in section
4.4 yields exactly 7 free slots within the deadline (Fig. 7), and the final
diagrams reproduce ``U = (7, 8, 26, 20, 33)`` — see ``tests/test_paper_example.py``.
"""

from __future__ import annotations

from collections.abc import Mapping as _MappingABC
from dataclasses import dataclass, field
from enum import IntEnum
from typing import (
    AbstractSet,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..errors import AnalysisError
from ..obs.trace import active as _trace_active
from .kernel import fill_masks, window_arrays
from .streams import MessageStream

__all__ = [
    "CellState",
    "InstanceAllocation",
    "TimingDiagram",
    "generate_init_diagram",
    "refill_rows",
]


class CellState(IntEnum):
    """Cell states of the timing diagram (paper section 4.2)."""

    FREE = 0
    BUSY = 1
    WAITING = 2
    ALLOCATED = 3


class InstanceAllocation:
    """Slots claimed by one message instance of one stream row.

    ``allocated`` and ``waiting`` are ascending slot indices (1-based);
    ``satisfied`` is ``False`` when the window closed before the instance
    collected its full ``C`` slots (demand overflow — the paper inflates the
    period in that case, see :func:`repro.analysis.experiments.inflate_periods`).

    Slot indices are held as NumPy arrays (``alloc_arr`` / ``wait_arr``) so
    the hot release-check of ``Modify_Diagram`` can test thousands of
    instances without materialising Python integers; the tuple views exist
    for tests, rendering and user code.
    """

    __slots__ = ("stream_id", "index", "release", "satisfied",
                 "alloc_arr", "wait_arr")

    def __init__(self, stream_id: int, index: int, release: int,
                 satisfied: bool, alloc_arr: np.ndarray,
                 wait_arr: np.ndarray):
        self.stream_id = stream_id
        self.index = index
        self.release = release
        self.satisfied = satisfied
        self.alloc_arr = alloc_arr
        self.wait_arr = wait_arr

    @property
    def allocated(self) -> Tuple[int, ...]:
        """Ascending allocated slot indices, as a tuple."""
        return tuple(int(t) for t in self.alloc_arr)

    @property
    def waiting(self) -> Tuple[int, ...]:
        """Ascending waiting slot indices, as a tuple."""
        return tuple(int(t) for t in self.wait_arr)

    def occupied(self) -> Tuple[int, ...]:
        """Return all slots the instance touches (allocated + waiting)."""
        return tuple(
            int(t) for t in np.sort(
                np.concatenate([self.alloc_arr, self.wait_arr])
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InstanceAllocation(stream={self.stream_id}, i={self.index}, "
            f"release={self.release}, allocated={self.allocated}, "
            f"satisfied={self.satisfied})"
        )


class _InstanceView(_MappingABC):
    """Read-only ``stream_id -> [InstanceAllocation]`` view of a diagram.

    The records are derived data — fully determined by the row masks and
    the per-row skip sets — and only ``Modify_Diagram``'s release check
    (plus tests and rendering) ever reads them, while ``refill_rows``
    rewrites masks on every compaction pass. Building them lazily, one
    stream on first access, makes the common re-fill (no indirect
    elements, nobody asks) free of per-instance Python objects.
    """

    __slots__ = ("_diagram",)

    def __init__(self, diagram: "TimingDiagram"):
        self._diagram = diagram

    def __getitem__(self, stream_id: int) -> List["InstanceAllocation"]:
        return self._diagram._records_for(stream_id)

    def __iter__(self) -> Iterator[int]:
        return iter(s.stream_id for s in self._diagram.row_streams)

    def __len__(self) -> int:
        return len(self._diagram.row_streams)


class TimingDiagram:
    """A populated timing diagram for one analysed stream.

    Rows appear in non-increasing priority order; the implicit result row is
    the complement of the union of all allocations. Construction goes
    through :func:`generate_init_diagram`.
    """

    def __init__(
        self,
        owner_id: int,
        row_streams: Sequence[MessageStream],
        dtime: int,
    ):
        if dtime < 1:
            raise AnalysisError(f"dtime must be >= 1, got {dtime}")
        self.owner_id = owner_id
        self.row_streams: Tuple[MessageStream, ...] = tuple(row_streams)
        self.dtime = int(dtime)
        self._row_index: Dict[int, int] = {
            s.stream_id: i for i, s in enumerate(self.row_streams)
        }
        if len(self._row_index) != len(self.row_streams):
            raise AnalysisError("duplicate stream ids among diagram rows")
        n = len(self.row_streams)
        # Index 0 of each mask is unused: slots are 1-based as in the paper.
        self.allocated = np.zeros((n, dtime + 1), dtype=bool)
        self.waiting = np.zeros((n, dtime + 1), dtype=bool)
        #: Lazily-built per-stream instance records (see _InstanceView).
        self.instances: Mapping[int, List[InstanceAllocation]] = (
            _InstanceView(self)
        )
        self._records: Dict[int, List[InstanceAllocation]] = {}
        self._requests: Dict[int, np.ndarray] = {}
        #: Skipped instance indices per row; a row has an entry iff it
        #: has been filled.
        self._row_skip: Dict[int, Tuple[int, ...]] = {}
        #: Requests mask *before* slot erasure, for rows that had slots
        #: erased (see inspected_slots).
        self._pre_erasure: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # Row access
    # ------------------------------------------------------------------ #

    @property
    def num_rows(self) -> int:
        """Number of stream rows (the result row is implicit)."""
        return len(self.row_streams)

    def row_of(self, stream_id: int) -> int:
        """Return the row index of ``stream_id``."""
        try:
            return self._row_index[stream_id]
        except KeyError:
            raise AnalysisError(
                f"stream {stream_id} has no row in the diagram of "
                f"stream {self.owner_id}"
            ) from None

    def result_busy(self) -> np.ndarray:
        """Return the result row's busy mask (index 0 unused)."""
        if self.num_rows == 0:
            return np.zeros(self.dtime + 1, dtype=bool)
        return self.allocated.any(axis=0)

    def state(self, row: int, slot: int) -> CellState:
        """Return the :class:`CellState` of one cell.

        ``row`` may be ``num_rows`` to address the result row, whose cells
        are only ever FREE or BUSY.
        """
        if not 1 <= slot <= self.dtime:
            raise AnalysisError(
                f"slot {slot} outside diagram range [1, {self.dtime}]"
            )
        if row == self.num_rows:
            return (
                CellState.BUSY if self.result_busy()[slot] else CellState.FREE
            )
        if not 0 <= row < self.num_rows:
            raise AnalysisError(f"row {row} out of range")
        if self.allocated[row, slot]:
            return CellState.ALLOCATED
        if self.waiting[row, slot]:
            return CellState.WAITING
        if self.allocated[:row, slot].any():
            return CellState.BUSY
        return CellState.FREE

    def row_requests(self, row: int) -> np.ndarray:
        """Return the mask of slots the row's stream holds or wants.

        A slot is *requested* when the row is ALLOCATED or WAITING there —
        the condition ``Modify_Diagram`` evaluates on intermediate streams.
        Cached per row (invalidated when the row is re-filled); callers
        must treat the returned mask as read-only.
        """
        mask = self._requests.get(row)
        if mask is None:
            mask = self.allocated[row] | self.waiting[row]
            self._requests[row] = mask
        return mask

    def inspected_slots(self, row: int) -> np.ndarray:
        """Return the mask of slots the row's scan looked at.

        Inside a window the scan reads the busy-from-above mask only
        while demand is still unmet, and every slot it reads ends up
        ALLOCATED or WAITING — so the row's masks are a function of
        busy-from-above at exactly these slots, which is what lets
        :func:`refill_rows` skip rows. Without erasure this *is* the
        requests mask; an erased slot was still looked at (whether it
        was busy decided where its window got satisfied), so rows with
        erased slots keep the mask from before the erasure. Read-only.
        """
        mask = self._pre_erasure.get(row)
        return self.row_requests(row) if mask is None else mask

    def _records_for(self, stream_id: int) -> List[InstanceAllocation]:
        """Build (or return cached) instance records for one stream row.

        Splits the row's allocated/waiting slot indices per period window
        — exactly the records the eager fill used to produce, but only
        for rows somebody actually reads.
        """
        records = self._records.get(stream_id)
        if records is not None:
            return records
        row = self.row_of(stream_id)
        records = []
        if row in self._row_skip:
            stream = self.row_streams[row]
            starts, _ = window_arrays(stream.period, self.dtime)
            skip = self._row_skip.get(row, ())
            skip_set = frozenset(skip)
            alloc_idx = np.flatnonzero(self.allocated[row])
            wait_idx = np.flatnonzero(self.waiting[row])
            a_bounds = np.searchsorted(alloc_idx, starts, side="right")
            w_bounds = np.searchsorted(wait_idx, starts, side="right")
            n = len(starts)
            length = stream.length
            for index in range(n):
                if index in skip_set:
                    continue
                a_lo = a_bounds[index]
                a_hi = a_bounds[index + 1] if index + 1 < n else len(alloc_idx)
                w_lo = w_bounds[index]
                w_hi = w_bounds[index + 1] if index + 1 < n else len(wait_idx)
                a = alloc_idx[a_lo:a_hi]
                w = wait_idx[w_lo:w_hi]
                records.append(
                    InstanceAllocation(
                        stream_id=stream_id,
                        index=index,
                        release=int(starts[index]),
                        satisfied=len(a) == length,
                        alloc_arr=a,
                        wait_arr=w,
                    )
                )
        self._records[stream_id] = records
        return records

    # ------------------------------------------------------------------ #
    # Result-row queries (Cal_U's final scan)
    # ------------------------------------------------------------------ #

    def free_slots(self) -> np.ndarray:
        """Return ascending slot indices that are FREE on the result row."""
        busy = self.result_busy()
        free = np.flatnonzero(~busy[1:]) + 1
        return free

    def num_free_slots(self) -> int:
        """Return the count of FREE result-row slots (Fig. 7 reports 7)."""
        return int(len(self.free_slots()))

    def upper_bound(self, latency: int) -> int:
        """Return ``U``: the slot by which ``latency`` free slots accumulate.

        Returns ``-1`` when fewer than ``latency`` free slots exist within
        the diagram horizon (the paper's failure signal).
        """
        if latency < 1:
            raise AnalysisError(f"latency must be >= 1, got {latency}")
        free = self.free_slots()
        if len(free) < latency:
            return -1
        return int(free[latency - 1])

    def unsatisfied_instances(self) -> Tuple[InstanceAllocation, ...]:
        """Return instances whose demand did not fit inside their window."""
        return tuple(
            inst
            for lst in self.instances.values()
            for inst in lst
            if not inst.satisfied
        )

    # ------------------------------------------------------------------ #
    # Dense grid (rendering / tests)
    # ------------------------------------------------------------------ #

    def to_grid(self) -> np.ndarray:
        """Materialise the dense ``(num_rows + 1, dtime + 1)`` state grid.

        Row ``num_rows`` is the result row; column 0 is unused (slots are
        1-based). Values are :class:`CellState` integers.
        """
        n = self.num_rows
        grid = np.zeros((n + 1, self.dtime + 1), dtype=np.int8)
        busy = np.zeros(self.dtime + 1, dtype=bool)
        for row in range(n):
            grid[row, busy] = CellState.BUSY
            grid[row, self.waiting[row]] = CellState.WAITING
            grid[row, self.allocated[row]] = CellState.ALLOCATED
            busy |= self.allocated[row]
        grid[n, busy] = CellState.BUSY
        grid[:, 0] = CellState.FREE
        return grid

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TimingDiagram(owner={self.owner_id}, rows="
            f"{[s.stream_id for s in self.row_streams]}, dtime={self.dtime})"
        )


def generate_init_diagram(
    owner_id: int,
    row_streams: Sequence[MessageStream],
    dtime: int,
    *,
    removed: Optional[Mapping[int, AbstractSet[int]]] = None,
    erased_slots: Optional[Mapping[int, AbstractSet[int]]] = None,
) -> TimingDiagram:
    """Populate a timing diagram (the paper's ``Generate_Init_Diagram``).

    Parameters
    ----------
    owner_id:
        Stream whose bound is being computed (not itself a row).
    row_streams:
        HP-set member streams **sorted by non-increasing priority** (ties by
        ascending id); each must have a positive period and length.
    dtime:
        Diagram horizon in slots (the paper uses the owner's deadline).
    removed:
        Optional map ``stream_id -> set of instance indices`` to skip —
        ``Modify_Diagram`` re-generates the diagram with the instances whose
        indirect interference was released removed entirely.
    erased_slots:
        Optional map ``stream_id -> set of absolute slots`` erased from the
        stream's demand (slot-granular release): the stream neither
        allocates nor waits there, and the erased demand does not shift.

    Notes
    -----
    Instance ``i`` of a stream with period ``T`` is released at ``i * T`` and
    may claim slots in ``(i*T, min((i+1)*T, dtime)]`` only; it takes the
    first ``C`` free slots of that window, marking skipped busy slots
    WAITING. Slots it allocates become BUSY for every lower row.
    """
    removed = removed or {}
    # Hot path (re-run on every Cal_U / Modify_Diagram pass): guard the
    # span explicitly so the disabled cost is one call and a None test.
    tr = _trace_active()
    if tr is not None:
        tr.begin(
            "generate_init_diagram", "analysis",
            owner=owner_id, rows=len(row_streams), dtime=int(dtime),
        )
    try:
        diagram = TimingDiagram(owner_id, row_streams, dtime)
        for prev, cur in zip(
            diagram.row_streams[:-1], diagram.row_streams[1:]
        ):
            if (prev.priority, -prev.stream_id) < (
                cur.priority, -cur.stream_id
            ):
                raise AnalysisError(
                    "diagram rows must be sorted by non-increasing priority "
                    f"(ties by id): {prev.stream_id} before {cur.stream_id}"
                )
        refill_rows(diagram, removed, erased_slots=erased_slots, start_row=0)
    finally:
        if tr is not None:
            tr.end("generate_init_diagram", "analysis")
    return diagram


def _fill_row(
    diagram: TimingDiagram,
    row: int,
    busy: np.ndarray,
    skip: AbstractSet[int],
    erased: Optional[AbstractSet[int]] = None,
) -> None:
    """(Re)compute one row's allocation against the busy-from-above mask.

    The mask computation lives in :mod:`repro.core.kernel`: instead of
    scanning each period window cell by cell, rank the FREE slots with a
    cumulative sum — within a window, the slots whose free-rank (relative
    to the window start) is in ``[1, C]`` are exactly the first ``C``
    free slots the paper's scan would allocate, and a BUSY slot is
    WAITING exactly when fewer than ``C`` free slots precede it in its
    window (the scan was still unsatisfied when it passed).
    """
    stream = diagram.row_streams[row]
    sid = stream.stream_id
    period, length = stream.period, stream.length
    dtime = diagram.dtime

    alloc, wait, starts = fill_masks(busy, period, length, dtime)
    skip_sorted = tuple(sorted(skip))
    for index in skip_sorted:
        if 0 <= index < len(starts):
            lo = starts[index] + 1
            hi = min(starts[index] + period, dtime)
            alloc[lo : hi + 1] = False
            wait[lo : hi + 1] = False
    diagram._pre_erasure.pop(row, None)
    if erased:
        # Only slots inside the horizon can be erased; the common case
        # (no erasures) never reaches here, and an all-out-of-range set
        # must not pay the fancy-index either.
        idx = [t for t in erased if 1 <= t <= dtime]
        if idx:
            # After the removed windows were blanked (never looked at),
            # before the erasure (looked at): see inspected_slots.
            diagram._pre_erasure[row] = alloc | wait
            alloc[idx] = False
            wait[idx] = False

    diagram.allocated[row] = alloc
    diagram.waiting[row] = wait
    # Records and the requests mask are derived from the masks just
    # rewritten — drop the stale caches; _records_for rebuilds on demand.
    diagram._row_skip[row] = skip_sorted
    diagram._records.pop(sid, None)
    diagram._requests.pop(row, None)


def refill_rows(
    diagram: TimingDiagram,
    removed: Mapping[int, AbstractSet[int]],
    *,
    erased_slots: Optional[Mapping[int, AbstractSet[int]]] = None,
    start_row: int = 0,
) -> None:
    """Bring rows ``start_row..`` of a diagram up to date in place.

    ``removed`` / ``erased_slots`` may differ from what a row was last
    filled with only for the stream at ``start_row`` (``Modify_Diagram``
    releases one stream's demand at a time); rows above it are
    untouched — their allocations fully determine the busy mask the
    lower rows see.

    Only the rows the change can reach are refilled. A row's masks are a
    function of the busy-from-above mask at the slots its scan inspected
    (:meth:`TimingDiagram.inspected_slots`): an unsatisfied window
    inspects every slot it has, a satisfied one stops looking, a removed
    one never looks. So the loop carries ``changed``, the slots where
    busy-from-above differs from the previous fill, down from
    ``start_row``: a row whose inspected slots miss it keeps its masks,
    and because its allocation lies inside its inspected slots, hands
    ``changed`` on as it is; a row that is hit is refilled and replaces
    ``changed`` by the slots where what the next row sees moved. Once
    nothing differs, every row below is up to date.

    Rows are first filled top to bottom, so below a filled row every row
    is filled. A ``start_row`` never filled before has no previous fill
    to differ from: it and every row below are simply filled, which is
    the from-scratch fill of ``generate_init_diagram``.
    """
    if not 0 <= start_row <= diagram.num_rows:
        raise AnalysisError(f"start_row {start_row} out of range")
    erased_slots = erased_slots or {}
    allocated = diagram.allocated
    if start_row == 0:
        busy = np.zeros(diagram.dtime + 1, dtype=bool)
    else:
        busy = allocated[:start_row].any(axis=0)
    changed = (
        np.zeros(diagram.dtime + 1, dtype=bool)
        if start_row in diagram._row_skip else None
    )
    differs = False
    for row in range(start_row, diagram.num_rows):
        if changed is not None:
            if row != start_row:
                if not differs:
                    break
                if not (changed & diagram.inspected_slots(row)).any():
                    np.logical_or(busy, allocated[row], out=busy)
                    continue
            # What the next row saw before: (busy xor changed) | old row.
            np.logical_xor(busy, changed, out=changed)
            np.logical_or(changed, allocated[row], out=changed)
        sid = diagram.row_streams[row].stream_id
        _fill_row(
            diagram, row, busy,
            removed.get(sid, frozenset()),
            erased_slots.get(sid),
        )
        # `busy` is a private accumulator here (fresh zeros or a fresh
        # .any() reduction), so the OR can run in place.
        np.logical_or(busy, allocated[row], out=busy)
        if changed is not None:
            np.logical_xor(changed, busy, out=changed)
            differs = bool(changed.any())
