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

This module stores each row as two Python ints used as bitsets,
``alloc_bits`` and ``wait_bits``: bit ``t`` is slot ``t`` and bit 0 is
unused. The diagrams an admission decision builds are small (tens of
rows over a few hundred slots), so filling a row, testing a release and
reading off ``U`` are a handful of bitwise operations each instead of
array calls whose fixed cost dominates at that size. A window is read
from and written into byte slices of a row, never by shifting the
full-width int, so a row fill stays linear in the horizon however many
windows it has (the offline analyses grow horizons to 2^20 slots).
NumPy arrays of the rows (``allocated``, ``waiting``, ``to_grid`` and
the other views rendering and tests read) are derived on demand.

Hand-validated against the paper: the initial diagram of ``HP_4`` in section
4.4 yields exactly 7 free slots within the deadline (Fig. 7), and the final
diagrams reproduce ``U = (7, 8, 26, 20, 33)`` — see ``tests/test_paper_example.py``.
"""

from __future__ import annotations

from collections.abc import Mapping as _MappingABC
from dataclasses import dataclass
from enum import IntEnum
from itertools import count
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import AnalysisError
from ..obs.trace import active as _trace_active
from .streams import MessageStream

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CellState",
    "InstanceAllocation",
    "RowMemo",
    "TimingDiagram",
    "generate_init_diagram",
    "refill_rows",
    "slot_indices",
    "windows",
]


#: The skip set of a row none of whose instances is removed, shared.
_NO_SKIP: FrozenSet[int] = frozenset()


class CellState(IntEnum):
    """Cell states of the timing diagram (paper section 4.2)."""

    FREE = 0
    BUSY = 1
    WAITING = 2
    ALLOCATED = 3


def windows(period: int, dtime: int) -> Iterator[Tuple[int, int, int, int, int]]:
    """Yield ``(index, release, i, j, mask)`` for each period window.

    Window ``index`` holds slots ``release + 1 .. min(release + period,
    dtime)``. In a row's little-endian bytes they lie in ``[i, j)``, and
    ``mask`` selects them in ``int.from_bytes`` of that slice (slot ``t``
    is bit ``t - 8 * i``).
    """
    for index, release in enumerate(range(0, dtime, period)):
        lo = release + 1
        hi = release + period
        if hi > dtime:
            hi = dtime
        yield (index, release, lo >> 3, (hi >> 3) + 1,
               ((1 << (hi - release)) - 1) << (lo & 7))


def slot_indices(bits: int, offset: int = 0) -> List[int]:
    """Ascending positions (plus ``offset``) of the set bits of ``bits``."""
    out = []
    for k, byte in enumerate(bits.to_bytes((bits.bit_length() + 7) >> 3,
                                           "little")):
        while byte:
            low = byte & -byte
            out.append(offset + (k << 3) + low.bit_length() - 1)
            byte ^= low
    return out


@dataclass(frozen=True)
class InstanceAllocation:
    """Slots claimed by one message instance of one stream row.

    ``allocated`` and ``waiting`` are ascending slot indices (1-based);
    ``satisfied`` is ``False`` when the window closed before the instance
    collected its full ``C`` slots (demand overflow — the paper inflates the
    period in that case, see :func:`repro.analysis.experiments.inflate_periods`).
    """

    stream_id: int
    index: int
    release: int
    satisfied: bool
    allocated: Tuple[int, ...]
    waiting: Tuple[int, ...]

    def occupied(self) -> Tuple[int, ...]:
        """Return all slots the instance touches (allocated + waiting)."""
        return tuple(sorted(self.allocated + self.waiting))


class _InstanceView(_MappingABC):
    """Read-only ``stream_id -> [InstanceAllocation]`` view of a diagram.

    The records are derived data — fully determined by the row bits and
    the per-row skip sets — and only tests and rendering read them, while
    ``refill_rows`` rewrites rows on every compaction pass. Building them
    lazily, one stream on first access, keeps the analysis free of
    per-instance Python objects.
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
        #: Bytes of a row: bits 0..dtime (bit 0 unused, slots are 1-based).
        self.nbytes = (self.dtime >> 3) + 1
        self.alloc_bits: List[int] = [0] * n
        self.wait_bits: List[int] = [0] * n
        #: Lazily-built per-stream instance records (see _InstanceView).
        self.instances: Mapping[int, List[InstanceAllocation]] = (
            _InstanceView(self)
        )
        self._records: Dict[int, List[InstanceAllocation]] = {}
        #: Skipped instance indices per row; a row has an entry iff it
        #: has been filled.
        self._row_skip: Dict[int, FrozenSet[int]] = {}
        #: Requests bits *before* slot erasure, for rows that had slots
        #: erased (see refill_rows).
        self._pre_erasure: Dict[int, int] = {}

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

    def busy_bits(self) -> int:
        """Return the result row's busy slots: the union of allocations."""
        busy = 0
        for alloc in self.alloc_bits:
            busy |= alloc
        return busy

    def free_bits(self) -> int:
        """Return the result row's FREE slots (bits ``1..dtime``)."""
        return ((2 << self.dtime) - 2) & ~self.busy_bits()

    def request_bits(self, row: int) -> int:
        """Return the slots the row's stream holds or wants.

        A slot is *requested* when the row is ALLOCATED or WAITING there —
        the condition ``Modify_Diagram`` evaluates on intermediate streams.
        """
        return self.alloc_bits[row] | self.wait_bits[row]

    def _records_for(self, stream_id: int) -> List[InstanceAllocation]:
        """Build (or return cached) instance records for one stream row:
        the row's bits split per period window, skipped windows left out."""
        records = self._records.get(stream_id)
        if records is not None:
            return records
        row = self.row_of(stream_id)
        records = []
        skip = self._row_skip.get(row)
        if skip is not None:
            stream = self.row_streams[row]
            alloc = self.alloc_bits[row].to_bytes(self.nbytes, "little")
            wait = self.wait_bits[row].to_bytes(self.nbytes, "little")
            for index, release, i, j, m in windows(stream.period,
                                                   self.dtime):
                if index in skip:
                    continue
                a = slot_indices(
                    int.from_bytes(alloc[i:j], "little") & m, i << 3)
                w = slot_indices(
                    int.from_bytes(wait[i:j], "little") & m, i << 3)
                records.append(InstanceAllocation(
                    stream_id=stream_id,
                    index=index,
                    release=release,
                    satisfied=len(a) == stream.length,
                    allocated=tuple(a),
                    waiting=tuple(w),
                ))
        self._records[stream_id] = records
        return records

    # ------------------------------------------------------------------ #
    # Result-row queries (Cal_U's final scan)
    # ------------------------------------------------------------------ #

    def num_free_slots(self) -> int:
        """Return the count of FREE result-row slots (Fig. 7 reports 7)."""
        return self.free_bits().bit_count()

    def upper_bound(self, latency: int) -> int:
        """Return ``U``: the slot by which ``latency`` free slots accumulate.

        Returns ``-1`` when fewer than ``latency`` free slots exist within
        the diagram horizon (the paper's failure signal).
        """
        if latency < 1:
            raise AnalysisError(f"latency must be >= 1, got {latency}")
        free = self.free_bits()
        if free.bit_count() < latency:
            return -1
        # The smallest t with `latency` free slots in 1..t.
        lo, hi = latency, self.dtime
        while lo < hi:
            mid = (lo + hi) >> 1
            if (free & ((2 << mid) - 1)).bit_count() >= latency:
                hi = mid
            else:
                lo = mid + 1
        return lo

    # ------------------------------------------------------------------ #
    # NumPy views (rendering / tests)
    # ------------------------------------------------------------------ #

    def _unpack(self, rows: Sequence[int]) -> "np.ndarray":
        """Boolean ``(len(rows), dtime + 1)`` array of bitset rows."""
        import numpy as np

        raw = b"".join(r.to_bytes(self.nbytes, "little") for r in rows)
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                             bitorder="little")
        return bits.reshape(len(rows), self.nbytes << 3)[
            :, : self.dtime + 1].astype(bool)

    @property
    def allocated(self) -> "np.ndarray":
        """ALLOCATED cells, one boolean row per stream row (a copy)."""
        return self._unpack(self.alloc_bits)

    @property
    def waiting(self) -> "np.ndarray":
        """WAITING cells, one boolean row per stream row (a copy)."""
        return self._unpack(self.wait_bits)

    def to_grid(self) -> "np.ndarray":
        """Materialise the dense ``(num_rows + 1, dtime + 1)`` state grid.

        Row ``num_rows`` is the result row; column 0 is unused (slots are
        1-based). Values are :class:`CellState` integers.
        """
        import numpy as np

        n = self.num_rows
        allocated, waiting = self.allocated, self.waiting
        grid = np.zeros((n + 1, self.dtime + 1), dtype=np.int8)
        busy = np.zeros(self.dtime + 1, dtype=bool)
        for row in range(n):
            grid[row, busy] = CellState.BUSY
            grid[row, waiting[row]] = CellState.WAITING
            grid[row, allocated[row]] = CellState.ALLOCATED
            busy |= allocated[row]
        grid[n, busy] = CellState.BUSY
        return grid


class RowMemo:
    """Filled diagram rows shared between diagrams, by generation.

    ``rows`` holds the rows filled or hit since the last :meth:`age`
    (the engine ages after each refresh that ran ``Cal_U``), ``last``
    and ``earlier`` those of the two generations before; a hit there
    moves the row into ``rows``. Between generations the memo thus
    holds two generations' rows. Key ids come from a counter, never
    reused: a key names its parent row by id, and a dropped row's id
    handed out again would graft its stale children onto a new parent.
    """

    __slots__ = ("rows", "last", "earlier", "ids")

    def __init__(self) -> None:
        self.rows: Dict[tuple, list] = {}
        self.last: Dict[tuple, list] = {}
        self.earlier: Dict[tuple, list] = {}
        self.ids = count()

    def age(self) -> None:
        """Start a generation, dropping rows the last two did not use."""
        self.earlier, self.last, self.rows = self.last, self.rows, {}


def generate_init_diagram(
    owner_id: int,
    row_streams: Sequence[MessageStream],
    dtime: int,
    *,
    removed: Optional[Mapping[int, AbstractSet[int]]] = None,
    row_memo: Optional[RowMemo] = None,
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
    row_memo:
        Filled rows shared between diagrams (``None``: a private memo).
        A row is fixed by the rows above it, so it is keyed by that path:
        the parent row's key id plus its period, length and skip set. A
        row stored at a horizon ``>= dtime`` is copied truncated (the
        fill is prefix-stable), a shorter one is refilled and replaced.
        Either way the row joins the memo's current generation.

    Notes
    -----
    Instance ``i`` of a stream with period ``T`` is released at ``i * T`` and
    may claim slots in ``(i*T, min((i+1)*T, dtime)]`` only; it takes the
    first ``C`` free slots of that window, marking skipped busy slots
    WAITING. Slots it allocates become BUSY for every lower row.
    """
    removed = removed or {}
    memo = RowMemo() if row_memo is None else row_memo
    rows, last, earlier, ids = memo.rows, memo.last, memo.earlier, memo.ids
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
        dtime = diagram.dtime
        keep = (2 << dtime) - 1
        alloc_bits, wait_bits = diagram.alloc_bits, diagram.wait_bits
        busy = 0
        path = -1
        for row, stream in enumerate(diagram.row_streams):
            skip = removed.get(stream.stream_id)
            skip = frozenset(skip) if skip else _NO_SKIP
            key = (path, stream.period, stream.length, skip)
            # [key id, horizon, alloc bits, wait bits]
            entry = rows.get(key)
            if entry is None:
                entry = rows[key] = (last.get(key) or earlier.get(key)
                                     or [next(ids), 0, 0, 0])
            if entry[1] >= dtime:
                alloc_bits[row] = entry[2] & keep
                wait_bits[row] = entry[3] & keep
                diagram._row_skip[row] = skip
            else:
                _fill_row(diagram, row, busy, skip)
                entry[1:] = dtime, alloc_bits[row], wait_bits[row]
            path = entry[0]
            busy |= alloc_bits[row]
    finally:
        if tr is not None:
            tr.end("generate_init_diagram", "analysis")
    return diagram


def _fill_row(
    diagram: TimingDiagram,
    row: int,
    busy: int,
    skip: FrozenSet[int],
    erased: Optional[Iterable[int]] = None,
) -> None:
    """(Re)compute one row's allocation against the busy-from-above bits.

    The paper scans each window cell by cell; here a window is a few
    bitwise operations. With ``b`` the window's busy bits and ``f`` its
    free ones, the scan allocates the free slots of rank ``<= C`` and
    waits on the busy slots passed before the ``C``-th free one. So if
    ``f`` has ``C`` bits, the row keeps ``f`` up to the ``C``-th and
    ``b`` below it; otherwise the window is unsatisfied and takes all of
    ``f`` and waits on all of ``b``. The ``C``-th free slot is found a
    stretch at a time: of the ``need`` slots from the lowest free one,
    ``got`` are free; if that is all of them the last is the one, else
    ``need - got`` are still missing past them. A run of free slots
    costs one step however large ``C`` is.
    """
    stream = diagram.row_streams[row]
    length = stream.length
    nbytes = diagram.nbytes
    seen = busy.to_bytes(nbytes, "little")
    alloc_out = bytearray(nbytes)
    wait_out = bytearray(nbytes)
    for index, _, i, j, m in windows(stream.period, diagram.dtime):
        if index in skip:
            continue
        b = int.from_bytes(seen[i:j], "little") & m
        f = b ^ m
        if f.bit_count() >= length:
            g, need = f, length
            while True:
                span = ((g & -g) << need) - 1
                got = (g & span).bit_count()
                if got == need:
                    break
                need -= got
                g &= ~span
            # `span` now ends at the C-th free slot.
            f &= span
            b &= span >> 1
        # Byte i may hold the tail of the previous window (keep it); the
        # bytes after it are this window's alone so far.
        if f:
            alloc_out[i:j] = (f | alloc_out[i]).to_bytes(j - i, "little")
        if b:
            wait_out[i:j] = (b | wait_out[i]).to_bytes(j - i, "little")
    alloc = int.from_bytes(alloc_out, "little")
    wait = int.from_bytes(wait_out, "little")
    diagram._pre_erasure.pop(row, None)
    if erased:
        # Only slots inside the horizon can be erased.
        gone = bytearray(nbytes)
        for t in erased:
            if 1 <= t <= diagram.dtime:
                gone[t >> 3] |= 1 << (t & 7)
        if any(gone):
            # After the removed windows were skipped (never looked at),
            # before the erasure (looked at): see refill_rows.
            diagram._pre_erasure[row] = alloc | wait
            keep = ~int.from_bytes(gone, "little")
            alloc &= keep
            wait &= keep

    diagram.alloc_bits[row] = alloc
    diagram.wait_bits[row] = wait
    # Records are derived from the bits just rewritten — drop the stale
    # ones; _records_for rebuilds on demand.
    diagram._row_skip[row] = skip
    diagram._records.pop(stream.stream_id, None)


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
    untouched — their allocations fully determine the busy bits the
    lower rows see.

    Only the rows the change can reach are refilled. A row is a function
    of the busy-from-above bits at the slots its scan inspected: an
    unsatisfied window inspects every slot it has, a satisfied one stops
    looking once its demand is met, a removed one never looks, and every
    slot looked at ends up ALLOCATED or WAITING. So without erasure the
    inspected slots are the row's requests; an erased slot was still
    looked at (whether it was busy decided where its window got
    satisfied), so a row with erased slots keeps its requests from
    before the erasure. The loop carries ``changed``, the slots where
    busy-from-above differs from the previous fill, down from
    ``start_row``: a row with ``changed & inspected == 0`` keeps its
    bits, and because its allocation lies inside its inspected slots,
    hands ``changed`` on as it is; a row that is hit is refilled and
    replaces ``changed`` by the slots where what the next row sees
    moved. Once nothing differs, every row below is up to date.

    Every row must have been filled before: ``generate_init_diagram``
    fills them all, and only ``Modify_Diagram`` refills.
    """
    if not 0 <= start_row <= diagram.num_rows:
        raise AnalysisError(f"start_row {start_row} out of range")
    erased_slots = erased_slots or {}
    allocated, waiting = diagram.alloc_bits, diagram.wait_bits
    pre_erasure = diagram._pre_erasure
    busy = 0
    for alloc in allocated[:start_row]:
        busy |= alloc
    changed = 0
    for row in range(start_row, diagram.num_rows):
        if row != start_row:
            if not changed:
                break
            inspected = pre_erasure.get(row)
            if inspected is None:
                inspected = allocated[row] | waiting[row]
            if not changed & inspected:
                busy |= allocated[row]
                continue
        # What the next row saw before: (busy xor changed) | old row.
        changed = (busy ^ changed) | allocated[row]
        sid = diagram.row_streams[row].stream_id
        skip = removed.get(sid)
        _fill_row(
            diagram, row, busy,
            frozenset(skip) if skip else _NO_SKIP,
            erased_slots.get(sid),
        )
        busy |= allocated[row]
        changed ^= busy
