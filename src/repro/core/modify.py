"""Indirect-interference release (the paper's ``Modify_Diagram``).

An INDIRECT element ``K`` of ``HP_j`` shares no channel with ``M_j``; it
delays ``M_j`` only by delaying *intermediate* streams that do. If, during
some interval, none of ``K``'s intermediates requests the channel time that
``K`` occupies, that occupancy cannot propagate to ``M_j`` and the paper
releases ("frees") it: "A time slot used by an indirect element can be freed
if all of the intermediate message streams do not request that time slot. A
released time slot can be reused by other message streams."

Concretely, a slot is *requested* by an intermediate when the intermediate's
row is ALLOCATED or WAITING there; the release condition is that every
intermediate's row is FREE or BUSY on the slot (the pseudocode's
``all T_d[r][i] == FREE or BUSY``).

The paper's prose is per *slot* ("a time slot used by an indirect element
can be freed...") while its worked example only ever releases whole
instances, leaving the split case ambiguous. Both readings are
implemented, selected by ``granularity``:

``"instance"`` (default)
    an instance is removed only when **all** of its occupied slots
    (allocated and waiting) are releasable. Reproduces the paper's worked
    example exactly (instances 2 and 3 of ``M_0`` and instance 4 of
    ``M_1`` vanish from the Fig. 9 diagram) and errs conservative when
    the per-slot condition would split an instance.
``"slot"``
    the literal prose: each releasable slot is individually erased from
    the indirect element's demand (the instance keeps its remaining
    slots; erased demand does not shift elsewhere). Never looser than
    instance granularity — and **demonstrably unsound**: the soundness
    campaign found simulated delays exceeding slot-granular bounds by
    double-digit slots (EXPERIMENTS.md, finding F-6). An instance whose
    early slots are erased still transmits those flits in reality, just
    later — erasing part of its demand under-counts interference. Keep
    this mode for studying the interpretation, not for guarantees.

After each removal the diagram is re-generated ("Update T_d consistently"),
so lower-priority allocations compact into the released slots (the paper's
"the first instance of M_3 is compacted"). Indirect elements are processed
in BFS order over the blocking dependency graph from the analysed stream,
matching the paper's in-degree-counted BFS walk.

Both release tests read the diagram's row bitsets: the intermediates'
requested slots are the OR of their ALLOCATED and WAITING bits, an
instance goes when its window of the indirect row is occupied and
disjoint from them, and the releasable slots are ``own & ~requested``.
The re-generation after a release is ``refill_rows``, which refills
only the rows the release can reach.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Mapping, Optional, Set, Tuple

from ..errors import AnalysisError
from ..obs.trace import active as _trace_active
from .bdg import indirect_processing_order
from .hpset import HPSet
from .streams import MessageStream, StreamSet
from .timing_diagram import (
    RowMemo,
    TimingDiagram,
    generate_init_diagram,
    refill_rows,
    slot_indices,
    windows,
)

__all__ = ["modify_diagram", "releasable_instances"]


def _requested(diagram: TimingDiagram, indirect_id: int,
               intermediates: AbstractSet[int], occupied: int) -> int:
    """The slots the intermediates request (ALLOCATED or WAITING), ORed
    one intermediate at a time until they cover ``occupied``."""
    if not intermediates:
        raise AnalysisError(
            f"indirect stream {indirect_id} has no intermediates"
        )
    alloc, wait = diagram.alloc_bits, diagram.wait_bits
    requested = 0
    for r in intermediates:
        r = diagram.row_of(r)
        requested |= alloc[r] | wait[r]
        if not occupied & ~requested:
            break
    return requested


def releasable_instances(
    diagram: TimingDiagram,
    indirect_id: int,
    intermediates: AbstractSet[int],
) -> Tuple[int, ...]:
    """Return indices of the indirect stream's instances that can be removed.

    An instance is releasable when every slot it occupies (ALLOCATED or
    WAITING) is requested by **no** intermediate stream. Instance
    indices are period-window indices, so this tests each window of the
    indirect row: it occupies something (``occ``) and nothing it
    occupies is requested (``occ & requested == 0``) — the per-record
    check, without materialising any instance records. Most tests
    release nothing, so the requests are ORed one intermediate at a time
    and the test returns as soon as they cover the row.
    """
    row = diagram.row_of(indirect_id)
    occupied = diagram.request_bits(row)
    requested = _requested(diagram, indirect_id, intermediates, occupied)
    if not occupied & ~requested:
        return ()
    occ_bytes = occupied.to_bytes(diagram.nbytes, "little")
    req_bytes = requested.to_bytes(diagram.nbytes, "little")
    out = []
    for index, _, i, j, m in windows(diagram.row_streams[row].period,
                                     diagram.dtime):
        occ = int.from_bytes(occ_bytes[i:j], "little") & m
        if occ and not occ & int.from_bytes(req_bytes[i:j], "little"):
            out.append(index)
    return tuple(out)


def releasable_slots(
    diagram: TimingDiagram,
    indirect_id: int,
    intermediates: AbstractSet[int],
) -> Tuple[int, ...]:
    """Return the slots of the indirect stream that can be erased.

    Slot-granular variant of :func:`releasable_instances`: a slot the
    indirect stream occupies (ALLOCATED or WAITING) is releasable when no
    intermediate requests it.
    """
    own = diagram.request_bits(diagram.row_of(indirect_id))
    requested = _requested(diagram, indirect_id, intermediates, own)
    return tuple(slot_indices(own & ~requested))


def modify_diagram(
    owner: MessageStream,
    hp: HPSet,
    streams: StreamSet,
    blockers: Mapping[int, Tuple[int, ...]],
    dtime: int,
    *,
    fixpoint: bool = False,
    granularity: str = "instance",
    max_passes: int = 16,
    initial_removed: Optional[Mapping[int, AbstractSet[int]]] = None,
    row_memo: Optional[RowMemo] = None,
) -> Tuple[TimingDiagram, Dict[int, Set[int]]]:
    """Run ``Modify_Diagram``: release indirect interference and re-compact.

    Parameters
    ----------
    owner:
        The analysed stream ``M_j``.
    hp:
        Its HP set (without the self entry).
    streams, blockers:
        The global stream set and direct-blocking relation (for the BDG).
    dtime:
        Diagram horizon.
    fixpoint:
        The paper walks each indirect element once (BFS order); with
        ``fixpoint=True`` the BFS sweep repeats until no further instance is
        released, which can only tighten the bound further (released slots
        may idle an intermediate that previously requested slots). Used by
        the E-AB1 ablation benchmark.
    granularity:
        ``"instance"`` (default, matches the worked example) or ``"slot"``
        (the paper's literal prose) — see the module docstring.
    max_passes:
        Safety cap on fixpoint sweeps.
    initial_removed:
        Instances excluded from the diagram *before* any release decision
        (``stream_id -> instance indices``). Backends that discharge part
        of a member's demand analytically (e.g. the FCFS equal-priority
        instance cap of the ``tighter`` backend) seed the exclusion here;
        the returned map includes these seeds alongside genuine releases.
    row_memo:
        Filled rows the initial diagram may share with other diagrams
        (see :func:`~repro.core.timing_diagram.generate_init_diagram`).

    Returns
    -------
    (diagram, removed):
        The final diagram and the map ``stream_id -> released instance
        indices`` (instance granularity) or ``stream_id -> released
        slots`` (slot granularity).
    """
    if granularity not in ("instance", "slot"):
        raise AnalysisError(
            f"granularity must be 'instance' or 'slot', got {granularity!r}"
        )
    if initial_removed and granularity != "instance":
        raise AnalysisError(
            "initial_removed requires instance granularity (the seeds are "
            "instance indices, not slots)"
        )
    row_streams = tuple(
        sorted(
            (streams[e.stream_id] for e in hp if e.stream_id != owner.stream_id),
            key=lambda s: (-s.priority, s.stream_id),
        )
    )
    removed: Dict[int, Set[int]] = {}
    if initial_removed:
        for sid, idxs in initial_removed.items():
            if idxs:
                removed[sid] = set(idxs)
    # Hot path (once per Cal_U): guard the span explicitly so the
    # disabled cost is one call and a None test.
    tr = _trace_active()
    if tr is not None:
        tr.begin(
            "modify_diagram", "analysis",
            owner=owner.stream_id, dtime=int(dtime), granularity=granularity,
        )
    try:
        diagram = generate_init_diagram(
            owner.stream_id, row_streams, dtime, removed=removed,
            row_memo=row_memo,
        )
        order = indirect_processing_order(hp, blockers, streams)
        if not order:
            return diagram, removed

        passes = max_passes if fixpoint else 1
        for _ in range(passes):
            changed = False
            for k in order:
                entry = hp[k]
                if granularity == "instance":
                    new = set(
                        releasable_instances(diagram, k, entry.intermediates)
                    )
                else:
                    new = set(
                        releasable_slots(diagram, k, entry.intermediates)
                    )
                fresh = new - removed.get(k, set())
                if fresh:
                    removed.setdefault(k, set()).update(fresh)
                    if tr is not None:
                        tr.instant(
                            "modify.release", "analysis",
                            owner=owner.stream_id, stream=k,
                            released=sorted(int(x) for x in fresh),
                            granularity=granularity,
                        )
                    # Releasing demand of k only changes k's row and the
                    # rows below it; the prefix above is untouched.
                    if granularity == "instance":
                        refill_rows(diagram, removed,
                                    start_row=diagram.row_of(k))
                    else:
                        refill_rows(diagram, {}, erased_slots=removed,
                                    start_row=diagram.row_of(k))
                    changed = True
            if not changed:
                break
    finally:
        if tr is not None:
            tr.end("modify_diagram", "analysis")
    return diagram, removed
