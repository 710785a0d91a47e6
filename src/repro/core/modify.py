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

The sweep runs on a :class:`~repro.core.hpset.VerdictPlan`, whose work
list names everything by diagram row; :func:`modify_diagram` and
:func:`releasable_instances` take HP sets and ids to the same core.
"""

from __future__ import annotations

from dataclasses import replace
from typing import (AbstractSet, Dict, List, Mapping, Optional, Sequence,
                    Set, Tuple)

from ..errors import AnalysisError
from ..obs.trace import active as _trace_active
from .backends import KIM98
from .hpset import HPSet, VerdictPlan
from .streams import MessageStream, StreamSet
from .timing_diagram import (
    RowMemo,
    TimingDiagram,
    generate_init_diagram,
    refill_rows,
    slot_indices,
    windows,
)

__all__ = ["modify_diagram", "releasable_instances", "release_sweep"]


def _requested(diagram: TimingDiagram, row: int,
               intermediates: Sequence[int], occupied: int) -> int:
    """The slots the intermediate rows request (ALLOCATED or WAITING),
    ORed one intermediate at a time until they cover ``occupied``."""
    if not intermediates:
        raise AnalysisError(
            f"indirect stream {diagram.row_streams[row].stream_id} has no "
            "intermediates"
        )
    alloc, wait = diagram.alloc_bits, diagram.wait_bits
    requested = 0
    for r in intermediates:
        requested |= alloc[r] | wait[r]
        if not occupied & ~requested:
            break
    return requested


def _free_windows(diagram: TimingDiagram, row: int,
                  intermediates: Sequence[int]) -> List[int]:
    """The window indices of ``row`` that occupy something and nothing
    the intermediate rows request: the per-instance check, on whole
    windows of the row bits, with no instance record made. Most tests
    release nothing, and return once the requests cover the row."""
    occupied = diagram.request_bits(row)
    requested = _requested(diagram, row, intermediates, occupied)
    if not occupied & ~requested:
        return []
    occ_bytes = occupied.to_bytes(diagram.nbytes, "little")
    req_bytes = requested.to_bytes(diagram.nbytes, "little")
    out = []
    for index, _, i, j, m in windows(diagram.row_streams[row].period,
                                     diagram.dtime):
        occ = int.from_bytes(occ_bytes[i:j], "little") & m
        if occ and not occ & int.from_bytes(req_bytes[i:j], "little"):
            out.append(index)
    return out


def _free_slots(diagram: TimingDiagram, row: int,
                intermediates: Sequence[int]) -> List[int]:
    """The slots of ``row`` no intermediate row requests: the
    slot-granular variant of :func:`_free_windows`."""
    own = diagram.request_bits(row)
    return slot_indices(own & ~_requested(diagram, row, intermediates, own))


def releasable_instances(
    diagram: TimingDiagram, indirect_id: int,
    intermediates: AbstractSet[int],
) -> Tuple[int, ...]:
    """Return indices of the indirect stream's instances that can be
    removed: those every slot of which (ALLOCATED or WAITING) **no**
    intermediate stream requests (:func:`_free_windows` over ids)."""
    return tuple(_free_windows(
        diagram, diagram.row_of(indirect_id),
        [diagram.row_of(r) for r in intermediates],
    ))


def releasable_slots(
    diagram: TimingDiagram, indirect_id: int,
    intermediates: AbstractSet[int],
) -> Tuple[int, ...]:
    """Return the slots of the indirect stream no intermediate requests
    (:func:`_free_slots` over stream ids)."""
    return tuple(_free_slots(
        diagram, diagram.row_of(indirect_id),
        [diagram.row_of(r) for r in intermediates],
    ))


def release_sweep(
    plan: VerdictPlan, dtime: int, removed: Dict[int, Set[int]], *,
    max_passes: int = 16, row_memo: Optional[RowMemo] = None,
) -> TimingDiagram:
    """``Modify_Diagram`` over ``plan``: the initial diagram, then the
    release sweep in the plan's BFS order, once or (``modify_fixpoint``)
    until nothing more is released, at the backend's granularity.
    ``removed`` holds the instances excluded before any release
    decision and receives every release (instance indices, or slots at
    slot granularity)."""
    owner_id = plan.owner.stream_id
    granularity = plan.backend.modify_granularity
    instance = granularity == "instance"
    free = _free_windows if instance else _free_slots
    rows = plan.rows
    # Hot path (once per Cal_U): guard the span explicitly so the
    # disabled cost is one call and a None test.
    tr = _trace_active()
    if tr is not None:
        tr.begin(
            "modify_diagram", "analysis",
            owner=owner_id, dtime=int(dtime), granularity=granularity,
        )
    try:
        diagram = generate_init_diagram(owner_id, rows, dtime,
                                        removed=removed, row_memo=row_memo)
        for _ in range(max_passes if plan.backend.modify_fixpoint else 1):
            changed = False
            for row, intermediates in plan.release:
                new = free(diagram, row, intermediates)
                if not new:
                    continue
                k = rows[row].stream_id
                done = removed.get(k)
                fresh = [x for x in new if x not in done] if done else new
                if not fresh:
                    continue
                if done is None:
                    removed[k] = set(fresh)
                else:
                    done.update(fresh)
                if tr is not None:
                    tr.instant(
                        "modify.release", "analysis",
                        owner=owner_id, stream=k,
                        released=sorted(int(x) for x in fresh),
                        granularity=granularity,
                    )
                # Releasing demand of k only changes k's row and the
                # rows below it; the prefix above is untouched.
                if instance:
                    refill_rows(diagram, removed, start_row=row)
                else:
                    refill_rows(diagram, {}, erased_slots=removed,
                                start_row=row)
                changed = True
            if not changed:
                break
    finally:
        if tr is not None:
            tr.end("modify_diagram", "analysis")
    return diagram


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
    """Run ``Modify_Diagram`` for ``owner`` with the HP set ``hp`` over
    the global ``streams`` and direct-blocking relation: release
    indirect interference and re-compact, on ``dtime`` slots.

    The paper walks each indirect element once, in BFS order; with
    ``fixpoint=True`` the sweep repeats (up to ``max_passes``) until
    nothing more is released, which can only tighten the bound (the
    E-AB1 ablation). ``granularity`` is ``"instance"`` or ``"slot"``
    (see the module docstring). ``initial_removed`` excludes instances
    (``stream_id -> instance indices``) before any release decision, as
    the ``tighter`` backend's FCFS cap does; ``row_memo`` shares filled
    rows with other diagrams (see
    :func:`~repro.core.timing_diagram.generate_init_diagram`).

    Returns the final diagram and ``stream_id -> released instance
    indices`` (slots, at slot granularity), the seeds included.
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
    plan = VerdictPlan.of_hp_set(owner, hp, streams, blockers, {}, {},
                                 replace(KIM98, modify_fixpoint=fixpoint,
                                         modify_granularity=granularity))
    removed = {sid: set(idxs) for sid, idxs in (initial_removed or {}).items()
               if idxs}
    diagram = release_sweep(plan, dtime, removed, max_passes=max_passes,
                            row_memo=row_memo)
    return diagram, removed
