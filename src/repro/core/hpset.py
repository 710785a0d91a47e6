"""HP-set construction: which streams can delay a given stream, and how.

In a preemptive, prioritised wormhole network a message is delayed only by
messages of equal or higher priority that use part of its path (**direct
blocking**), or by higher-priority messages that delay such messages in turn
(**indirect blocking**, through a *blocking chain* of intermediate streams).
Section 4.1 of the paper builds, for every stream ``M_j``, the set ``HP_j``
of affecting streams, each entry marked ``DIRECT`` or ``INDIRECT``; indirect
entries carry the set of intermediate streams (the ``IN`` field) appearing on
any blocking chain.

Rules implemented here (validated against the paper's Fig. 3 and the worked
example of section 4.4 — see DESIGN.md):

* ``M_k`` is a **direct** element of ``HP_j`` iff ``k != j``,
  ``P_k >= P_j`` (equal-priority streams are "mutually influential", Fig. 3)
  and the routes of ``M_k`` and ``M_j`` share at least one directed channel.
* ``M_k`` is an **indirect** element of ``HP_j`` iff it is not direct and
  there is a chain ``M_j -> r_1 -> ... -> M_k`` in the direct-blocking
  relation (each step: the left stream is directly blocked by the right
  one). The ``IN`` set of the entry contains every stream that lies on the
  interior of *any* such chain.
* The paper's ``HP_j`` also lists ``M_j`` itself, removed again on entry
  to ``Cal_U``; the sets built here never contain the owner.

One structure derives every HP set: :class:`BlockingIndex`, which the
admission engine keeps by delta and :func:`index_hp_sets` fills for a
whole set, for :func:`build_all_hp_sets` and every offline analyzer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ..errors import AnalysisError
from ..obs.trace import active as _trace_active, span as _span
from ..topology.base import Channel
from ..topology.routing import RoutingAlgorithm
from .streams import StreamSet

__all__ = [
    "BlockingMode",
    "HPEntry",
    "HPSet",
    "BlockingIndex",
    "stream_channels",
    "build_all_hp_sets",
    "hp_set_from_reach",
    "index_hp_sets",
]


class BlockingMode(Enum):
    """How an HP-set element affects the analysed stream."""

    DIRECT = "DIRECT"
    INDIRECT = "INDIRECT"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# Enum member lookups cost more than globals, and every verdict the
# engine recomputes builds an HP set of entries.
_DIRECT, _INDIRECT = BlockingMode.DIRECT, BlockingMode.INDIRECT


@dataclass(frozen=True, slots=True)
class HPEntry:
    """One element of an HP set: the paper's ``(M_id, Mode, IN)`` structure."""

    stream_id: int
    mode: BlockingMode
    intermediates: FrozenSet[int] = frozenset()

    def __post_init__(self) -> None:
        if self.mode is _DIRECT and self.intermediates:
            raise AnalysisError(
                f"direct HP entry for stream {self.stream_id} must not carry "
                f"intermediates {set(self.intermediates)}"
            )
        if self.mode is _INDIRECT and not self.intermediates:
            raise AnalysisError(
                f"indirect HP entry for stream {self.stream_id} needs at "
                "least one intermediate stream"
            )

    @property
    def is_direct(self) -> bool:
        return self.mode is _DIRECT

    @property
    def is_indirect(self) -> bool:
        return self.mode is _INDIRECT

    @classmethod
    def direct(cls, stream_id: int) -> "HPEntry":
        """Build a DIRECT entry."""
        return cls(stream_id, _DIRECT)

    @classmethod
    def indirect(cls, stream_id: int, intermediates: Iterable[int]) -> "HPEntry":
        """Build an INDIRECT entry with the given intermediate streams."""
        return cls(stream_id, _INDIRECT, frozenset(intermediates))


class HPSet:
    """The HP set of one analysed stream: id-keyed, deterministic order."""

    def __init__(self, owner_id: int, entries: Iterable[HPEntry] = ()):
        self.owner_id = owner_id
        self._entries: Dict[int, HPEntry] = {}
        self._ordered: Optional[Tuple[HPEntry, ...]] = None
        self._indirect: Optional[Tuple[int, ...]] = None
        for e in entries:
            self.add(e)

    def add(self, entry: HPEntry) -> None:
        if entry.stream_id in self._entries:
            raise AnalysisError(
                f"HP set of stream {self.owner_id} already contains "
                f"stream {entry.stream_id}"
            )
        self._entries[entry.stream_id] = entry
        self._ordered = self._indirect = None

    def __contains__(self, stream_id: object) -> bool:
        return stream_id in self._entries

    def __getitem__(self, stream_id: int) -> HPEntry:
        try:
            return self._entries[stream_id]
        except KeyError:
            raise AnalysisError(
                f"HP set of stream {self.owner_id} has no entry for "
                f"stream {stream_id}"
            ) from None

    def __iter__(self):
        # The analysis iterates each HP set many times per Cal_U with no
        # mutation in between — cache the sorted view until the next add.
        if self._ordered is None:
            self._ordered = tuple(
                sorted(self._entries.values(), key=lambda e: e.stream_id)
            )
        return iter(self._ordered)

    def __len__(self) -> int:
        return len(self._entries)

    def ids(self) -> Tuple[int, ...]:
        """Return member stream ids, ascending."""
        return tuple(sorted(self._entries))

    def direct_ids(self) -> Tuple[int, ...]:
        """Return the ids of DIRECT elements, ascending."""
        return tuple(e.stream_id for e in self if e.is_direct)

    def indirect_ids(self) -> Tuple[int, ...]:
        """Return the ids of INDIRECT elements, ascending (cached until
        the next add: every ``Cal_U`` asks several times)."""
        if self._indirect is None:
            self._indirect = tuple(e.stream_id for e in self
                                   if e.is_indirect)
        return self._indirect

    def without_self(self) -> "HPSet":
        """Return a copy with the owner's own entry removed (``Cal_U`` line 1)."""
        return HPSet(
            self.owner_id,
            (e for e in self if e.stream_id != self.owner_id),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HPSet):
            return NotImplemented
        return (
            self.owner_id == other.owner_id
            and self._entries == other._entries
        )


# ---------------------------------------------------------------------- #
# Construction
# ---------------------------------------------------------------------- #


def stream_channels(
    streams: StreamSet, routing: RoutingAlgorithm
) -> Dict[int, FrozenSet[Channel]]:
    """Return, per stream id, the set of directed channels its route uses."""
    return {
        s.stream_id: frozenset(routing.route_channels(s.src, s.dst))
        for s in streams
    }


class BlockingIndex:
    """The blocked-by relation of a stream set and its closures, kept by
    delta: the one derivation of every ``HP_j``.

    Per indexed stream it holds the channel set and priority, the direct
    blockers (``blockers[j]``, ascending) and their reverse (``rev[k]``:
    the ids ``k`` directly blocks), and ``reach[j]``, the transitive
    closure of the blocked-by relation from ``j`` (``j`` excluded) —
    exactly the member ids of ``HP_j``. A channel -> users map finds the
    streams a new route overlaps by link lookup, not an O(n) scan.

    **Reach-set maintenance.** On :meth:`add` of ``k`` every new edge is
    incident to ``k``, so ``reach(k) = union over direct blockers x of
    ({x} | reach(x))`` is already closed, and every affected ``j``
    (reverse-reachable of ``k``) gains exactly ``{k} | reach(k)``. After
    a :meth:`remove` the closures of the ids that reached the removed
    one are recomputed by :meth:`recompute_reach`, which expands dirty
    nodes edge-by-edge but absorbs every clean neighbour's (unchanged,
    already closed) reach set wholesale — a clean stream can never reach
    a dirty one, or it would reach a removed id. Reach sets are replaced,
    never mutated in place, so an undo log can keep the old objects.

    The admission engine drives one by delta; :meth:`of` fills one for a
    whole set in two passes — link every stream, then close every reach
    set with the same walk, every id dirty — because replaying the adds
    with their reach deltas costs cubic time on dense sets.
    """

    def __init__(self, *, timing_sink=None) -> None:
        #: Any object with a mutable ``hp_seconds`` (the engine's
        #: ``EngineStats``): :meth:`add` adds its reach update's time.
        self.timing_sink = timing_sink
        self.channels: Dict[int, FrozenSet[Channel]] = {}
        self.users: Dict[Channel, FrozenSet[int]] = {}
        self.priority: Dict[int, int] = {}
        self.blockers: Dict[int, Tuple[int, ...]] = {}
        self.rev: Dict[int, Set[int]] = {}
        self.reach: Dict[int, Set[int]] = {}

    @classmethod
    def of(
        cls,
        streams: StreamSet,
        channels: Mapping[int, FrozenSet[Channel]],
    ) -> "BlockingIndex":
        """Index a whole stream set whose routes are ``channels``."""
        index = cls()
        for s in streams:
            index._link(s.stream_id, s.priority, channels[s.stream_id])
        index.recompute_reach(set(index.blockers))
        return index

    def _link(
        self, k: int, priority: int, chans: FrozenSet[Channel]
    ) -> Tuple[int, ...]:
        """Add ``k``'s blocked-by edges (no closure); return its direct
        blockers."""
        self.channels[k] = chans
        self.priority[k] = priority
        users = self.users
        overlap: Set[int] = set()
        for c in chans:
            old = users.get(c, frozenset())
            overlap |= old
            users[c] = old | {k}
        blockers, rev = self.blockers, self.rev
        bk: List[int] = []
        rev[k] = set()
        for j in overlap:
            pj = self.priority[j]
            if pj >= priority:
                bk.append(j)
                rev[j].add(k)
            if priority >= pj:
                blockers[j] = tuple(sorted(blockers[j] + (k,)))
                rev[k].add(j)
        blockers[k] = direct = tuple(sorted(bk))
        return direct

    def add(
        self,
        k: int,
        priority: int,
        chans: FrozenSet[Channel],
        *,
        undo_reach: Optional[Dict[int, Set[int]]] = None,
    ) -> Set[int]:
        """Index stream ``k`` and update every closure it changes.

        Returns the reverse-reachable set of ``k`` on the updated graph
        (the ids whose closures changed, ``k`` included); the union of
        these sets over a batch is the batch's dirty set, because every
        new edge is incident to some added stream.

        When ``undo_reach`` is given, every other stream's reach entry
        this add replaces is recorded there once, so :meth:`restore` can
        put a rejected trial's closures back without an O(n) snapshot.
        """
        bk = self._link(k, priority, chans)
        affected = self.reverse_reachable((k,))
        t0 = time.perf_counter()
        reach = self.reach
        # All new edges touch k, so the closure over k's direct
        # blockers' (old, still-valid) closures is itself closed.
        rk: Set[int] = set()
        for x in bk:
            rk.add(x)
            rk.update(reach.get(x, ()))
        rk.discard(k)
        reach[k] = rk
        gain = rk | {k}
        for j in affected:
            if j == k:
                continue
            if undo_reach is not None and j not in undo_reach:
                undo_reach[j] = reach[j]
            new = reach[j] | gain
            new.discard(j)
            reach[j] = new
        if self.timing_sink is not None:
            self.timing_sink.hp_seconds += time.perf_counter() - t0
        return affected

    def remove(self, sid: int) -> None:
        """Unindex one stream. The closures that reached it are stale
        until :meth:`recompute_reach` (or :meth:`restore`) runs."""
        users = self.users
        for c in self.channels.pop(sid):
            rest = users[c] - {sid}
            if rest:
                users[c] = rest
            else:
                del users[c]
        del self.priority[sid]
        blockers, rev = self.blockers, self.rev
        for j in rev.pop(sid):
            blockers[j] = tuple(x for x in blockers[j] if x != sid)
        for v in blockers.pop(sid):
            rev[v].discard(sid)
        del self.reach[sid]

    def restore(self, undo_reach: Mapping[int, Set[int]]) -> None:
        """Put back the closures :meth:`add` logged in ``undo_reach`` for
        every id still indexed (the trial's own ids are removed first)."""
        for j, old in undo_reach.items():
            if j in self.reach:
                self.reach[j] = old

    def reverse_reachable(self, seeds: Iterable[int]) -> Set[int]:
        """Ids that can reach any seed via blocked-by edges (seeds incl.)."""
        seen: Set[int] = set()
        frontier = [s for s in seeds if s in self.blockers]
        while frontier:
            v = frontier.pop()
            if v in seen:
                continue
            seen.add(v)
            frontier.extend(self.rev.get(v, ()))
        return seen

    def recompute_reach(self, dirty: AbstractSet[int]) -> None:
        """Recompute the closures of the dirty ids.

        A clean (non-dirty) stream cannot reach a dirty one — it would
        reach a removed id through it — so its closure is unchanged and
        already transitively closed. The walk therefore only expands
        dirty nodes edge-by-edge and absorbs each clean neighbour's
        closure wholesale.
        """
        reach = self.reach
        blockers = self.blockers
        for j in dirty:
            out: Set[int] = set()
            seen: Set[int] = {j}
            stack = list(blockers.get(j, ()))
            while stack:
                x = stack.pop()
                if x in seen:
                    continue
                seen.add(x)
                out.add(x)
                if x in dirty:
                    stack.extend(blockers.get(x, ()))
                else:
                    out.update(reach.get(x, ()))
            out.discard(j)
            reach[j] = out

    def hp_set(self, j: int) -> HPSet:
        """``HP_j`` from the maintained closures, no graph walk."""
        return hp_set_from_reach(j, self.blockers[j], self.reach[j],
                                 self.reach)


def hp_set_from_reach(
    owner_id: int,
    direct: Tuple[int, ...],
    reach: AbstractSet[int],
    reach_map: Mapping[int, AbstractSet[int]],
) -> HPSet:
    """Construct ``HP_j`` from ``direct`` (``blockers[j]``, ascending)
    and the closed reach sets (owner excluded) of ``j`` and of every
    stream in ``reach_map``, without any graph walk:

    * the DIRECT elements are exactly ``blockers[j]``;
    * the INDIRECT elements are ``reach[j]`` minus the direct ones
      (``j`` itself never appears: the closure excludes the owner);
    * the intermediates of an indirect ``k`` are the members ``r`` of
      ``reach[j]`` with ``k in reach[r]`` — reachable from ``j`` and
      reaching ``k``, i.e. the interior of some blocking chain. One pass
      over the members hands each ``r`` to every indirect element in
      ``reach[r]`` (``r`` itself never is: closures exclude their
      owner). Every indirect element has at least one (the direct
      blocker its chain passes through), so the :class:`HPEntry`
      invariant holds by construction.

    The pair-by-pair derivation of the same sets, one traversal per
    stream, is the test oracle in ``tests/reference/hpset.py``.
    """
    hp = HPSet(owner_id)
    for k in direct:
        hp.add(HPEntry.direct(k))
    indirect = reach.difference(direct)
    ins: Dict[int, List[int]] = {k: [] for k in indirect}
    for r in reach:
        for k in indirect.intersection(reach_map[r]):
            ins[k].append(r)
    for k in sorted(indirect):
        hp.add(HPEntry.indirect(k, ins[k]))
    return hp


def index_hp_sets(
    streams: StreamSet,
    channels: Mapping[int, FrozenSet[Channel]],
) -> Tuple[BlockingIndex, Dict[int, HPSet]]:
    """Index ``streams`` and build every HP set from the index: one
    ``build_hp_sets`` trace span with an ``hp_set`` instant per stream,
    in set order."""
    # Hoist the active() check out of the per-stream loop so the disabled
    # path pays one call for the whole build, not one per hp_set instant.
    tr = _trace_active()
    with _span("build_hp_sets", "analysis", n=len(streams)):
        index = BlockingIndex.of(streams, channels)
        out = {}
        for s in streams:
            hp = index.hp_set(s.stream_id)
            if tr is not None:
                tr.instant(
                    "hp_set", "analysis", stream=s.stream_id,
                    direct=len(hp.direct_ids()),
                    indirect=len(hp.indirect_ids()),
                )
            out[s.stream_id] = hp
    return index, out


def build_all_hp_sets(
    streams: StreamSet,
    routing: Optional[RoutingAlgorithm] = None,
    *,
    channels: Optional[Mapping[int, FrozenSet[Channel]]] = None,
) -> Dict[int, HPSet]:
    """Construct the HP set of every stream in the set.

    Exactly one of ``routing`` or ``channels`` must be given: either the
    routes are derived from the routing function, or pre-computed channel
    sets are supplied (useful for custom path assignments and for testing).
    """
    if (routing is None) == (channels is None):
        raise AnalysisError("pass exactly one of 'routing' or 'channels'")
    if channels is None:
        assert routing is not None
        channels = stream_channels(streams, routing)
    missing = [s.stream_id for s in streams if s.stream_id not in channels]
    if missing:
        raise AnalysisError(f"no channel set for stream ids {missing}")
    return index_hp_sets(streams, channels)[1]
