"""Incremental admission engine: feasibility with per-stream caches.

The full :class:`~repro.core.feasibility.FeasibilityAnalyzer` rebuilds
routes, the direct-blocking relation, every HP set and every delay bound
from scratch — O(n) ``Cal_U`` runs per request, each over a timing diagram
of the whole HP closure. An online broker doing that for every admit and
release wastes nearly all of it: a request only perturbs the analysis of
streams whose transitive HP closure reaches a changed stream.

This engine maintains, between requests:

* a process-wide **route table** shared across engines on the same
  topology/routing (:func:`~repro.topology.route_table.shared_route_table`)
  — routes are a pure function of ``(src, dst)``, so one memoized lookup
  serves every engine, analyzer rebuild and replay;
* per-stream channel sets and a channel -> users index, so the streams
  that overlap a new route are found by link lookup, not an O(n) scan;
* the direct-blocking relation and its reverse adjacency;
* per-stream **reachability closures** over the blocked-by relation,
  updated by delta on attach/detach, from which HP sets are produced
  without any graph traversal (:func:`~repro.core.hpset.hp_set_from_reach`);
* per-stream HP sets and :class:`~repro.core.feasibility.StreamVerdict`\\ s,
  plus a **verdict memo** keyed by the full analytic input of ``Cal_U``
  (owner stream + HP member streams/modes/intermediates), so churn that
  re-creates a previously seen configuration skips the diagram entirely.

**Invalidation rule (link-overlap / closure reachability).** A verdict for
stream ``j`` depends only on ``j`` itself, ``HP_j``, the parameters of the
HP members, and the direct-blocking relation restricted to that closure
(the BDG of :mod:`repro.core.bdg` filters edges to the closure's nodes).
Every one of those inputs is a function of the blocked-by graph reachable
from ``j``; a change at stream ``k`` can therefore affect ``j`` iff ``k``
is reachable from ``j``. So the *dirty set* of an op is the reverse
reachability of the changed ids:

* admit ``k``: every ``j`` that reaches ``k`` in the **new** graph
  (new edges are all incident to ``k``, so any changed closure contains it);
* release ``k``: every ``j`` that reached ``k`` in the **old** graph.

Everything else keeps its cached verdict, which is bit-identical to what a
fresh analyzer would compute because ``Cal_U`` is a pure function of the
inputs listed above. When the dirty frontier covers the whole set the
engine falls back to a plain full :class:`FeasibilityAnalyzer` run (and
adopts its structures as the new caches). The from-scratch engine that
re-analyses everything on every op is the test oracle
(``tests/reference/engine.py``) the fuzzed equivalence suites hold this
one to, op by op.

**Settle rule (replay applies, reads settle).** The rule above says
*which* verdicts an op invalidates, not *when* they must be recomputed.
The structural mutators :meth:`~IncrementalAdmissionEngine.adopt` and
:meth:`~IncrementalAdmissionEngine.retire` maintain every index and
reach closure eagerly but only *mark* the dirty ids in a stale set;
``_settle()`` recomputes the marked HP sets and verdicts in one go. It
runs whenever someone reads a verdict (``verdict``, ``closure``,
``current_report``) and on entry to ``try_admit`` and ``apply_routing``
(a trial and the eviction fixpoint both decide on fresh verdicts), so
no caller ever observes a stale answer. This is sound because ``Cal_U``
is pure: a verdict depends on the final closure, not on the order or
the moment the ops that shaped it were applied, and marks compose — an
id no op marked since its last computation has an unchanged closure.
The live mutators decide at once (``try_admit`` computes its trial,
``release`` is ``retire`` + ``_settle``); the deferred pair exists for
consumers of the journal — restart recovery and the warm standbys —
whose every record the primary's engine already decided.

**Reach-set maintenance.** ``_reach[j]`` is the transitive closure of the
blocked-by relation from ``j`` (``j`` excluded) — exactly the member ids
of ``HP_j``. On attach of ``k`` every new edge is incident to ``k``, so
``reach(k) = union over direct blockers x of ({x} | reach(x))`` is already
closed, and every affected ``j`` (reverse-reachable of ``k``) gains exactly
``{k} | reach(k)``. On release the dirty streams' closures are recomputed
by a traversal that expands dirty nodes edge-by-edge but absorbs every
clean neighbour's (unchanged, already closed) reach set wholesale — a
clean stream can never reach a dirty one, or it would reach a removed id.

Dirty-set ``Cal_U`` runs that miss the memo are computed in-process, in
sorted-id order: copying a prepared analyzer to another process costs
more than the handful of verdicts a dirty frontier holds (measured in
DESIGN.md section 10).

**Closure-scoped guarantees (finding F-7).** A stream's bound is only a
guarantee while its transitive HP closure is itself admitted (the bound
conditions on those streams' behaviour). Inside the broker the closure is
admitted by construction — HP members come from the admitted set — and
:meth:`IncrementalAdmissionEngine.closure` reports the exact id set each
guarantee is scoped to, so clients can propagate the condition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..core import backends as _backends
from ..core.admission import AdmissionDecision
from ..core.feasibility import (
    FeasibilityAnalyzer,
    FeasibilityReport,
    StreamVerdict,
)
from ..core.hpset import HPSet, hp_set_from_reach
from ..core.latency import LatencyModel, NoLoadLatency
from ..core.streams import MessageStream, StreamSet
from ..errors import AnalysisError, RoutingError, StreamError
from ..topology.base import Channel
from ..topology.route_table import shared_route_table
from ..topology.routing import RoutingAlgorithm

__all__ = ["EngineStats", "IncrementalAdmissionEngine", "RoutingDelta"]

#: Verdict-memo capacity (entries). FIFO eviction: the memo exists for
#: churn (release/re-admit of recurring configurations), where recency is
#: a good-enough proxy and bookkeeping must stay off the hot path.
_MEMO_CAP = 8192


@dataclass
class EngineStats:
    """Cache-effectiveness counters, exposed through the ``stats`` op."""

    ops: int = 0
    admits: int = 0
    rejects: int = 0
    releases: int = 0
    verdicts_recomputed: int = 0
    verdicts_reused: int = 0
    verdict_memo_hits: int = 0
    hp_rebuilt: int = 0
    hp_delta_updates: int = 0
    full_fallbacks: int = 0
    forced_invalidations: int = 0
    #: Routing swaps applied (link failures/restores) and the streams
    #: they evicted (disconnected + deadline-missers after reroute).
    reroutes: int = 0
    reroute_evictions: int = 0
    route_cache_hits: int = 0
    route_cache_misses: int = 0
    #: Dirty-frontier sizes of the ops (last / running max / sum).
    dirty_last: int = 0
    dirty_max: int = 0
    dirty_total: int = 0
    #: Per-phase wall-clock breakdown of the admission hot path. Note
    #: ``verdict_seconds`` covers the whole verdict phase and therefore
    #: *includes* ``diagram_seconds`` (the diagram build inside ``Cal_U``).
    route_seconds: float = 0.0
    hp_seconds: float = 0.0
    diagram_seconds: float = 0.0
    verdict_seconds: float = 0.0

    def note_dirty(self, size: int) -> None:
        """Record one op's dirty-frontier size."""
        self.dirty_last = size
        if size > self.dirty_max:
            self.dirty_max = size
        self.dirty_total += size

    def cache_hit_rate(self) -> float:
        """Fraction of per-op verdicts served from cache."""
        total = self.verdicts_recomputed + self.verdicts_reused
        return self.verdicts_reused / total if total else 0.0

    def to_dict(self) -> Dict[str, float]:
        out = {k: getattr(self, k) for k in (
            "ops", "admits", "rejects", "releases",
            "verdicts_recomputed", "verdicts_reused", "verdict_memo_hits",
            "hp_rebuilt", "hp_delta_updates",
            "full_fallbacks", "forced_invalidations",
            "reroutes", "reroute_evictions",
            "route_cache_hits", "route_cache_misses",
            "dirty_last", "dirty_max", "dirty_total",
        )}
        for k in (
            "route_seconds", "hp_seconds", "diagram_seconds",
            "verdict_seconds",
        ):
            out[k] = round(getattr(self, k), 6)
        out["cache_hit_rate"] = round(self.cache_hit_rate(), 4)
        return out


@dataclass(frozen=True)
class RoutingDelta:
    """What a routing swap (:meth:`~IncrementalAdmissionEngine.
    apply_routing`) did to the admitted set.

    ``evicted_streams`` carries the raw stream objects and their bound
    backends in eviction order, so a caller that must undo the swap (the
    broker's journal-failure rollback) can re-admit them exactly.
    """

    #: Surviving ids whose channel set changed under the new routing.
    rerouted: Tuple[int, ...]
    #: Ids dropped, in eviction order (disconnected first).
    evicted: Tuple[int, ...]
    #: Subset of ``evicted`` the new routing could not route at all.
    disconnected: Tuple[int, ...]
    #: Admitted ids after the swap, ascending.
    survivors: Tuple[int, ...]
    #: ``(raw stream, backend name)`` per evicted id, eviction order.
    evicted_streams: Tuple[Tuple[MessageStream, str], ...]

    def to_spec(self) -> Dict:
        return {
            "rerouted": list(self.rerouted),
            "evicted": list(self.evicted),
            "disconnected": list(self.disconnected),
            "survivors": list(self.survivors),
        }


class IncrementalAdmissionEngine:
    """Admission control with incremental feasibility recomputation.

    Drop-in analogue of :class:`~repro.core.admission.AdmissionController`
    (same ``try_admit`` / ``release`` / ``current_report`` / ``fresh_id``
    surface, same all-or-nothing batch semantics) that keeps its analysis
    warm between requests. Reports are bit-identical to a from-scratch
    :class:`FeasibilityAnalyzer` over the same admitted set.

    Parameters
    ----------
    routing:
        Deterministic routing function of the managed network.
    latency_model:
        No-load latency model (paper default).
    use_modify:
        Whether the analysis applies ``Modify_Diagram``.
    residency_margin:
        Passed through to the analyzer (see finding F-4).
    analysis:
        Name of the default bound backend
        (:mod:`repro.core.backends`) applied to admits that do not name
        one. ``None`` reads the process default, which honours the
        ``REPRO_ANALYSIS_BACKEND`` environment variable. Per-request
        backends ride on :meth:`try_admit`'s ``analysis`` keyword and
        are remembered per stream until release.
    """

    def __init__(
        self,
        routing: RoutingAlgorithm,
        *,
        latency_model: Optional[LatencyModel] = None,
        use_modify: bool = True,
        residency_margin: int = 0,
        analysis: Optional[str] = None,
    ):
        self.routing = routing
        self.latency_model = latency_model or NoLoadLatency()
        self.use_modify = use_modify
        self.residency_margin = residency_margin
        # Resolved eagerly so a typo'd REPRO_ANALYSIS_BACKEND fails at
        # construction, not on the first admit.
        self.default_analysis = _backends.resolve_name(analysis)
        self.stats = EngineStats()

        self._admitted = StreamSet()   # streams as requested (raw latency)
        self._resolved = StreamSet()   # latencies resolved over the route
        self._next_id = 0
        # Caches (all id-keyed, values immutable except _rev's sets; reach
        # sets are replaced, never mutated in place, so rollback can keep
        # references to the old objects).
        self._route_table = shared_route_table(routing)
        self._channels: Dict[int, FrozenSet[Channel]] = {}
        self._channel_users: Dict[Channel, FrozenSet[int]] = {}
        self._blockers: Dict[int, Tuple[int, ...]] = {}
        self._rev: Dict[int, Set[int]] = {}
        self._reach: Dict[int, Set[int]] = {}
        self._hp_sets: Dict[int, HPSet] = {}
        self._verdicts: Dict[int, StreamVerdict] = {}
        self._verdict_memo: Dict[tuple, StreamVerdict] = {}
        #: Per-stream bound-backend name (every admitted id has an entry).
        self._analysis: Dict[int, str] = {}
        #: Ids touched by ``adopt``/``retire`` since the last settle: the
        #: admitted ids whose cached HP set and verdict are out of date.
        self._stale: Set[int] = set()

    # ------------------------------------------------------------------ #
    # Public surface
    # ------------------------------------------------------------------ #

    @property
    def admitted(self) -> StreamSet:
        """The currently admitted stream set (a live view; do not mutate)."""
        return self._admitted

    def fresh_id(self) -> int:
        """Return a never-before-seen stream id (monotonic, no reuse)."""
        while self._next_id in self._admitted:
            self._next_id += 1
        nid = self._next_id
        self._next_id += 1
        return nid

    @property
    def next_id(self) -> int:
        """The fresh-id high-water mark (the next id to be assigned).

        Persist this alongside the admitted set: the no-reuse guarantee of
        :meth:`fresh_id` only survives a restart if the mark is restored
        via :meth:`advance_next_id` before new admissions.
        """
        return self._next_id

    def advance_next_id(self, value: int) -> None:
        """Raise the fresh-id high-water mark (never lowers it)."""
        self._next_id = max(self._next_id, int(value))

    def reset_next_id(self, value: int) -> None:
        """Roll the fresh-id mark back to ``value``.

        Only safe when every id at or above ``value`` was allocated for
        an operation that is being undone and was **never committed or
        acknowledged** (rolled-back journal failures, lost-ack retries of
        rejected batches): reusing an id a client could have observed as
        admitted would break the no-reuse guarantee. The mark never drops
        below ``max(admitted) + 1``.
        """
        floor = max(
            (sid + 1 for sid in self._admitted.ids()), default=0
        )
        self._next_id = max(int(value), floor)

    def invalidate_caches(self) -> None:
        """Drop every derived cache and rebuild from the admitted set.

        The chaos campaign's engine-layer fault (``cache_storm``): after
        an invalidation storm all verdicts, HP sets, reach closures, the
        verdict memo, the shared route table and the indexes are
        recomputed from scratch, and must come back bit-identical — the
        caches are an optimisation, never a source of truth.
        """
        self.stats.forced_invalidations += 1
        self._route_table.clear()
        self._reach.clear()
        self._verdict_memo.clear()
        self._full_rebuild()
        self._stale.clear()

    @property
    def stale(self) -> int:
        """How many streams await a settle (0 between live ops)."""
        return len(self._stale)

    def closure(self, stream_id: int) -> Tuple[int, ...]:
        """Return the transitive HP closure the stream's guarantee is
        scoped to (finding F-7): every admitted id whose behaviour the
        stream's bound conditions on, ascending."""
        if stream_id not in self._admitted:
            raise StreamError(f"no admitted stream with id {stream_id}")
        self._settle()
        return self._hp_sets[stream_id].ids()

    def verdict(self, stream_id: int) -> StreamVerdict:
        """Return the verdict of one admitted stream (settling first)."""
        if stream_id not in self._admitted:
            raise StreamError(f"no admitted stream with id {stream_id}")
        self._settle()
        return self._verdicts[stream_id]

    def analysis_of(self, stream_id: int) -> str:
        """Return the bound-backend name an admitted stream was vetted
        under (and will be re-vetted under on every later op)."""
        if stream_id not in self._admitted:
            raise StreamError(f"no admitted stream with id {stream_id}")
        return self._analysis[stream_id]

    def current_report(self) -> FeasibilityReport:
        """Report over the admitted set, from cache (nothing is
        recomputed unless a replayed op left verdicts stale).

        An empty admitted set is vacuously feasible.
        """
        self._settle()
        if len(self._resolved) == 0:
            return FeasibilityReport.trivial()
        return self._report_from_cache()

    def try_admit(
        self,
        requests: MessageStream | Iterable[MessageStream],
        *,
        analysis: Optional[str] = None,
    ) -> AdmissionDecision:
        """Test a request (stream or job batch) and admit it if feasible.

        All-or-nothing: rejection leaves the admitted set (and every
        cache) untouched, and an admitted stream can never break an
        existing guarantee — the trial covers the union.

        ``analysis`` names the bound backend the new streams are vetted
        under (``None`` = the engine default); it is validated before
        anything is touched and remembered per stream, so later ops
        re-vet each stream under its own backend.
        """
        requests, backend_name = self._validated_batch(requests, analysis)
        self._settle()
        self.stats.ops += 1
        decision = self._incremental_admit(requests, backend_name)
        if decision.admitted:
            self.stats.admits += 1
        else:
            self.stats.rejects += 1
        return decision

    def adopt(
        self,
        requests: MessageStream | Iterable[MessageStream],
        *,
        analysis: Optional[str] = None,
    ) -> None:
        """Add streams an engine already admitted, without deciding.

        The replay half of :meth:`try_admit`: same validation, same
        structure maintenance, but the verdicts the batch invalidates
        are only marked stale — the next reader settles them. For
        journal and snapshot records, which were written only after the
        primary's engine accepted them.
        """
        requests, backend_name = self._validated_batch(requests, analysis)
        self.stats.ops += 1
        self.stats.admits += 1
        dirty = {r.stream_id for r in requests}
        for r in requests:
            self._analysis[r.stream_id] = backend_name
            dirty |= self._attach(r)
        self.stats.note_dirty(len(dirty))
        self._stale |= dirty

    def release(self, stream_ids: int | Iterable[int]) -> None:
        """Remove streams from the admitted set, updating only the
        verdicts whose HP closure reached a removed stream.

        Validated up front: unknown ids raise :class:`StreamError` naming
        them and nothing is removed.
        """
        self.retire(stream_ids)
        self._settle()

    def retire(self, stream_ids: int | Iterable[int]) -> None:
        """Remove streams without recomputing: :meth:`release` minus its
        settle (the replay half, like :meth:`adopt`). The verdicts that
        reached a removed stream are marked stale."""
        if isinstance(stream_ids, int):
            stream_ids = (stream_ids,)
        ids = tuple(dict.fromkeys(stream_ids))
        if not ids:
            return
        unknown = sorted(sid for sid in ids if sid not in self._admitted)
        if unknown:
            raise StreamError(
                f"cannot release stream id(s) {unknown}: not admitted"
            )
        self.stats.ops += 1
        self.stats.releases += 1
        # Dirty set on the OLD graph: whoever could reach a removed id.
        dirty = self._reverse_reachable(ids) - set(ids)
        self.stats.note_dirty(len(dirty))
        for sid in ids:
            self._detach(sid)
        if not dirty:
            # Nothing reached the removed ids: every verdict stands.
            self.stats.verdicts_reused += len(self._verdicts)
            return
        t0 = time.perf_counter()
        self._recompute_reach(dirty)
        self.stats.hp_seconds += time.perf_counter() - t0
        self._stale |= dirty

    def _validated_batch(
        self,
        requests: MessageStream | Iterable[MessageStream],
        analysis: Optional[str],
    ) -> Tuple[Tuple[MessageStream, ...], str]:
        """What :meth:`try_admit` and :meth:`adopt` check before touching
        anything; also raises the fresh-id mark past the batch's ids."""
        if analysis is None:
            backend_name = self.default_analysis
        else:
            backend_name = _backends.get(analysis).name
        if isinstance(requests, MessageStream):
            requests = (requests,)
        requests = tuple(requests)
        if not requests:
            raise AnalysisError("empty admission request")
        dup = [r.stream_id for r in requests if r.stream_id in self._admitted]
        ids = [r.stream_id for r in requests]
        if dup or len(set(ids)) != len(ids):
            raise StreamError(
                f"duplicate stream id(s) in admission request: "
                f"{sorted(set(dup or ids))}"
            )
        top = max(ids)
        if top >= self._next_id:
            self._next_id = top + 1
        # A pair the failed links disconnect raises RoutingError here,
        # not halfway through attaching the batch.
        for r in requests:
            self._route(r.src, r.dst)
        return requests, backend_name

    def _settle(self) -> None:
        """Recompute every stale HP set and verdict (the flush point of
        ``adopt``/``retire``; free when nothing is stale)."""
        stale = self._stale
        if not stale:
            return
        if len(stale) >= len(self._admitted):
            self._full_rebuild()
            self.stats.full_fallbacks += 1
        else:
            self._refresh(stale)
        stale.clear()

    def apply_routing(self, new_routing: RoutingAlgorithm) -> RoutingDelta:
        """Swap the routing function and re-admit the affected closure.

        The reroute-and-readmit protocol: routes are recomputed under
        ``new_routing``, streams whose channel sets are unchanged keep
        every cached structure and verdict untouched, and exactly the
        reverse-reachable closure of the changed streams is re-analysed.
        Streams the new routing cannot route at all (pairs disconnected
        by link failures) are evicted first; then, while the report is
        infeasible, deadline-missing streams are evicted — rerouted
        streams before previously-stable ones, ascending id within each
        round — until the surviving set is feasible again. The final
        state is bit-identical to a from-scratch analysis of the
        surviving set under ``new_routing``, because every verdict is a
        pure function of the resolved streams and their HP closures.

        Unlike :meth:`try_admit` this is not all-or-nothing — a routing
        swap models a physical event the engine cannot refuse. Callers
        needing rollback re-apply the old routing and re-admit
        ``evicted_streams`` (order-insensitive: subsets of a feasible
        set are feasible).
        """
        self._settle()
        self.stats.ops += 1
        self.stats.reroutes += 1
        new_table = shared_route_table(new_routing)
        changed: List[int] = []
        disconnected: List[int] = []
        for sid in sorted(self._admitted.ids()):
            stream = self._admitted[sid]
            try:
                chans = new_table.channels(stream.src, stream.dst)
            except RoutingError:
                disconnected.append(sid)
                continue
            if chans != self._channels.get(sid):
                changed.append(sid)
        rerouted = tuple(changed)
        evicted_streams: List[Tuple[MessageStream, str]] = [
            (self._admitted[sid], self._analysis[sid])
            for sid in disconnected
        ]
        evicted: List[int] = list(disconnected)

        # Capture before detach (detach pops the analysis name too).
        moved = [
            (self._admitted[sid], self._analysis[sid])
            for sid in changed
        ]
        dirty = self._reverse_reachable(changed + disconnected)
        for sid in changed + disconnected:
            self._detach(sid)
        self.routing = new_routing
        self._route_table = new_table
        for stream, name in moved:
            self._analysis[stream.stream_id] = name
            dirty |= self._attach(stream)
            dirty.add(stream.stream_id)
        dirty &= set(self._admitted.ids())
        self.stats.note_dirty(len(dirty))
        if dirty and len(dirty) >= len(self._admitted):
            self._full_rebuild()
            self.stats.full_fallbacks += 1
        else:
            t0 = time.perf_counter()
            self._recompute_reach(dirty)
            self.stats.hp_seconds += time.perf_counter() - t0
            self._refresh(dirty)

        # Eviction fixpoint: drop deadline-missers until feasible again.
        rerouted_left = set(rerouted)
        while len(self._admitted):
            report = self.current_report()
            if report.success:
                break
            infeasible = set(report.infeasible_ids())
            if not infeasible:  # pragma: no cover - defensive
                raise AnalysisError(
                    "infeasible report with no infeasible streams"
                )
            victims = sorted(infeasible & rerouted_left) \
                or sorted(infeasible)
            evicted_streams.extend(
                (self._admitted[sid], self._analysis[sid])
                for sid in victims
            )
            evicted.extend(victims)
            rerouted_left -= set(victims)
            self.release(victims)
        self.stats.reroute_evictions += len(evicted)
        return RoutingDelta(
            rerouted=tuple(
                sid for sid in rerouted if sid in self._admitted
            ),
            evicted=tuple(evicted),
            disconnected=tuple(disconnected),
            survivors=tuple(sorted(self._admitted.ids())),
            evicted_streams=tuple(evicted_streams),
        )

    # ------------------------------------------------------------------ #
    # Admission path
    # ------------------------------------------------------------------ #

    def _incremental_admit(
        self, requests: Tuple[MessageStream, ...], backend_name: str
    ) -> AdmissionDecision:
        # No O(n) cache snapshot up front: the attach path keeps an undo
        # log of the reach entries it replaces, and the refresh path saves
        # the HP sets / verdicts of the dirty ids before overwriting them.
        # Rejection then detaches the added streams (the exact structural
        # inverse of attach) and restores only those saved entries.
        undo_reach: Dict[int, Optional[Set[int]]] = {}
        added = [r.stream_id for r in requests]
        for sid in added:
            self._analysis[sid] = backend_name
        dirty: Set[int] = set()
        for r in requests:
            dirty |= self._attach(r, undo_reach=undo_reach)
        dirty.update(added)
        self.stats.note_dirty(len(dirty))
        if len(dirty) >= len(self._admitted):
            report = self._full_rebuild()
            self.stats.full_fallbacks += 1
            if report.success:
                return AdmissionDecision(True, report, ())
            # Rare reject-after-fallback: the wholesale rebuild replaced
            # every cache, so the undo log no longer applies — detach the
            # added streams and rebuild the original set from scratch.
            for sid in added:
                self._detach(sid)
            self._full_rebuild()
            return AdmissionDecision(False, report, report.infeasible_ids())
        saved_hp = {j: self._hp_sets.get(j) for j in dirty}
        saved_vd = {j: self._verdicts.get(j) for j in dirty}
        self._refresh(dirty)
        report = self._report_from_cache()
        if report.success:
            return AdmissionDecision(True, report, ())
        for sid in added:
            self._detach(sid)
        for j, old_reach in undo_reach.items():
            if j not in self._admitted:
                continue
            if old_reach is None:
                self._reach.pop(j, None)
            else:
                self._reach[j] = old_reach
        for j, hp in saved_hp.items():
            if hp is not None and j in self._admitted:
                self._hp_sets[j] = hp
        for j, vd in saved_vd.items():
            if vd is not None and j in self._admitted:
                self._verdicts[j] = vd
        return AdmissionDecision(False, report, report.infeasible_ids())

    def _full_rebuild(self) -> FeasibilityReport:
        """Recompute everything with a plain analyzer; adopt its caches.

        Structures (routes, blockers, HP sets) are backend-independent,
        so one analyzer derives them; verdicts are then grouped by each
        stream's bound backend — a single-backend set takes the direct
        ``determine_feasibility`` path (bit-identical to the pre-backend
        engine when that backend is kim98).
        """
        if len(self._admitted) == 0:
            self._resolved = StreamSet()
            self._channels.clear()
            self._channel_users.clear()
            self._blockers.clear()
            self._rev.clear()
            self._reach.clear()
            self._hp_sets.clear()
            self._verdicts.clear()
            return FeasibilityReport.trivial()
        in_use = {self._analysis[sid] for sid in self._admitted.ids()}
        single = _backends.get(next(iter(in_use))) if len(in_use) == 1 \
            else None
        base_kwargs = single.analyzer_kwargs if single else {}
        analyzer = FeasibilityAnalyzer(
            StreamSet(self._admitted),
            self.routing,
            latency_model=self.latency_model,
            channels={
                s.stream_id: self._route(s.src, s.dst)
                for s in self._admitted
            },
            use_modify=self.use_modify,
            residency_margin=self.residency_margin,
            backend=single.name if single else "kim98",
            **base_kwargs,
        )
        if single is not None:
            report = analyzer.determine_feasibility()
        else:
            by_backend: Dict[str, List[int]] = {}
            for sid in self._admitted.ids():
                by_backend.setdefault(self._analysis[sid], []).append(sid)
            verdicts: Dict[int, StreamVerdict] = {}
            for name in sorted(by_backend):
                sub = _backends.get(name).analyzer_from_prepared(
                    analyzer.streams,
                    analyzer.channels,
                    analyzer.blockers,
                    analyzer.hp_sets,
                    routing=self.routing,
                    latency_model=self.latency_model,
                    use_modify=self.use_modify,
                    residency_margin=self.residency_margin,
                )
                for sid in by_backend[name]:
                    verdicts[sid] = sub.cal_u(sid)
            ordered = {
                s.stream_id: verdicts[s.stream_id]
                for s in analyzer.streams.sorted_by_priority()
            }
            report = FeasibilityReport(
                verdicts=ordered,
                success=all(v.feasible for v in ordered.values()),
            )
        self._resolved = analyzer.streams
        self._channels = dict(analyzer.channels)
        self._blockers = dict(analyzer.blockers)
        self._hp_sets = dict(analyzer.hp_sets)
        self._verdicts = dict(report.verdicts)
        self._rebuild_indexes()
        self._reach = {
            sid: set(hp.ids()) for sid, hp in self._hp_sets.items()
        }
        self.stats.verdicts_recomputed += len(report.verdicts)
        self.stats.hp_rebuilt += len(report.verdicts)
        return report

    def _refresh(self, dirty: Set[int]) -> None:
        """Rebuild HP sets and verdicts for the dirty ids only."""
        stats = self.stats
        if not dirty:
            stats.verdicts_reused += len(self._verdicts)
            return
        order = sorted(dirty)
        t0 = time.perf_counter()
        reach_map = self._reach
        for j in order:
            self._hp_sets[j] = hp_set_from_reach(
                j, self._blockers[j], reach_map[j], reach_map
            )
        stats.hp_delta_updates += len(order)
        stats.hp_seconds += time.perf_counter() - t0

        t0 = time.perf_counter()
        memo = self._verdict_memo
        pending: List[int] = []
        keys: Dict[int, tuple] = {}
        for j in order:
            key = self._memo_key(j)
            keys[j] = key
            hit = memo.get(key)
            if hit is not None:
                self._verdicts[j] = hit
                stats.verdict_memo_hits += 1
            else:
                pending.append(j)
        if pending:
            by_backend: Dict[str, List[int]] = {}
            for j in pending:
                by_backend.setdefault(self._analysis[j], []).append(j)
            computed: Dict[int, StreamVerdict] = {}
            for name in sorted(by_backend):
                analyzer = _backends.get(name).analyzer_from_prepared(
                    self._resolved,
                    self._channels,
                    self._blockers,
                    self._hp_sets,
                    routing=self.routing,
                    latency_model=self.latency_model,
                    use_modify=self.use_modify,
                    residency_margin=self.residency_margin,
                )
                analyzer.timing_sink = stats
                for j in by_backend[name]:
                    computed[j] = analyzer.cal_u(j)
            for j in pending:
                v = computed[j]
                self._verdicts[j] = v
                memo[keys[j]] = v
            while len(memo) > _MEMO_CAP:
                memo.pop(next(iter(memo)))
        stats.verdict_seconds += time.perf_counter() - t0
        stats.verdicts_recomputed += len(pending)
        stats.verdicts_reused += len(self._verdicts) - len(dirty)

    def _memo_key(self, j: int) -> tuple:
        """The full analytic input of ``Cal_U(j)``, as a hashable key.

        A verdict is a pure function of the owner stream and the HP
        members (their parameters, modes and intermediate sets): routes
        are fixed per ``(src, dst)``, so the blocking edges *among* the
        closure members — all the BDG uses — are determined by the member
        streams themselves. Resolved streams are frozen dataclasses, so
        the key is hashable and survives release/re-admit cycles.
        """
        hp = self._hp_sets[j]
        resolved = self._resolved
        return (
            self._analysis[j],
            resolved[j],
            tuple(
                (resolved[e.stream_id], e.mode, e.intermediates)
                for e in hp
            ),
        )

    def _report_from_cache(self) -> FeasibilityReport:
        # Same construction order as determine_feasibility for bit-identity.
        verdicts: Dict[int, StreamVerdict] = {}
        for stream in self._resolved.sorted_by_priority():
            verdicts[stream.stream_id] = self._verdicts[stream.stream_id]
        success = all(v.feasible for v in verdicts.values())
        return FeasibilityReport(verdicts=verdicts, success=success)

    # ------------------------------------------------------------------ #
    # Structure maintenance
    # ------------------------------------------------------------------ #

    def _route(self, src: int, dst: int) -> FrozenSet[Channel]:
        t0 = time.perf_counter()
        chans, was_cached = self._route_table.lookup(src, dst)
        stats = self.stats
        if was_cached:
            stats.route_cache_hits += 1
        else:
            stats.route_cache_misses += 1
        stats.route_seconds += time.perf_counter() - t0
        return chans

    def _attach(
        self,
        stream: MessageStream,
        *,
        undo_reach: Optional[Dict[int, Optional[Set[int]]]] = None,
    ) -> Set[int]:
        """Add one stream to the admitted set and the dependency indexes.

        Returns the reverse-reachable set of the new stream on the updated
        graph (the ids whose closures changed, new id included); the union
        of these sets over a batch equals the batch's dirty set, because
        every new edge is incident to some added stream.

        When ``undo_reach`` is given, every reach entry this attach
        replaces is recorded there once (``None`` = was absent), so a
        rejected trial can restore the old closures without an O(n)
        snapshot.
        """
        self._admitted.add(stream)
        k = stream.stream_id
        chans = self._route(stream.src, stream.dst)
        self._channels[k] = chans
        if stream.latency is None:
            resolved = stream.with_latency(
                self.latency_model.latency(stream, len(chans))
            )
        else:
            resolved = stream
        self._resolved.add(resolved)

        overlap: Set[int] = set()
        for c in chans:
            overlap |= self._channel_users.get(c, frozenset())
            self._channel_users[c] = (
                self._channel_users.get(c, frozenset()) | {k}
            )
        bk: List[int] = []
        self._rev.setdefault(k, set())
        for j in overlap:
            other = self._resolved[j]
            if other.priority >= stream.priority:
                bk.append(j)
                self._rev[j].add(k)
            if stream.priority >= other.priority:
                self._blockers[j] = tuple(sorted(self._blockers[j] + (k,)))
                self._rev[k].add(j)
        self._blockers[k] = tuple(sorted(bk))

        affected = self._reverse_reachable((k,))
        t0 = time.perf_counter()
        reach = self._reach
        # All new edges touch k, so the closure over k's direct
        # blockers' (old, still-valid) closures is itself closed.
        rk: Set[int] = set()
        for x in bk:
            rk.add(x)
            rk.update(reach.get(x, ()))
        rk.discard(k)
        if undo_reach is not None and k not in undo_reach:
            undo_reach[k] = None
        reach[k] = rk
        gain = rk | {k}
        for j in affected:
            if j == k:
                continue
            if undo_reach is not None and j not in undo_reach:
                undo_reach[j] = reach.get(j)
            new = reach.get(j, set()) | gain
            new.discard(j)
            reach[j] = new
        self.stats.hp_seconds += time.perf_counter() - t0
        return affected

    def _detach(self, sid: int) -> None:
        """Remove one stream from the admitted set and every index."""
        self._admitted.remove(sid)
        self._resolved.remove(sid)
        for c in self._channels.pop(sid):
            users = self._channel_users[c] - {sid}
            if users:
                self._channel_users[c] = users
            else:
                del self._channel_users[c]
        for j in self._rev.pop(sid, set()):
            if j in self._blockers:
                self._blockers[j] = tuple(
                    x for x in self._blockers[j] if x != sid
                )
        for v in self._blockers.pop(sid, ()):
            if v in self._rev:
                self._rev[v].discard(sid)
        self._reach.pop(sid, None)
        self._hp_sets.pop(sid, None)
        self._verdicts.pop(sid, None)
        self._analysis.pop(sid, None)
        self._stale.discard(sid)

    def _reverse_reachable(self, seeds: Iterable[int]) -> Set[int]:
        """Ids that can reach any seed via blocked-by edges (seeds incl.)."""
        seen: Set[int] = set()
        frontier = [s for s in seeds if s in self._blockers]
        while frontier:
            v = frontier.pop()
            if v in seen:
                continue
            seen.add(v)
            frontier.extend(self._rev.get(v, ()))
        return seen

    def _recompute_reach(self, dirty: Set[int]) -> None:
        """Recompute the closures of the dirty ids after a release.

        A clean (non-dirty) stream cannot reach a dirty one — it would
        reach a removed id through it — so its closure is unchanged and
        already transitively closed. The walk therefore only expands
        dirty nodes edge-by-edge and absorbs each clean neighbour's
        closure wholesale.
        """
        reach = self._reach
        blockers = self._blockers
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

    def _rebuild_indexes(self) -> None:
        """Derive channel-users and reverse adjacency from the caches."""
        self._channel_users = {}
        users: Dict[Channel, Set[int]] = {}
        for sid, chans in self._channels.items():
            for c in chans:
                users.setdefault(c, set()).add(sid)
        self._channel_users = {c: frozenset(v) for c, v in users.items()}
        self._rev = {sid: set() for sid in self._blockers}
        for sid, bl in self._blockers.items():
            for v in bl:
                self._rev[v].add(sid)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IncrementalAdmissionEngine(admitted={len(self._admitted)})"
