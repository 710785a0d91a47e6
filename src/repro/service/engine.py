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
* a :class:`~repro.core.hpset.BlockingIndex`: per-stream channel sets,
  a channel -> users index, the direct-blocking relation and its reverse
  adjacency, and per-stream **reachability closures** over the
  blocked-by relation, updated by delta on attach/detach, from which the
  HP set of a verdict to compute is produced without any graph traversal
  and then dropped (the same index builds every offline analyzer's HP
  sets, for the whole set at once);
* per-stream :class:`~repro.core.feasibility.StreamVerdict`\\ s, plus a
  **verdict memo** keyed by the full analytic input of ``Cal_U``:
  ``(backend, route table in effect, resolved owner, resolved members of
  the closure in id order)``. With the routes fixed by the table, the
  members' routes and priorities determine every HP mode, intermediate
  set and shared-channel count, so the key is complete without the HP
  set, a hit builds none, and an entry holds one pointer per member plus
  the verdict. Churn that re-creates a previously seen configuration
  skips the HP set and the diagram entirely. Ids are not reused, so
  each time the memo doubles, keys naming a released id are dropped.

A verdict that misses the memo shares one more cache, which lives for a
single refresh: the diagram rows its analyzers fill, keyed by the path
of rows above (see :func:`~repro.core.timing_diagram.generate_init_diagram`).

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
inputs listed above. A dirty frontier that covers the whole set (the
first admit, a recovery, a cache storm) takes the same memo and reach
sets as any other. The from-scratch engine that re-analyses everything
on every op is the test oracle (``tests/reference/engine.py``) the
fuzzed equivalence suites hold this one to, op by op.

**Settle rule (replay applies, reads settle).** The rule above says
*which* verdicts an op invalidates, not *when* they must be recomputed.
The structural mutators :meth:`~IncrementalAdmissionEngine.adopt` and
:meth:`~IncrementalAdmissionEngine.retire` maintain every index and
reach closure eagerly but only *mark* the dirty ids in a stale set;
``_settle()`` recomputes the marked verdicts in one go. It runs
whenever someone reads a verdict (``verdict``, ``current_report``; a
``closure`` is the reach set, never stale) and on entry to
``try_admit`` and ``apply_routing``
(a trial and the eviction fixpoint both decide on fresh verdicts), so
no caller ever observes a stale answer. This is sound because ``Cal_U``
is pure: a verdict depends on the final closure, not on the order or
the moment the ops that shaped it were applied, and marks compose — an
id no op marked since its last computation has an unchanged closure.
The live mutators decide at once (``try_admit`` computes its trial,
``release`` is ``retire`` + ``_settle``); the deferred pair exists for
consumers of the journal — restart recovery, and a tenant's failover,
which is the same recovery — whose every record the live engine
already decided.

Dirty-set ``Cal_U`` runs that miss the memo are computed in-process, in
sorted-id order: copying a prepared analyzer to another process costs
more than the handful of verdicts a dirty frontier holds (measured in
DESIGN.md section 10).

**Analyses by name.** Each admitted stream names a registered
:class:`~repro.core.backends.BoundBackend`, which declares every bound
rule its verdicts apply, margins included. The engine holds no rule of
its own, so a served margin comes only from a registered backend.

**Closure-scoped guarantees (finding F-7).** A stream's bound is only a
guarantee while its transitive HP closure is itself admitted (the bound
conditions on those streams' behaviour). Inside the broker the closure is
admitted by construction — HP members come from the admitted set — and
:meth:`IncrementalAdmissionEngine.closure` reports the exact id set each
guarantee is scoped to, so clients can propagate the condition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Collection, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple,
)

from ..core import backends as _backends
from ..core.feasibility import (
    FeasibilityAnalyzer, FeasibilityReport, StreamVerdict,
)
from ..core.hpset import BlockingIndex
from ..core.latency import NoLoadLatency
from ..core.streams import MessageStream, StreamSet
from ..core.timing_diagram import RowMemo
from ..errors import AnalysisError, RoutingError, StreamError
from ..topology.base import Channel
from ..topology.route_table import shared_route_table
from ..topology.routing import RoutingAlgorithm

__all__ = [
    "AdmissionDecision", "EngineStats", "IncrementalAdmissionEngine",
    "RoutingDelta",
]

#: Resolves each stream's ``L`` over its route (the paper's model).
_LATENCY = NoLoadLatency()


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
    #: HP sets built, one per verdict computed (a memo hit builds none).
    hp_rebuilt: int = 0
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
            "hp_rebuilt", "forced_invalidations",
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


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission request."""

    admitted: bool
    #: Feasibility report of the trial set (admitted set + request).
    report: FeasibilityReport
    #: Ids of the streams whose bounds broke, if rejected.
    violations: Tuple[int, ...]


class IncrementalAdmissionEngine:
    """Admission control with incremental feasibility recomputation.

    The paper's host processor (Fig. 1): streams are requested one at a
    time or in job-sized batches, and a request is admitted only if the
    whole set — admitted streams plus the request — stays feasible. The
    analysis stays warm between requests; reports are bit-identical to a
    from-scratch :class:`FeasibilityAnalyzer` over the same admitted set.

    Parameters
    ----------
    routing:
        Deterministic routing function of the managed network.
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
        analysis: Optional[str] = None,
    ):
        self.routing = routing
        # Resolved eagerly so a typo'd REPRO_ANALYSIS_BACKEND fails at
        # construction, not on the first admit.
        self.default_analysis = _backends.resolve_name(analysis)
        self.stats = EngineStats()

        self._admitted = StreamSet()   # streams as requested (raw latency)
        self._resolved = StreamSet()   # latencies resolved over the route
        self._next_id = 0
        # Derived state, rebuilt by invalidate_caches.
        self._route_table = shared_route_table(routing)
        self._index = BlockingIndex(timing_sink=self.stats)
        self._verdicts: Dict[int, StreamVerdict] = {}
        self._verdict_memo: Dict[tuple, StreamVerdict] = {}
        #: Memo size the last sweep left (see ``_refresh``).
        self._memo_swept = 0
        #: Diagram rows filled or hit by the last two refreshes that ran
        #: ``Cal_U``, shared by every diagram of the next.
        self._rows = RowMemo()
        #: Per-stream bound-backend name (every admitted id has an entry).
        self._analysis: Dict[int, str] = {}
        #: Ids touched by ``adopt``/``retire`` since the last settle: the
        #: admitted ids whose cached verdict is out of date.
        self._stale: Set[int] = set()
        #: Ids a replay adopted as ``netted``: validated, never attached,
        #: held until the ``retire`` of the id (empty outside a replay).
        self._netted: Set[int] = set()

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

        The chaos campaign's engine-layer fault (``cache_storm``): every
        index, reach closure and verdict, the verdict and row memos and
        the shared route table are cleared, the admitted streams are
        re-attached with their backends, and the settle that follows
        must come back bit-identical — the caches are an optimisation,
        never a source of truth.
        """
        self.stats.forced_invalidations += 1
        streams = [(s, self._analysis[s.stream_id]) for s in self._admitted]
        for s, _ in streams:
            self._admitted.remove(s.stream_id)
        self._resolved = StreamSet()
        self._index = BlockingIndex(timing_sink=self.stats)
        for cache in (self._verdicts, self._verdict_memo, self._analysis,
                      self._stale):
            cache.clear()
        self._route_table.clear()
        self._rows = RowMemo()
        for s, name in streams:
            self._analysis[s.stream_id] = name
            self._stale |= self._attach(s)
        self._settle()

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
        return tuple(sorted(self._index.reach[stream_id]))

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
        netted: Collection[int] = (),
    ) -> None:
        """Add streams an engine already admitted, without deciding.

        The replay half of :meth:`try_admit`: same validation, same
        structure maintenance, but the verdicts the batch invalidates
        are only marked stale — the next reader settles them. For
        journal and snapshot records, which were written only after the
        primary's engine accepted them.

        ``netted`` names streams of the batch that the next
        :meth:`retire` of their id removes before anything reads: they
        are validated like the rest (duplicates, routes, the fresh-id
        mark) but held as ids only, never attached, so they cost no
        index or closure work.
        """
        requests, backend_name = self._validated_batch(requests, analysis)
        if netted:
            self._netted.update(
                r.stream_id for r in requests if r.stream_id in netted
            )
            requests = tuple(
                r for r in requests if r.stream_id not in netted
            )
            if not requests:
                return
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
        reached a removed stream are marked stale; a stream
        :meth:`adopt` netted is only forgotten."""
        if isinstance(stream_ids, int):
            stream_ids = (stream_ids,)
        ids = tuple(dict.fromkeys(stream_ids))
        if not ids:
            return
        unknown = sorted(
            sid for sid in ids
            if sid not in self._admitted and sid not in self._netted
        )
        if unknown:
            raise StreamError(
                f"cannot release stream id(s) {unknown}: not admitted"
            )
        if self._netted:
            self._netted.difference_update(ids)
            ids = tuple(sid for sid in ids if sid in self._admitted)
            if not ids:
                return
        self.stats.ops += 1
        self.stats.releases += 1
        # Dirty set on the OLD graph: whoever could reach a removed id.
        dirty = self._index.reverse_reachable(ids) - set(ids)
        self.stats.note_dirty(len(dirty))
        for sid in ids:
            self._detach(sid)
        if not dirty:
            # Nothing reached the removed ids: every verdict stands.
            self.stats.verdicts_reused += len(self._verdicts)
            return
        t0 = time.perf_counter()
        self._index.recompute_reach(dirty)
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
        dup = [r.stream_id for r in requests
               if r.stream_id in self._admitted or r.stream_id in self._netted]
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
        """Recompute every stale verdict (the flush point of
        ``adopt``/``retire``; free when nothing is stale)."""
        stale = self._stale
        if stale:
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
            if chans != self._index.channels.get(sid):
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
        dirty = self._index.reverse_reachable(changed + disconnected)
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
        t0 = time.perf_counter()
        self._index.recompute_reach(dirty)
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
        # log of the reach entries it replaces, and the verdicts of the
        # dirty ids are saved before the refresh overwrites them.
        # Rejection then detaches the added streams (the exact structural
        # inverse of attach) and restores only those saved entries.
        undo_reach: Dict[int, Set[int]] = {}
        added = [r.stream_id for r in requests]
        for sid in added:
            self._analysis[sid] = backend_name
        dirty: Set[int] = set()
        for r in requests:
            dirty |= self._attach(r, undo_reach=undo_reach)
        dirty.update(added)
        self.stats.note_dirty(len(dirty))
        saved_vd = {j: self._verdicts.get(j) for j in dirty}
        self._refresh(dirty)
        report = self._report_from_cache()
        if report.success:
            return AdmissionDecision(True, report, ())
        for sid in added:
            self._detach(sid)
        self._index.restore(undo_reach)
        for j, vd in saved_vd.items():
            if vd is not None and j in self._admitted:
                self._verdicts[j] = vd
        return AdmissionDecision(False, report, report.infeasible_ids())

    def _refresh(self, dirty: Set[int]) -> None:
        """Recompute the dirty verdicts: only a memo miss builds its HP
        set and runs ``Cal_U``."""
        stats = self.stats
        if not dirty:
            stats.verdicts_reused += len(self._verdicts)
            return
        t0 = time.perf_counter()
        memo = self._verdict_memo
        pending: Dict[int, tuple] = {}
        for j in sorted(dirty):
            key = self._memo_key(j)
            hit = memo.get(key)
            if hit is not None:
                self._verdicts[j] = hit
                stats.verdict_memo_hits += 1
            else:
                pending[j] = key
        if pending:
            t1 = time.perf_counter()
            index = self._index
            hp_sets = {j: index.hp_set(j) for j in pending}
            stats.hp_rebuilt += len(pending)
            hp_time = time.perf_counter() - t1
            stats.hp_seconds += hp_time
            t0 += hp_time  # the verdict phase excludes the HP build
            by_backend: Dict[str, List[int]] = {}
            for j in pending:
                by_backend.setdefault(self._analysis[j], []).append(j)
            for name in sorted(by_backend):
                analyzer = FeasibilityAnalyzer.from_prepared(
                    self._resolved,
                    index.channels,
                    index.blockers,
                    hp_sets,
                    backend=_backends.get(name),
                )
                analyzer.timing_sink = stats
                analyzer.row_memo = self._rows
                for j in by_backend[name]:
                    v = analyzer.cal_u(j)
                    self._verdicts[j] = v
                    memo[pending[j]] = v
            self._rows.age()
            if len(memo) > 2 * self._memo_swept:
                # A key naming an id no longer admitted cannot hit again
                # (ids are not reused); sweeping at doubling amortises.
                live = self._analysis   # keyed by every admitted id
                self._verdict_memo = {
                    key: v for key, v in memo.items()
                    if key[2].stream_id in live
                    and all(m.stream_id in live for m in key[3])}
                self._memo_swept = len(self._verdict_memo)
        stats.verdict_seconds += time.perf_counter() - t0
        stats.verdicts_recomputed += len(pending)
        stats.verdicts_reused += len(self._verdicts) - len(dirty)

    def _memo_key(self, j: int) -> tuple:
        """The full analytic input of ``Cal_U(j)`` as a hashable key:
        backend, route table, resolved owner, resolved ``reach[j]`` in
        id order. The table fixes every route (a link fault switches
        tables), and the routes and priorities of ``{j} | reach[j]`` (a
        closed set) then fix every HP mode, intermediate set and channel
        overlap, so a hit needs no HP set. An entry costs one pointer
        per member plus the verdict."""
        resolved = self._resolved
        return (
            self._analysis[j],
            self._route_table,
            resolved[j],
            tuple(resolved[r] for r in sorted(self._index.reach[j])),
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
        undo_reach: Optional[Dict[int, Set[int]]] = None,
    ) -> Set[int]:
        """Admit and index one stream; return the ids whose closures
        changed (:meth:`~repro.core.hpset.BlockingIndex.add`)."""
        self._admitted.add(stream)
        chans = self._route(stream.src, stream.dst)
        if stream.latency is None:
            resolved = stream.with_latency(
                _LATENCY.latency(stream, len(chans))
            )
        else:
            resolved = stream
        self._resolved.add(resolved)
        return self._index.add(stream.stream_id, stream.priority, chans,
                               undo_reach=undo_reach)

    def _detach(self, sid: int) -> None:
        """Remove one stream from the admitted set and every index."""
        self._admitted.remove(sid)
        self._resolved.remove(sid)
        self._index.remove(sid)
        self._verdicts.pop(sid, None)
        self._analysis.pop(sid, None)
        self._stale.discard(sid)
