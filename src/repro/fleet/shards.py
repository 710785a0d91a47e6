"""Shard manager: one tenant's admission state across N engine shards.

Placement model
---------------
Every tenant owns a full topology and a pool of
:class:`~repro.service.host.EngineHost` shards over it. Streams are
placed by *channel-connected component* (:mod:`repro.fleet.regions`):

* a batch whose channels touch no admitted stream goes to the
  least-loaded shard (deterministic tie-break by shard index);
* a batch touching exactly one shard's streams goes to that shard;
* a batch whose channels bridge components living on two or more shards
  *escalates*: the foreign components migrate to a single target shard
  (the one already holding the most involved streams) and the batch is
  decided there, against its complete closure.

The invariant maintained is that a channel-connected component never
spans two shards. Under it every verdict an engine computes sees the
stream's entire transitive HP closure, so fleet decisions are
*bit-identical* to a single engine admitting the same op stream — the
property test in ``tests/test_fleet_equivalence.py`` fuzzes exactly
this claim, and the migration path makes it a safety property rather
than a heuristic.

Migration is admit-then-release: the target shard journals the admission
of the moved streams before the source journals their release, so a
crash between the two leaves *duplicates* (identical specs on both
shards) rather than losses. Fleet recovery detects both artefacts —
duplicate ids and components left spanning shards — and repairs them
through the same journaled ops.

Id allocation lives at the tenant level (the fleet mirrors the engine's
``fresh_id`` / high-water-mark semantics exactly), because ids must come
out identical to the single-engine reference regardless of placement.

Shards
------
A tenant's shards are always in its own process: ``Fleet(...,
workers=N)`` runs each tenant's whole fleet in a supervised worker
(:mod:`repro.fleet.workers`), whose death takes the tenant down with
its shards — the crash the recovery below repairs. The manager keeps
what it placed: ``placed`` holds each stream's spec and resolved
analysis name (both are in the admit it forwards and the answer it
gets), which migrations, compensation captures and link ops read. Only
the probes after a failure (:meth:`TenantFleet._held_ids`,
:meth:`TenantFleet._compensate_link`) ask a shard what it holds.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple,
    Union,
)

from ..errors import ReproError, RoutingError, StreamError
from ..faults.plane import FaultPlane
from ..io import stream_to_spec
from ..service.host import EngineHost, OpInterpreter, refuse_read_only
from ..service.metrics import export_journal, journal_total
from ..service.protocol import (
    ProtocolError,
    ShardDownError,
    error_from_response,
    error_response,
    merge_outcomes,
    op_record,
    outcome,
    parse_admit,
    parse_link,
    parse_query,
    parse_release,
)
from ..topology.degraded import normalize_link
from ..topology.route_table import shared_route_table
from .regions import Channel, ChannelIndex, entry_channels

__all__ = ["TenantFleet", "Fleet", "TenantSpec"]

logger = logging.getLogger(__name__)


class TenantSpec:
    """Static description of one tenant: name, auth key, topology."""

    def __init__(
        self,
        name: str,
        api_key: str,
        topology_spec: Dict[str, Any],
    ):
        if not name or "/" in name or name != name.strip():
            raise ReproError(f"invalid tenant name {name!r}")
        self.name = name
        self.api_key = api_key
        self.topology_spec = dict(topology_spec)


class TenantFleet(OpInterpreter):
    """One tenant's engines: placement, escalation, merged decisions.

    The second interpreter of the op table (the first is
    :class:`~repro.service.host.EngineHost`, whose answers it must give
    byte for byte): what it states itself is what an op does across
    shards, plus the shard lifecycle ops ``kill_shard`` and
    ``recover_shard``. ``shutdown`` is the front end's op, not a
    tenant's.
    """

    span = ("fleet.op", "fleet")
    server_name = "repro-fleet"

    def __init__(
        self,
        name: str,
        topology_spec: Dict[str, Any],
        *,
        shards: int = 2,
        state_dir: Optional[Union[str, Path]] = None,
        fault_plane: Optional[FaultPlane] = None,
    ):
        if shards < 1:
            raise ReproError(f"need at least one shard, got {shards}")
        super().__init__(topology_spec)
        self.name = name
        self.span_labels = {"tenant": name}
        # ``failed_links`` is kept in lockstep with every shard (link
        # ops broadcast).
        self._route_table = shared_route_table(self.routing)
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self._fault_plane = fault_plane
        self.hosts = [self._open_host(i) for i in range(shards)]
        #: sid -> shard index currently holding the stream.
        self.owner: Dict[int, int] = {}
        #: sid -> (spec, resolved analysis name), same keys as ``owner``:
        #: the admit the fleet forwarded and the name the shard answered
        #: with, i.e. exactly what the shard's own dump would say.
        self.placed: Dict[int, Tuple[Dict[str, Any], str]] = {}
        self.index = ChannelIndex()
        #: Tenant-level fresh-id mark, mirroring the engine's semantics.
        self._next_id = 0
        self.escalations = 0
        self.migrated_streams = 0
        #: Shards whose primary crashed and has not been recovered yet.
        self.dead: Set[int] = set()
        if self.state_dir is not None:
            self._recover_fleet()

    def _open_host(self, shard: int) -> EngineHost:
        """Open in-process shard ``shard``: what a restart opens."""
        return EngineHost(
            self.topology_spec,
            state_dir=(
                None if self.state_dir is None
                else self.state_dir / f"shard-{shard}"
            ),
            fault_plane=self._fault_plane,
        )

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #

    def _recover_fleet(self) -> None:
        """Rebuild placement state from recovered shards and repair the
        component invariant.

        Each shard has already recovered its own snapshot + journal. Two
        artefacts of the migration crash window are possible and both
        are repaired here through normal journaled ops:

        * **duplicate ids** (target admitted, source never released):
          both copies are identical specs, so the copy on the
          lowest-indexed shard is kept and the others are released;
        * **components spanning shards** (partial multi-source
          migration): re-merged via the same migration path a live
          escalation uses.

        A third artefact comes from the link-fault plane: a crash in the
        middle of a link-op broadcast leaves shards disagreeing on the
        failed-link set. A broadcast runs in shard order and a crash
        stops it, so shard 0 is never behind: the others are brought to
        *its* set — fail or restore alike — by forwarding the missing op
        under the rid shard 0 recorded for it. Each lagging shard then
        re-derives and records its own deterministic delta, and the rid
        merge below hands a retrying client the complete answer.
        """
        shard_links = [self._shard_links(i) for i in range(len(self.hosts))]
        dumps = [host.shard_dump() for host in self.hosts]
        lead = shard_links[0]
        for i, have in enumerate(shard_links):
            behind = [("fail_link", l) for l in sorted(lead - have)]
            behind += [("restore_link", l) for l in sorted(have - lead)]
            for op, link in behind:
                pair = [link[0], link[1]]
                rids = [
                    rid for rid, out in dumps[0]["applied"].items()
                    if out.get("op") == op and out.get("link") == pair
                ]
                # A rid this shard already holds names an earlier,
                # completed op on the same link, not the torn one.
                torn = rids[-1] if rids else None
                if torn in dumps[i]["applied"]:
                    torn = None
                logger.warning(
                    "tenant %s: shard %d missed %s %s (link-op crash "
                    "window); re-applying", self.name, i, op, pair,
                )
                self._forward(i, op_record(op, torn, link=pair))
            if behind:
                dumps[i] = self.hosts[i].shard_dump()
        if lead:
            self._set_failed_links(lead)
        for i, dump in enumerate(dumps):
            for entry in dump["streams"]:
                sid = int(entry["stream"]["id"])
                if sid in self.owner:
                    logger.warning(
                        "tenant %s: stream %d duplicated on shards %d/%d "
                        "(migration crash window); releasing the copy on "
                        "shard %d", self.name, sid, self.owner[sid], i, i,
                    )
                    self._forward(i, {"op": "release", "ids": [sid]})
                    continue
                self._place(i, entry["stream"], entry["analysis"])
        # Re-merge any component the crash left spanning shards.
        for comp in self.index.components():
            shards_touched = sorted({self.owner[sid] for sid in comp})
            if len(shards_touched) > 1:
                target = self._escalation_target(comp)
                logger.warning(
                    "tenant %s: component %s spans shards %s; migrating "
                    "to shard %d", self.name, sorted(comp), shards_touched,
                    target,
                )
                self._migrate(comp, target)
        # High-water mark: the engines persist theirs per shard; the
        # tenant mark is the max (never below max(admitted) + 1).
        self._next_id = max(
            [d["next_id"] for d in dumps]
            + [sid + 1 for sid in self.owner]
            + [0]
        )
        # Idempotency: an admit's rid lives on one shard; a cross-shard
        # release's rid lives on several, each holding its subset, and a
        # broadcast link op's on *every* shard, each holding its local
        # reroute/evict delta — the rid table merges the shares (id
        # lists sorted; the request order is not recorded).
        for dump in dumps:
            for rid, share in dump["applied"].items():
                self._applied.merge(rid, share)

    # ------------------------------------------------------------------ #
    # Placement helpers
    # ------------------------------------------------------------------ #

    def _spec_channels(
        self, spec: Dict[str, Any], table: Any = None
    ) -> FrozenSet[Channel]:
        """The channels a stream occupies under ``table`` (default: the
        routing in effect)."""
        return entry_channels(
            self._route_table if table is None else table, self.topology,
            int(spec["src"]), int(spec["dst"]),
        )

    def _place(
        self, shard: int, spec: Dict[str, Any], analysis: str
    ) -> None:
        """Book one stream the shard holds into the placement table."""
        sid = int(spec["id"])
        self.owner[sid] = shard
        self.placed[sid] = (spec, analysis)
        self.index.add(sid, self._spec_channels(spec))

    def _readmit(self, shard: int, ids: List[int], what: str) -> None:
        """Admit the placed streams ``ids`` on ``shard`` (journaled like
        any admit), in that order, one batch per backend each was vetted
        under: a migration's first half, or the undo of a release / link
        op that failed part-way. The set was feasible where it came
        from, so a rejection is a bug."""
        for name, specs in self._by_backend(self.placed[sid] for sid in ids):
            response = self._forward(
                shard, op_record("admit", streams=specs, analysis=name)
            )
            if not response["admitted"]:  # pragma: no cover - defensive
                raise ReproError(
                    f"{what} re-admission of "
                    f"{[e['id'] for e in specs]} rejected on shard "
                    f"{shard}; state diverged from the journal"
                )

    def _shard_links(self, shard: int) -> Set[Tuple[int, int]]:
        """The failed links the shard runs under right now (probe)."""
        links = self._forward(shard, {"op": "links"})["failed_links"]
        return {normalize_link(int(u), int(v)) for u, v in links}

    def _held_ids(self, host: EngineHost, ids: List[int]) -> List[int]:
        """Which of ``ids`` the shard durably holds right now (probe)."""
        return sorted(
            int(e["stream"]["id"])
            for e in host.shard_dump(list(ids))["streams"]
        )

    def _fresh_id(self) -> int:
        while self._next_id in self.owner:
            self._next_id += 1
        nid = self._next_id
        self._next_id += 1
        return nid

    def _reset_next_id(self, value: int) -> None:
        floor = max((sid + 1 for sid in self.owner), default=0)
        self._next_id = max(int(value), floor)

    def _least_loaded(self) -> int:
        # Placement-table counts: the engines' under the invariant.
        load = [0] * len(self.hosts)
        for shard in self.owner.values():
            load[shard] += 1
        return min(range(len(self.hosts)), key=lambda i: (load[i], i))

    def _escalation_target(self, comp: Set[int]) -> int:
        """The shard keeping its streams in a cross-shard merge: the one
        already holding the most involved streams (ties to the lowest
        index), so escalation moves the minimum number of streams."""
        load: Dict[int, int] = {}
        for sid in comp:
            load[self.owner[sid]] = load.get(self.owner[sid], 0) + 1
        return max(sorted(load), key=lambda s: load[s])

    def _forward(
        self, shard: int, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Run a sub-op on a shard; re-raise its errors as exceptions.

        The shard host returns protocol error *responses*; placement
        logic needs exceptions (so the fleet-level handler emits exactly
        one error response, with the shard's message and code preserved).
        """
        response = self.hosts[shard].handle_request(request)
        if response.get("ok"):
            return response
        raise error_from_response(response, "shard error")

    def _gate_alive(self, shards: Iterable[int]) -> None:
        """Refuse an op that needs a shard whose primary is down."""
        down = sorted(self.dead.intersection(shards))
        if down:
            raise ShardDownError(
                f"shard(s) {down} are down; fail them over (recover "
                "from their journals)"
            )

    def _gate_shards(self, shard_indexes: Iterable[int]) -> None:
        """Refuse a mutation while any involved shard is down or
        read-only.

        Checked before anything (migration included) mutates, so a
        degraded shard can never strand a half-escalated component."""
        for i in sorted(shard_indexes):
            self._gate_alive([i])
            refuse_read_only(self.hosts[i])

    def _migrate(self, comp: Set[int], target: int) -> None:
        """Move every stream of ``comp`` not on ``target`` onto it.

        Admit-then-release per source shard: the target journals the
        admission first, so a crash in between duplicates (recoverable)
        instead of losing acked streams. What moves is read from the
        placement table. A sub-op that fails commits nothing (its shard
        rolled it back), but the admissions before it did: the target is
        *probed* (``shard_dump``) for what it holds of the moved ids and
        that is released again, so a failed migration leaves placement
        as it was.
        """
        by_source: Dict[int, List[int]] = {}
        for sid in comp:
            shard = self.owner[sid]
            if shard != target:
                by_source.setdefault(shard, []).append(sid)
        if not by_source:
            return
        self.escalations += 1
        for source in sorted(by_source):
            ids = sorted(by_source[source])
            try:
                self._readmit(target, ids, "migration")
                self._forward(source, {"op": "release", "ids": ids})
            except ReproError:
                undo = self._held_ids(self.hosts[target], ids)
                if undo:
                    self._forward(target, {"op": "release", "ids": undo})
                raise
            for sid in ids:
                self.owner[sid] = target
            self.migrated_streams += len(ids)

    # ------------------------------------------------------------------ #
    # Protocol surface (same ops and response shapes as the broker)
    # ------------------------------------------------------------------ #

    @property
    def default_analysis(self) -> str:
        return self.hosts[0].default_analysis

    @property
    def next_id(self) -> int:
        return self._next_id

    def admitted_ids(self) -> List[int]:
        return sorted(self.owner)

    def admitted_count(self) -> int:
        return len(self.owner)

    @property
    def degraded(self) -> bool:
        return any(h.degraded for h in self.hosts)

    def _op_hello(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {
            **super()._op_hello(request),
            "shards": len(self.hosts),
            "tenant": self.name,
        }

    def _op_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        service = self.metrics.to_dict()
        # The tenant journals nothing itself; its shards do.
        service["journal"] = journal_total(h.metrics for h in self.hosts)
        return {
            "service": service,
            "shards": [
                {
                    "admitted": h.admitted_count(),
                    "dead": i in self.dead,
                    "degraded": h.degraded,
                    "engine": h.engine_stats(),
                    "journal": h.metrics.journal_dict(),
                }
                for i, h in enumerate(self.hosts)
            ],
            "admitted": len(self.owner),
            "next_id": self._next_id,
            "escalations": self.escalations,
            "migrated_streams": self.migrated_streams,
            "degraded": self.degraded,
        }

    def _op_admit(
        self, request: Dict[str, Any], rid: Optional[str]
    ) -> Dict[str, Any]:
        next_id_before = self._next_id
        try:
            # Build the batch with tenant-level ids, mirroring the
            # engine's fresh-id semantics exactly (ids must match the
            # single-engine reference regardless of placement).
            streams, analysis = parse_admit(
                request, self.topology, self._fresh_id
            )
            ids = [s.stream_id for s in streams]
            dup = [sid for sid in ids if sid in self.owner]
            if dup or len(set(ids)) != len(ids):
                raise StreamError(
                    f"duplicate stream id(s) in admission request: "
                    f"{sorted(set(dup or ids))}"
                )
            top = max(ids)
            if top >= self._next_id:
                self._next_id = top + 1
            specs = [stream_to_spec(s) for s in streams]
            # Placement: which shards hold components the batch touches?
            batch_channels: Set[Channel] = set()
            for spec in specs:
                batch_channels |= self._spec_channels(spec)
            comp = self.index.component(batch_channels)
            shards_touched = sorted({self.owner[sid] for sid in comp})
            if not shards_touched:
                target = self._least_loaded()
            elif len(shards_touched) == 1:
                target = shards_touched[0]
            else:
                target = self._escalation_target(comp)
            self._gate_shards(set(shards_touched) | {target})
            if len(shards_touched) > 1:
                self._migrate(comp, target)
            response = self._forward(target, op_record(
                "admit", rid, streams=specs, analysis=analysis
            ))
        except ReproError:
            # Mirrors the engine's reset on an uncommitted batch: the
            # trial ids were never acknowledged, so a retry of the same
            # request re-evaluates with the same ids — and a batch
            # refused outright (failed links disconnect a pair) holds
            # no id a restart would forget.
            self._reset_next_id(next_id_before)
            raise
        if response.get("duplicate"):
            # The shard had the rid but the fleet table didn't (RID_CAP
            # eviction skew, or an answer lost on its way back). Adopt
            # any committed ids placement doesn't know yet, so the books
            # match what the shard durably holds; otherwise pass the
            # outcome through.
            adopted = [int(i) for i in response.get("ids") or []]
            missing = [sid for sid in adopted if sid not in self.owner]
            if response.get("admitted") and missing:
                for entry in (self.hosts[target]
                              .shard_dump(missing)["streams"]):
                    self._place(target, entry["stream"], entry["analysis"])
                self._next_id = max(self._next_id, max(adopted) + 1)
                self._applied.record(rid, "admit", response)
            else:
                self._reset_next_id(next_id_before)
            return response
        if response["admitted"]:
            for spec in specs:
                self._place(target, spec, response["analysis"])
        else:
            self._reset_next_id(next_id_before)
        # The shard's decision report covers its own streams; the
        # single-engine reference reports bounds for the whole admitted
        # set. Untouched shards' verdicts are unchanged by this op (their
        # closures don't reach the batch), so merging their current
        # bounds reconstructs the reference response exactly.
        bounds = dict(response["bounds"])
        for shard in sorted(set(self.owner.values()) - {target}):
            bounds.update(self.hosts[shard].upper_bounds())
        response["bounds"] = bounds
        return response

    def _op_release(
        self, request: Dict[str, Any], rid: Optional[str]
    ) -> Dict[str, Any]:
        raw = parse_release(request)
        ids = list(dict.fromkeys(raw))
        unknown = sorted(sid for sid in ids if sid not in self.owner)
        if unknown:
            raise StreamError(
                f"cannot release stream id(s) {unknown}: not admitted"
            )
        groups: Dict[int, List[int]] = {}
        for sid in ids:
            groups.setdefault(self.owner[sid], []).append(sid)
        self._gate_shards(set(groups))
        # All-or-nothing across shards: on a mid-sequence journal
        # failure, compensate the shards that already committed by
        # re-admitting what they released (the table still has it), so
        # the client's error means "nothing was released" on every shard.
        done: Dict[int, List[int]] = {}
        for shard in sorted(groups):
            try:
                self._forward(
                    shard, op_record("release", rid, ids=groups[shard])
                )
            except ReproError:
                self._compensate_release(done, rid)
                raise
            done[shard] = groups[shard]
        for sid in ids:
            del self.owner[sid]
            del self.placed[sid]
            self.index.remove(sid)
        return outcome("release", released=raw)

    def _compensate_release(
        self, done: Dict[int, List[int]], rid: Optional[str]
    ) -> None:
        """Re-admit already-released subsets of a failed cross-shard
        release (journaled, like the release was), and drop the rid
        record so a client retry re-applies on every shard."""
        for shard, released in done.items():
            self._readmit(shard, released, "release rollback")
            if rid is not None:
                # The sub-release's rid record would otherwise satisfy a
                # retry without re-applying.
                self.hosts[shard].drop_rid(rid)

    def _op_query(self, request: Dict[str, Any]) -> Dict[str, Any]:
        sid = parse_query(request)
        if sid not in self.owner:
            raise StreamError(f"no admitted stream with id {sid}")
        self._gate_alive([self.owner[sid]])
        return self._forward(self.owner[sid], {"op": "query", "stream": sid})

    # ------------------------------------------------------------------ #
    # Link faults (broadcast reroute-and-readmit)
    # ------------------------------------------------------------------ #

    def _set_failed_links(self, failed) -> None:
        """Point the placement layer at the routing for ``failed``."""
        self.failed_links = set(failed)
        self.routing = self._routing_for(self.failed_links)
        self._route_table = shared_route_table(self.routing)

    def _op_link(
        self, request: Dict[str, Any], rid: Optional[str]
    ) -> Dict[str, Any]:
        """Fail or restore a physical link, tenant-wide.

        Placement first, verdicts second: under the post-swap routing,
        previously independent components can become channel-connected
        (detours overlap), so any component that *would* span shards is
        migrated onto one shard **before** the op is forwarded. The
        migration runs under the old routing, where streams on different
        shards are channel-disjoint, so it cannot change any verdict.
        The op is then broadcast to every shard — each swaps to the same
        fault-aware routing and re-derives its local reroute/evict delta
        — and the merged delta is the client's answer, bit-identical to
        a single engine applying the same swap.
        """
        op = request["op"]
        link, new_failed = parse_link(
            request, self.topology, self.failed_links
        )
        self._gate_shards(range(len(self.hosts)))
        new_table = shared_route_table(self._routing_for(new_failed))
        # Prospective placement over the post-swap channel sets.
        prospective = ChannelIndex()
        for sid in sorted(self.owner):
            try:
                channels = self._spec_channels(self.placed[sid][0], new_table)
            except RoutingError:
                # Disconnected under the new routing: the shard will
                # evict it, so it interacts with nothing.
                channels = frozenset()
            prospective.add(sid, channels)
        for comp in prospective.components():
            shards_touched = sorted({self.owner[sid] for sid in comp})
            if len(shards_touched) > 1:
                self._migrate(comp, self._escalation_target(comp))
        # The table moves only after a complete broadcast, so until then
        # it says what each shard held when the op reached it — which is
        # what compensation re-admits.
        sub = op_record(op, rid, link=[link[0], link[1]])
        deltas: List[Dict[str, Any]] = []
        try:
            for shard in range(len(self.hosts)):
                deltas.append(self._forward(shard, sub))
        except ReproError:
            self._compensate_link(op, link, rid)
            raise
        self._set_failed_links(new_failed)
        merged = merge_outcomes([outcome(op, **d) for d in deltas])
        gone = set(merged["evicted"]) | set(merged["disconnected"])
        for sid in sorted(gone):
            if sid in self.owner:
                del self.owner[sid]
                del self.placed[sid]
        # Every survivor's channel set may have changed: rebuild the
        # placement index wholesale under the new shared route table.
        self.index = ChannelIndex()
        for sid in sorted(self.owner):
            self.index.add(sid, self._spec_channels(self.placed[sid][0]))
        return self._link_response(op, link, merged)

    def _compensate_link(
        self, op: str, link: Tuple[int, int], rid: Optional[str]
    ) -> None:
        """Undo a partially broadcast link op so the client's error means
        "no shard changed".

        Each shard is *probed* for whether it applied the op, and every
        one that did gets the inverse op plus re-admission of whatever
        streams the swap evicted (the table's pre-broadcast placement;
        subsets of the feasible pre-op set). The rid is dropped
        everywhere so a client retry re-applies cleanly.
        """
        inverse = "restore_link" if op == "fail_link" else "fail_link"
        for shard, host in enumerate(self.hosts):
            have = self._shard_links(shard)
            applied = (link in have) if op == "fail_link" else (
                link not in have
            )
            if not applied:
                continue
            self._forward(shard, {"op": inverse, "link": [link[0], link[1]]})
            placed_here = sorted(
                sid for sid, s in self.owner.items() if s == shard
            )
            held = set(self._held_ids(host, placed_here))
            self._readmit(
                shard, [sid for sid in placed_here if sid not in held],
                "link-op rollback",
            )
            if rid is not None:
                host.drop_rid(rid)

    def _op_report(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """The tenant-wide feasibility report, merged across shards.

        Identical to a single engine's ``report`` over the union: each
        stream's verdict is computed against its full closure (the
        component invariant), and ``success`` is the conjunction.
        """
        self._gate_alive(range(len(self.hosts)))
        success = True
        streams: Dict[str, Any] = {}
        total = 0
        for shard in range(len(self.hosts)):
            sub = self._forward(shard, {"op": "report"})
            success = success and sub["report"]["success"]
            streams.update(sub["report"]["streams"])
            total += sub["admitted"]
        report = {
            "success": success,
            "streams": {k: streams[k] for k in sorted(streams, key=int)},
        }
        return {"report": report, "admitted": total}

    def _op_snapshot(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self._gate_alive(range(len(self.hosts)))
        paths = []
        cleared = False
        for shard in range(len(self.hosts)):
            sub = self._forward(shard, {"op": "snapshot"})
            paths.append(sub["path"])
            cleared = cleared or sub.get("degraded_cleared", False)
        response: Dict[str, Any] = {
            "paths": paths, "streams": len(self.owner),
        }
        if cleared:
            response["degraded_cleared"] = True
        return response

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def kill_host(self, shard: int) -> None:
        """Simulate a primary crash: the shard stops serving immediately.

        Nothing is flushed or closed — every committed journal record is
        already fsynced, which is exactly what a real process death
        leaves behind. Ops needing the shard fail until
        :meth:`recover_shard` brings it back.
        """
        self.dead.add(self._shard_index(shard))

    def recover_shard(self, shard: int) -> None:
        """Fail a shard over the way a restart would: close it and open
        it again from its journal, with the tenant's fault plane. A live
        shard stops serving first (planned maintenance); one that cannot
        be recovered stays dead."""
        self._shard_index(shard)
        if self.state_dir is None:
            raise ProtocolError(
                "recovering a shard replays its journal, which needs a "
                "persistent fleet (--state-dir)"
            )
        self.dead.add(shard)
        self.hosts[shard].close()
        self.hosts[shard] = self._open_host(shard)
        self.dead.discard(shard)
        logger.info(
            "tenant %s: shard %d replayed its journal (%d streams)",
            self.name, shard, self.hosts[shard].admitted_count(),
        )

    def _shard_index(self, value: Any) -> int:
        """``value`` if it is an index in ``[0, shards)`` (a JSON
        ``true`` is not one, though ``bool`` subclasses ``int``)."""
        n = len(self.hosts)
        if type(value) is not int or not 0 <= value < n:
            raise ProtocolError(f"'shard' must be an index in [0, {n})")
        return value

    def _op_kill_shard(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.kill_host(request.get("shard"))
        return {"killed": request["shard"]}

    def _op_recover_shard(self, request: Dict[str, Any]) -> Dict[str, Any]:
        shard = request.get("shard")
        self.recover_shard(shard)
        return {
            "recovered": shard, "admitted": self.hosts[shard].admitted_count(),
        }

    def close(self) -> None:
        for host in self.hosts:
            host.close()


class Fleet:
    """All tenants: API-key routing, stats rollup, lifecycle. Each is a
    :class:`TenantFleet` in this process (``tenants``) or, with
    ``workers``, in the worker it was placed on."""

    def __init__(
        self,
        tenants: List[TenantSpec],
        *,
        shards: int = 2,
        state_dir: Optional[Union[str, Path]] = None,
        fault_plane: Optional[FaultPlane] = None,
        workers: int = 0,
    ):
        if not tenants:
            raise ReproError("fleet needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ReproError(f"duplicate tenant names: {sorted(names)}")
        keys = [t.api_key for t in tenants]
        if len(set(keys)) != len(keys):
            raise ReproError("tenant api keys must be unique")
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.shards = shards
        self.names = sorted(names)
        #: The in-process tenants (none with ``workers``).
        self.tenants: Dict[str, TenantFleet] = {}
        self.supervisor = None
        if workers:
            from .workers import WorkerSupervisor

            if self.state_dir is None:
                raise ReproError(
                    "worker processes need a persistent fleet "
                    "(state_dir): journals are how restarts recover"
                )
            if fault_plane is not None:
                raise ReproError(
                    "fault_plane injection cannot cross the process "
                    "boundary; use the worker_kill chaos fault instead"
                )
            self.supervisor = WorkerSupervisor(self.state_dir, workers)
            for t in tenants:
                self.supervisor.assign_tenant(t.name, {
                    "topology": t.topology_spec,
                    "shards": shards,
                    "state_dir": str(self.state_dir / t.name),
                })
            self.supervisor.start()
        else:
            self.tenants = {
                t.name: TenantFleet(
                    t.name,
                    t.topology_spec,
                    shards=shards,
                    state_dir=(
                        None if self.state_dir is None
                        else self.state_dir / t.name
                    ),
                    fault_plane=fault_plane,
                )
                for t in tenants
            }
        self._keys: Dict[str, str] = {t.api_key: t.name for t in tenants}

    def tenant_for_key(self, api_key: Optional[str]) -> Optional[str]:
        if api_key is None:
            return None
        return self._keys.get(api_key)

    def handle_request(
        self, tenant: str, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        if tenant not in self.names:
            return error_response(
                request, f"unknown tenant {tenant!r}", code="auth"
            )
        if self.supervisor is not None:
            return self.supervisor.call(tenant, request)
        return self.tenants[tenant].handle_request(request)

    def stats(self) -> Dict[str, Dict[str, Any]]:
        """Every tenant's ``stats`` answer, by name."""
        return {
            name: self.handle_request(name, {"op": "stats"})
            for name in self.names
        }

    def health(
        self, stats: Dict[str, Dict[str, Any]]
    ) -> Tuple[bool, Dict[str, Any]]:
        """``(all shards up and writable, /healthz tenant rows)`` from the
        ``stats`` answers; a tenant without one has every shard dead."""
        rows: Dict[str, Any] = {}
        for name in sorted(stats):
            answer = stats[name]
            if not answer.get("ok"):
                answer = {"admitted": None, "escalations": None, "shards": [
                    {"dead": True, "degraded": False}] * self.shards}
            shards = answer["shards"]
            rows[name] = {
                "shards": len(shards),
                "admitted": answer["admitted"],
                "dead": [i for i, row in enumerate(shards) if row["dead"]],
                "degraded": [
                    i for i, row in enumerate(shards)
                    if row["degraded"] and not row["dead"]
                ],
                "escalations": answer["escalations"],
            }
        ok = not any(row["dead"] or row["degraded"] for row in rows.values())
        return ok, rows

    def prometheus_text(
        self,
        stats: Dict[str, Dict[str, Any]],
        extra: Optional[Callable[[Any], None]] = None,
    ) -> str:
        """Cross-shard Prometheus rollup, labelled by tenant and shard,
        from the tenants' ``stats`` answers; a tenant that could not
        answer contributes no series."""
        from ..obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        for tname in sorted(stats):
            answer = stats[tname]
            if not answer.get("ok"):
                continue
            reg.counter(
                "repro_fleet_escalations_total",
                "Cross-shard admissions that triggered a component "
                "migration.",
                tenant=tname,
            ).value = float(answer["escalations"])
            reg.counter(
                "repro_fleet_migrated_streams_total",
                "Streams moved between shards by escalations.",
                tenant=tname,
            ).value = float(answer["migrated_streams"])
            reg.gauge(
                "repro_fleet_tenant_streams",
                "Streams currently admitted for the tenant.",
                tenant=tname,
            ).set(answer["admitted"])
            for op, count in sorted(answer["service"]["ops"].items()):
                reg.counter(
                    "repro_fleet_ops_total",
                    "Requests handled by the fleet, by tenant and op.",
                    tenant=tname, op=op,
                ).value = float(count)
            for i, row in enumerate(answer["shards"]):
                shard = str(i)
                reg.gauge(
                    "repro_fleet_shard_streams",
                    "Streams admitted on the shard.",
                    tenant=tname, shard=shard,
                ).set(row["admitted"])
                reg.gauge(
                    "repro_fleet_shard_degraded",
                    "1 while the shard is in read-only degraded mode.",
                    tenant=tname, shard=shard,
                ).set(1.0 if row["degraded"] else 0.0)
                for field in ("ops", "admits", "rejects", "releases"):
                    reg.counter(
                        f"repro_fleet_shard_engine_{field}_total",
                        f"Engine {field} on the shard.",
                        tenant=tname, shard=shard,
                    ).value = float(row["engine"].get(field, 0))
                export_journal(reg, "repro_fleet_shard", row["journal"],
                               tenant=tname, shard=shard)
        if extra is not None:
            extra(reg)
        return reg.render()

    def close(self) -> None:
        for tf in self.tenants.values():
            tf.close()
        if self.supervisor is not None:
            self.supervisor.stop()
