"""The engine host: the one interpreter of the op table.

:class:`EngineHost` is the synchronous core of the service: the broker
(:class:`repro.service.server.BrokerServer`) is one of these with
listeners, and the fleet (:mod:`repro.fleet`) holds one per tenant
behind one gateway. It is the unit of state the rest of the system
composes:

* ``handle_request`` executes one protocol op (the same JSON objects the
  wire carries) against the engine — the request envelope, the rid
  preamble and outcome record of every mutation, ``hello`` / ``links``,
  the failed-links -> routing rule — with metrics, idempotent ``rid``
  deduplication and read-only degradation on journal failures;
* snapshot + journal persistence and restart recovery
  (:mod:`repro.service.persistence`), factored into
  :meth:`load_snapshot` / :meth:`apply_journal_op`. Replay *applies*
  records through the engine's ``adopt`` / ``retire`` and decides
  nothing — the host decided each one before journaling it; verdicts
  are settled by the first reader, and recovery checks the settled
  report before it compacts (see "Settle rule" in
  :mod:`repro.service.engine`). A restart never attaches a stream the
  journal admits and releases again before the next link op
  (:func:`netted_ids`). A restart and a tenant's failover are the same
  recovery;
* :meth:`fingerprint` — the SHA-256 identity over everything recovery
  promises to preserve, shared by the chaos campaign and the
  equivalence tests.

An analysis is selected by registered backend name only — the host's
default and each admit's ``analysis`` — and journaled as that name; the
host passes no bound rule of its own to the engine.
"""

from __future__ import annotations

import logging
import time
from pathlib import Path
from typing import (
    Any, Collection, Dict, Iterable, List, Optional, Set, Tuple, TypeVar,
    Union,
)

from .. import __version__
from ..core import backends as _backends
from ..core.streams import MessageStream
from ..errors import ReproError
from ..faults.plane import FaultPlane
from ..io import report_to_spec, stream_to_spec, topology_from_spec
from ..topology import FaultAwareRouting, RoutingAlgorithm, normalize_link
from .engine import IncrementalAdmissionEngine, RoutingDelta
from .metrics import ServiceMetrics, export_stats
from .persistence import COMPACT_AT, BrokerState, RecoveredState
from .protocol import (
    KNOWN_OPS,
    MUTATING_OPS,
    DegradedError,
    ProtocolError,
    RidTable,
    answer,
    coerce_rid,
    fingerprint,
    op_record,
    outcome,
    parse_admit,
    parse_link,
    parse_query,
    parse_release,
    parse_streams,
)

__all__ = ["DegradedError", "EngineHost"]

_T = TypeVar("_T")

logger = logging.getLogger(__name__)


def netted_ids(ops: List[Dict[str, Any]]) -> List[Set[int]]:
    """Per journal record, the admitted stream ids recovery need never
    attach: those the first later release of the id retires with no
    link op between (a link op settles and decides on the live set, so
    a stream live across one must be attached).

    Per occurrence: a journal may admit an id again once it was
    released, and each round trip pairs on its own. Only plain
    ``int`` ids pair; a record this does not understand pairs nothing
    and fails in :meth:`EngineHost.apply_journal_op`, in order, as it
    always did.
    """
    netted: List[Set[int]] = [set() for _ in ops]
    #: id -> the record that admitted it since the last link op.
    admitted_at: Dict[int, int] = {}
    for pos, op in enumerate(ops):
        name = op.get("op")
        if name == "admit":
            entries = op.get("streams")
            for entry in entries if isinstance(entries, list) else ():
                sid = entry.get("id") if isinstance(entry, dict) else None
                if type(sid) is int:
                    admitted_at[sid] = pos
        elif name == "release":
            ids = op.get("ids")
            for sid in ids if isinstance(ids, list) else ():
                if type(sid) is int and sid in admitted_at:
                    netted[admitted_at.pop(sid)].add(sid)
        else:
            admitted_at.clear()
    return netted


class EngineHost:
    """One admission engine + persistence + protocol dispatch.

    Every op of :data:`~repro.service.protocol.OPS` it serves has an
    ``_op_<name>`` (the others answer "unknown op"); a mutation's takes
    the validated rid too, and both link ops run ``_op_link``.

    Parameters
    ----------
    topology_spec:
        Problem-file topology spec (``{"type": "mesh", "width": 8, ...}``).
    state_dir:
        Directory for snapshot + journal; ``None`` disables persistence.
    analysis:
        Name of the engine-default bound backend; ``None`` reads the
        process default.
    fault_plane:
        Chaos-testing hook (see :mod:`repro.faults.plane`); installed
        into the persistence layer. ``None`` in production use.
    """

    #: Trace span name and category of one request.
    span = ("broker.op", "service")
    #: Labels on that span.
    span_labels: Dict[str, str] = {}
    #: The ``server`` a ``hello`` names.
    server_name = "repro-broker"

    def __init__(
        self,
        topology_spec: Dict[str, Any],
        *,
        state_dir: Optional[Union[str, Path]] = None,
        analysis: Optional[str] = None,
        fault_plane: Optional[FaultPlane] = None,
    ):
        self.topology_spec = dict(topology_spec)
        self.topology, self.routing = topology_from_spec(self.topology_spec)
        #: The intact network's routing; ``self.routing`` tracks the
        #: *effective* routing (fault-aware once links failed).
        self.base_routing = self.routing
        #: Failed physical links, as normalised ``(u, v)`` tuples.
        self.failed_links: Set[Tuple[int, int]] = set()
        self.metrics = ServiceMetrics()
        #: rid -> recorded outcome of the committed mutation (FIFO-capped).
        self._applied = RidTable()
        #: op -> the handler serving it here; an op not in it is unknown.
        self._handlers = {
            op: getattr(self, f"_op_{op}")
            for op in KNOWN_OPS if hasattr(self, f"_op_{op}")
        }
        self.engine = IncrementalAdmissionEngine(self.routing, analysis=analysis)
        #: Read-only degraded mode (journal unwritable); see DegradedError.
        self.degraded = False
        self.degraded_reason: Optional[str] = None
        #: Set by an append that brings the journal to a multiple of
        #: ``COMPACT_AT`` records; :meth:`_committed` compacts.
        self._compact_due = False
        self.state: Optional[BrokerState] = None
        if state_dir is not None:
            self.state = self.metrics.journal = BrokerState(
                state_dir, self.topology_spec, fault_plane=fault_plane
            )
            try:
                self._recover()
            except BaseException:
                self.state.close()
                raise

    # ------------------------------------------------------------------ #
    # The request envelope
    # ------------------------------------------------------------------ #

    def handle_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one protocol request and return the response object."""
        return answer(
            request, self._dispatch, self.metrics, *self.span,
            **self.span_labels,
        )

    def _dispatch(
        self, op: str, request: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        handler = self._handlers.get(op)
        if handler is None or op not in MUTATING_OPS:
            return None if handler is None else handler(request)
        rid = coerce_rid(request)
        # Before any gate: replaying a committed mutation writes nothing,
        # so it stays safe while read-only — and that is exactly when
        # crash-induced retries arrive.
        duplicate = self._applied.replay(rid)
        if duplicate is not None:
            self.metrics.duplicates += 1
            return duplicate
        if self.degraded:
            raise DegradedError(
                f"broker is read-only ({self.degraded_reason}); "
                "retry after a successful 'snapshot' op"
            )
        response = handler(request, rid)
        self._applied.record(rid, op, response)
        self._committed()
        return response

    def _op_hello(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "server": self.server_name,
            "version": __version__,
            "topology": self.topology_spec,
            "nodes": self.topology.num_nodes,
            "analyses": list(_backends.names()),
            "default_analysis": self.default_analysis,
        }

    def _op_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return self._op_hello(request)

    def _op_links(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "failed_links": self.links_spec(),
            "routing": type(self.routing).__name__,
        }

    def links_spec(self) -> List[List[int]]:
        """The failed-link set as sorted ``[u, v]`` pairs (wire form)."""
        return sorted([u, v] for u, v in self.failed_links)

    def _routing_for(self, failed: Set[Tuple[int, int]]) -> RoutingAlgorithm:
        """The routing of the network with ``failed`` links down."""
        if failed:
            return FaultAwareRouting(self.base_routing, sorted(failed))
        return self.base_routing

    def _link_response(
        self, op: str, link: Tuple[int, int], delta: Dict[str, Any]
    ) -> Dict[str, Any]:
        """A link op's answer: what it rerouted and evicted (``delta``)
        and the failed links and admitted count it left."""
        return {
            "op": op,
            "link": [link[0], link[1]],
            **delta,
            "failed_links": self.links_spec(),
            "admitted": self.admitted_count(),
        }

    @staticmethod
    def _by_backend(
        pairs: Iterable[Tuple[_T, Optional[str]]]
    ) -> List[Tuple[Optional[str], List[_T]]]:
        """``(item, backend)`` pairs as ``(backend, items)`` batches:
        how streams vetted under several backends are admitted again
        (by name; ``None``, the engine default, last)."""
        groups: Dict[Optional[str], List[_T]] = {}
        for item, name in pairs:
            groups.setdefault(name, []).append(item)
        order = sorted(groups, key=lambda n: (n is None, n or ""))
        return [(name, groups[name]) for name in order]

    def fingerprint(self) -> Tuple[str, Dict[str, Any]]:
        """``(sha256, spec)`` of everything recovery promises to preserve
        (see :func:`repro.service.protocol.fingerprint`)."""
        return fingerprint(
            self.handle_request, self.admitted_ids(), self.next_id
        )

    # ------------------------------------------------------------------ #
    # Recovery building blocks
    # ------------------------------------------------------------------ #

    def _recover(self) -> None:
        assert self.state is not None
        t0 = time.perf_counter()
        rec = self.state.recover()
        self.load_snapshot(rec)
        skips = netted_ids(rec.ops)
        for op, skip in zip(rec.ops, skips):
            self.apply_journal_op(op, skip)
        # Replay only marked; this is where the recovered set is decided
        # — before compaction may rewrite the disk from a bad state.
        self._check_replayed()
        if rec.snapshot or rec.ops or rec.torn_tail:
            self.compact()
        netted = sum(map(len, skips))
        adopted = len(rec.snapshot or ()) + sum(
            len(op["streams"]) for op in rec.ops if op["op"] == "admit"
        )
        logger.info(
            "recovered %s: %d journal records, %d streams attached, "
            "%d netted, torn tail %s, %.1f ms", self.state.dir,
            len(rec.ops), adopted - netted, netted,
            "dropped" if rec.torn_tail else "none",
            (time.perf_counter() - t0) * 1e3,
        )

    def _check_replayed(self) -> None:
        """Settle, and refuse a replayed state the engine would not have
        admitted: the disk and the engine disagree, which is fatal."""
        report = self.engine.current_report()
        if not report.success:
            raise ReproError(
                "journal replay failed: previously admitted stream(s) "
                f"{list(report.infeasible_ids())} now infeasible"
            )

    def load_snapshot(self, rec: RecoveredState) -> None:
        """Apply what a snapshot file held to an empty engine.

        Recovery's first step, in the one order that is right:
        high-water mark, rid table, failed links, streams.
        """
        if rec.next_id is not None:
            # Restore the fresh-id high-water mark so ids released before
            # the snapshot are never reissued across restarts.
            self.engine.advance_next_id(rec.next_id)
        # The idempotency table survives restarts: snapshot-persisted rids
        # first, then the rids of replayed journal entries, so a client
        # retrying an op whose ack died with the old process still gets
        # the committed outcome instead of a double-apply.
        self._applied.update(rec.applied_rids)
        if rec.failed_links:
            # Degrade the routing *before* the streams replay: the
            # snapshot's admitted set was vetted on the degraded network,
            # so it must re-admit on the same one — and with the engine
            # still empty, the swap reroutes nothing.
            self._swap_routing(
                {normalize_link(u, v) for u, v in rec.failed_links}
            )
        # Streams snapshotted under different bound backends replay as
        # one batch per backend. Order is irrelevant to the final state
        # (the analysis has no admission-order dependence) and every
        # intermediate set is a subset of a feasible set, hence feasible
        # itself.
        for name, entries in self._by_backend(
            (entry, entry.get("analysis")) for entry in rec.snapshot or ()
        ):
            self._adopt_entries(entries, name)

    def apply_journal_op(
        self, op: Dict[str, Any], netted: Collection[int] = ()
    ) -> None:
        """Apply one committed journal record to the engine.

        The record was only ever written after the primary's engine
        accepted it, so replay applies it without deciding again
        (``adopt`` / ``retire`` mark, the next reader settles). Whether
        disk and engine agree is checked where the answer exists: at the
        end of :meth:`_recover` and before a link op,
        whose eviction fixpoint would otherwise drop a stream the
        journal wrongly admitted instead of reporting it.

        ``netted`` is an admit's share of :func:`netted_ids`: stream ids
        validated and recorded but never attached (their release only
        forgets them). Empty, the record replays in full, as a journal
        tailer's must.
        """
        name = op.get("op")
        if name == "admit":
            ids = self._adopt_entries(
                op["streams"], op.get("analysis"), netted
            )
            response = outcome(name, admitted=True, ids=ids)
        elif name == "release":
            ids = [int(i) for i in op["ids"]]
            self.engine.retire(ids)
            response = outcome(name, released=ids)
        elif name in ("fail_link", "restore_link"):
            # Reroute-and-readmit is deterministic, so replay re-derives
            # the same evictions the primary computed and acknowledged
            # (from fresh verdicts: the swap settles first).
            self._check_replayed()
            link = normalize_link(*op["link"])
            if name == "fail_link":
                delta = self._swap_routing(self.failed_links | {link})
            else:
                delta = self._swap_routing(self.failed_links - {link})
            response = self._link_response(name, link, delta.to_spec())
        else:  # pragma: no cover - defensive
            raise ReproError(f"unknown journal op {name!r}")
        self._applied.record(op.get("rid"), name, response)

    def compact(self) -> Path:
        """Write a fresh snapshot and start an empty journal."""
        assert self.state is not None
        return self.state.compact(
            self.engine.admitted,
            next_id=self.engine.next_id,
            applied_rids=self._applied,
            analyses=self._admitted_analyses(),
            failed_links=self.links_spec(),
        )

    def request_shutdown(self) -> None:
        """What the ``shutdown`` op does: nothing for a bare host; a
        server stops its serve loop."""

    def close(self) -> None:
        """Release persistence file handles (idempotent)."""
        if self.state is not None:
            self.state.close()

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def default_analysis(self) -> str:
        return self.engine.default_analysis

    @property
    def next_id(self) -> int:
        return self.engine.next_id

    def admitted_ids(self) -> List[int]:
        return sorted(self.engine.admitted.ids())

    def admitted_count(self) -> int:
        return len(self.engine.admitted)

    def engine_stats(self) -> Dict[str, Any]:
        return {**self.engine.stats.to_dict(), "stale": self.engine.stale}

    def _admitted_analyses(self) -> Dict[int, str]:
        """Per-stream backend names of the admitted set (for snapshots)."""
        return {
            sid: self.engine.analysis_of(sid)
            for sid in self.engine.admitted.ids()
        }

    def _adopt_entries(
        self,
        entries: List[dict],
        analysis: Optional[str],
        netted: Collection[int] = (),
    ) -> List[int]:
        """Replay committed stream entries: applied, not decided."""
        streams = parse_streams(self.topology, entries, self.engine.fresh_id)
        self.engine.adopt(streams, analysis=analysis, netted=netted)
        return [s.stream_id for s in streams]

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def _op_query(self, request: Dict[str, Any]) -> Dict[str, Any]:
        sid = parse_query(request)
        verdict = self.engine.verdict(sid)
        return {
            "stream": stream_to_spec(self.engine.admitted[sid]),
            "upper_bound": verdict.upper_bound,
            "feasible": verdict.feasible,
            "slack": verdict.slack,
            "closure": list(self.engine.closure(sid)),
            "analysis": self.engine.analysis_of(sid),
        }

    def _op_report(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "report": report_to_spec(self.engine.current_report()),
            "admitted": len(self.engine.admitted),
        }

    def _op_snapshot(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self.state is None:
            raise ProtocolError(
                "server runs without persistence (no --state-dir)"
            )
        # Allowed (and essential) in degraded mode: a successful
        # compaction rewrites the snapshot and truncates the journal,
        # re-establishing durable storage.
        try:
            path = self.compact()
        except OSError as exc:
            self.metrics.journal_errors += 1
            self._enter_degraded(f"snapshot compaction failed: {exc}")
            raise DegradedError(
                f"snapshot failed ({exc}); broker stays read-only"
            ) from None
        cleared = self.degraded
        self._clear_degraded()
        response = {
            "path": str(path), "streams": len(self.engine.admitted),
        }
        if cleared:
            response["degraded_cleared"] = True
        return response

    def stats_answer(self) -> Dict[str, Any]:
        """What ``stats`` answers (the Prometheus text renders it)."""
        return {
            "service": self.metrics.to_dict(),
            "engine": self.engine_stats(),
            "admitted": len(self.engine.admitted),
            "next_id": self.engine.next_id,
            "degraded": self.degraded,
        }

    def _op_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        stats = self.stats_answer()
        if request.get("format") == "prometheus":
            return {"prometheus": export_stats({None: stats}).render()}
        return stats

    def prometheus_text(self) -> str:
        """The ``stats`` answer as Prometheus text (``--metrics-port``)."""
        return self._op_stats({"format": "prometheus"})["prometheus"]

    def _op_shutdown(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.request_shutdown()
        return {"stopping": True}

    # ------------------------------------------------------------------ #
    # Mutations: applied, journaled, rolled back on a journal failure
    # ------------------------------------------------------------------ #

    def _journal_commit(self, entry: Dict[str, Any], rollback) -> None:
        """Append a committed mutation; on failure undo it and degrade.

        ``BrokerState.append`` has already repaired the journal (the
        record is guaranteed absent from disk), so after ``rollback()``
        memory and disk agree that the op never happened — the client
        gets a ``degraded`` error, never a silent divergence.
        """
        assert self.state is not None
        try:
            self.state.append(entry)
        except OSError as exc:
            self.metrics.journal_errors += 1
            rollback()
            self._enter_degraded(f"journal append failed: {exc}")
            raise DegradedError(
                f"journal unwritable ({exc}); mutation rolled back, "
                "broker is read-only until a successful snapshot"
            ) from None
        self._compact_due = self.state.records % COMPACT_AT == 0

    def _committed(self) -> None:
        """Compact on size, after the op's rid is recorded so that the
        snapshot carries it (see "Compaction" in
        :mod:`repro.service.persistence`)."""
        if self._compact_due:
            self._compact_due = False
            try:
                self.compact()
            except OSError as exc:
                logger.warning("journal compaction failed: %s", exc)

    def _enter_degraded(self, reason: str) -> None:
        if not self.degraded:
            self.metrics.degraded_entered += 1
            logger.error("entering read-only degraded mode: %s", reason)
        self.degraded = True
        self.degraded_reason = reason

    def _clear_degraded(self) -> None:
        if self.degraded:
            logger.warning(
                "leaving degraded mode after successful snapshot"
            )
        self.degraded = False
        self.degraded_reason = None

    def _op_admit(
        self, request: Dict[str, Any], rid: Optional[str]
    ) -> Dict[str, Any]:
        next_id_before = self.engine.next_id
        try:
            streams, analysis = parse_admit(
                request, self.topology, self.engine.fresh_id
            )
            decision = self.engine.try_admit(streams, analysis=analysis)
        except ReproError:
            # Refused before any verdict (failed links disconnect a
            # pair): the ids drawn live in memory only; held, every
            # later id would differ from a run that restarted since.
            self.engine.reset_next_id(next_id_before)
            raise
        ids = [s.stream_id for s in streams]
        response: Dict[str, Any] = {
            "admitted": decision.admitted,
            "ids": ids,
            "violations": list(decision.violations),
            "bounds": {
                str(sid): v.upper_bound
                for sid, v in decision.report.verdicts.items()
            },
        }
        if decision.admitted:
            response["closures"] = {
                str(sid): list(self.engine.closure(sid)) for sid in ids
            }
            # Resolved name (engine default applied), so replay after a
            # restart does not depend on the environment at restart time.
            response["analysis"] = self.engine.analysis_of(ids[0])
            self.metrics.admitted_ok += 1
            if self.state is not None:
                self._journal_commit(
                    op_record(
                        "admit", rid,
                        streams=[
                            stream_to_spec(self.engine.admitted[sid])
                            for sid in ids
                        ],
                        analysis=response["analysis"],
                    ),
                    lambda: self._rollback_admit(ids, next_id_before),
                )
        else:
            self.metrics.admitted_rejected += 1
            # The trial ids of a rejected batch were never admitted, so
            # releasing them back keeps a retry of the same (lost-ack)
            # request id-stable with its first evaluation.
            self.engine.reset_next_id(next_id_before)
        return response

    def _rollback_admit(self, ids: List[int], next_id_before: int) -> None:
        self.engine.release(ids)
        # The ids were assigned but never committed or acknowledged;
        # reclaiming them keeps the id sequence identical to a run in
        # which the failed admit never happened.
        self.engine.reset_next_id(next_id_before)

    def _op_release(
        self, request: Dict[str, Any], rid: Optional[str]
    ) -> Dict[str, Any]:
        ids = parse_release(request)
        # Captured before the release (stream + the backend it was vetted
        # under) so a journal failure can restore them; unknown ids make
        # engine.release raise before mutating.
        removed = [
            (self.engine.admitted[sid], self.engine.analysis_of(sid))
            for sid in ids if sid in self.engine.admitted
        ]
        self.engine.release(ids)
        if self.state is not None:
            self._journal_commit(
                op_record("release", rid, ids=ids),
                lambda: self._readmit(removed, "rollback"),
            )
        return outcome("release", released=ids)

    def _readmit(
        self, removed: Iterable[Tuple[MessageStream, str]], what: str
    ) -> None:
        """Undo half of a mutation whose journal append failed: re-admit
        the ``(stream, backend)`` pairs it removed, one batch per
        backend."""
        for name, streams in self._by_backend(removed):
            decision = self.engine.try_admit(streams, analysis=name)
            if not decision.admitted:  # pragma: no cover - defensive
                # Re-admitting streams that were feasible a moment ago
                # cannot fail; if it somehow does, crash loudly rather
                # than serve a state that disagrees with the journal.
                raise ReproError(
                    f"{what} re-admission rejected; broker state is "
                    "inconsistent with the journal"
                )

    def _swap_routing(self, new_failed: set) -> RoutingDelta:
        """Point the engine at the routing for ``new_failed`` links."""
        delta = self.engine.apply_routing(self._routing_for(new_failed))
        self.failed_links = set(new_failed)
        self.routing = self.engine.routing
        return delta

    def _op_link(
        self, request: Dict[str, Any], rid: Optional[str]
    ) -> Dict[str, Any]:
        """Fail or restore a link: reroute, and evict what no longer
        fits or connects."""
        op = request["op"]
        link, new_failed = parse_link(
            request, self.topology, self.failed_links
        )
        old_failed = set(self.failed_links)
        delta = self._swap_routing(new_failed)
        if self.state is not None:
            self._journal_commit(
                op_record(op, rid, link=[link[0], link[1]]),
                lambda: self._rollback_link(old_failed, delta),
            )
        return self._link_response(op, link, delta.to_spec())

    _op_fail_link = _op_restore_link = _op_link

    def _rollback_link(self, old_failed: set, delta: RoutingDelta) -> None:
        """Undo a link op whose journal append failed: re-apply the old
        routing and re-admit the evicted streams (grouped per backend).
        Both steps must succeed — the pre-op set was feasible under the
        old routing, and subsets of a feasible set are feasible."""
        self._swap_routing(old_failed)
        self._readmit(delta.evicted_streams, "link-op rollback")
