"""Tenants: one engine host each, and the fleet that routes to them.

Every tenant owns a full topology and one
:class:`~repro.service.host.EngineHost` over it — a :class:`TenantHost`,
which adds the tenant's name and the kill / failover drill. A verdict is
decided against the stream's whole HP closure in that one engine, so a
tenant answers every op exactly as a broker holding the same streams
does; ``tests/test_fleet_equivalence.py`` fuzzes that claim across the
in-process and the worker-process fleet.

A :class:`Fleet` routes API keys to tenants. Its tenants live in this
process (``tenants``) or, with ``workers``, each in the supervised
worker it was placed on (:mod:`repro.fleet.workers`), which a blocking
:meth:`Fleet.handle_request` reaches on a link as the gateway does and
whose death takes the tenant down — the crash a restart recovers from
the tenant's journal.

State dirs
----------
A tenant's host persists under ``<state>/<tenant>/``. Earlier versions
split a tenant over several hosts, one per channel-connected component
group, under ``<state>/<tenant>/shard-<i>/``; :func:`fold_shards` turns
such a dir into one host's, once, when the tenant opens.
"""

from __future__ import annotations

import logging
import shutil
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..core.streams import StreamSet
from ..errors import ReproError
from ..faults.plane import FaultPlane
from ..service.host import EngineHost
from ..service.persistence import BrokerState, snapshot_file
from ..service.protocol import (
    ProtocolError,
    RidTable,
    TenantDownError,
    error_response,
    op_record,
)

__all__ = ["Fleet", "TenantHost", "TenantSpec", "fold_shards"]

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


def fold_shards(state_dir: Path, topology_spec: Dict[str, Any]) -> None:
    """Fold a tenant state dir that a sharded fleet wrote
    (``shard-<i>/`` subdirectories) into one host's, once.

    Each shard is recovered as the host it was, and a shard that missed
    the end of a link-op broadcast (which ran in shard order, so shard 0
    is never behind) is first brought to shard 0's failed links under
    the rid shard 0 recorded. The tenant's snapshot then takes the union
    of the shards' streams (with their analyses; a stream a crashed
    migration left on two shards once), the largest ``next_id`` and the
    rid tables, whose shares of one op merge
    (:meth:`~repro.service.protocol.RidTable.merge`). Only then are the
    shard dirs removed: a tenant snapshot present means the fold
    finished, and shard dirs beside it are dropped, so a crash at any
    step restarts into the same state.
    """
    shard_dirs = sorted(state_dir.glob("shard-*"),
                        key=lambda path: int(path.name[len("shard-"):]))
    if not shard_dirs:
        return
    if not snapshot_file(state_dir).exists():
        hosts: List[EngineHost] = []
        try:
            for path in shard_dirs:
                hosts.append(EngineHost(topology_spec, state_dir=path))
            _catch_up_links(hosts)
            streams, analyses, applied = StreamSet(), {}, RidTable()
            for host in hosts:
                for sid in host.admitted_ids():
                    if sid not in streams:
                        streams.add(host.engine.admitted[sid])
                        analyses[sid] = host.engine.analysis_of(sid)
                for rid, share in host._applied.items():
                    applied.merge(rid, share)
            next_id = max([h.next_id for h in hosts]
                          + [sid + 1 for sid in analyses])
            state = BrokerState(state_dir, topology_spec)
            try:
                state.compact(
                    StreamSet(sorted(streams, key=lambda s: s.stream_id)),
                    next_id=next_id, applied_rids=applied,
                    analyses=analyses, failed_links=hosts[0].links_spec(),
                )
            finally:
                state.close()
        finally:
            for host in hosts:
                host.close()
        logger.info("folded %d shard dirs into %s (%d streams)",
                    len(shard_dirs), state_dir, len(analyses))
    for path in shard_dirs:
        shutil.rmtree(path)


def _catch_up_links(hosts: List[EngineHost]) -> None:
    """Bring every shard to shard 0's failed links (see
    :func:`fold_shards`); each re-derives its own reroute/evict delta."""
    lead = {tuple(link) for link in hosts[0].links_spec()}
    for host in hosts[1:]:
        have = {tuple(link) for link in host.links_spec()}
        behind = [("fail_link", link) for link in sorted(lead - have)]
        behind += [("restore_link", link) for link in sorted(have - lead)]
        for op, link in behind:
            rids = [rid for rid, out in hosts[0]._applied.items()
                    if out.get("op") == op and out.get("link") == list(link)]
            # A rid this shard holds names an earlier op on the link.
            torn = rids[-1] if rids and rids[-1] not in host._applied else None
            response = host.handle_request(
                op_record(op, torn, link=list(link))
            )
            if not response["ok"]:  # pragma: no cover - defensive
                raise ReproError(f"cannot fold the shards: {response}")


class TenantHost(EngineHost):
    """One tenant's engine host: it names its tenant, refuses every op
    with ``code: "down"`` once ``kill``\\ ed, and ``failover`` reopens it
    from its journal the way a restart does. ``shutdown`` is the front
    end's op, not a tenant's."""

    span = ("fleet.op", "fleet")
    server_name = "repro-fleet"
    _op_shutdown = None

    def __init__(
        self,
        name: str,
        topology_spec: Dict[str, Any],
        *,
        state_dir: Optional[Union[str, Path]] = None,
        fault_plane: Optional[FaultPlane] = None,
    ):
        if state_dir is not None:
            fold_shards(Path(state_dir), topology_spec)
        self.name = name
        self.span_labels = {"tenant": name}
        self._fault_plane = fault_plane
        super().__init__(
            topology_spec, state_dir=state_dir, fault_plane=fault_plane
        )
        #: Killed and not failed over yet.
        self.dead = False

    @property
    def escalations(self) -> int:
        """Always 0: nothing migrates between hosts any more. Kept only
        because the bench spine's ladder still sums it; retired with
        ROADMAP item 10(a)."""
        return 0

    def _dispatch(
        self, op: str, request: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        if self.dead and op not in ("kill", "failover"):
            raise TenantDownError(
                f"tenant {self.name!r} is down; fail it over (replay its "
                "journal)"
            )
        return super()._dispatch(op, request)

    def _op_hello(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {**super()._op_hello(request), "tenant": self.name}

    def _op_kill(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """A crash of the host: it stops serving at once. Nothing is
        flushed or closed — every committed record is already fsynced,
        which is what a real process death leaves behind."""
        self.dead = True
        return {"killed": self.name}

    def _op_failover(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Close the host and open it again from its journal, with the
        same fault plane; one that cannot be recovered stays dead."""
        if self.state is None:
            raise ProtocolError(
                "failing a tenant over replays its journal, which needs "
                "a persistent fleet (--state-dir)"
            )
        self.dead = True
        self.close()
        # The service counters are the tenant's, not the host's: the
        # reopened host keeps counting them, this op included.
        metrics = self.metrics
        try:
            self.__init__(self.name, self.topology_spec,
                          state_dir=self.state.dir,
                          fault_plane=self._fault_plane)
        finally:
            metrics.journal = self.state
            self.metrics = metrics
        logger.info("tenant %s replayed its journal (%d streams)",
                    self.name, self.admitted_count())
        return {"recovered": self.name, "admitted": self.admitted_count()}


class Fleet:
    """All tenants: API-key routing, their ``stats``, lifecycle. Each is a
    :class:`TenantHost` in this process (``tenants``) or, with
    ``workers``, in the worker it was placed on.

    ``shards`` is accepted and ignored: the bench spine's ladder still
    passes it; retired with ROADMAP item 10(a).
    """

    def __init__(
        self,
        tenants: List[TenantSpec],
        *,
        shards: int = 1,
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
        self.names = sorted(names)
        #: The in-process tenants (none with ``workers``).
        self.tenants: Dict[str, TenantHost] = {}
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
                    "state_dir": str(self.state_dir / t.name),
                })
            self.supervisor.start()
        else:
            try:
                for t in tenants:
                    self.tenants[t.name] = TenantHost(
                        t.name,
                        t.topology_spec,
                        state_dir=(
                            None if self.state_dir is None
                            else self.state_dir / t.name
                        ),
                        fault_plane=fault_plane,
                    )
            except BaseException:   # the tenants opened before it
                self.close()
                raise
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

    @staticmethod
    def health(
        stats: Dict[str, Dict[str, Any]]
    ) -> Tuple[bool, Dict[str, Any]]:
        """``(every tenant up and writable, /healthz tenant rows)`` from
        the ``stats`` answers; a tenant without one is dead."""
        rows = {
            name: {
                "admitted": answer.get("admitted"),
                "dead": not answer.get("ok"),
                "degraded": bool(answer.get("degraded")),
            }
            for name, answer in sorted(stats.items())
        }
        ok = not any(row["dead"] or row["degraded"] for row in rows.values())
        return ok, rows

    def close(self) -> None:
        for host in self.tenants.values():
            host.close()
        if self.supervisor is not None:
            self.supervisor.stop()
