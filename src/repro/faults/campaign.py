"""Chaos campaign driver: seeded faults vs a fault-free oracle.

A campaign replays one seeded op schedule twice:

1. **Oracle run** — a bare :class:`~repro.service.host.EngineHost` per
   tenant, no persistence, no faults, executes the
   schedule; its end state is fingerprinted.
2. **Chaos run** — the same schedule executes against a persistent
   *deployment* while faults fire (see :mod:`repro.faults.plane`). The
   driver behaves like a correct client: idempotent request ids and
   at-least-once retries, ``snapshot`` to clear degraded mode, a
   failover when a tenant is down.

Afterwards a *fresh*, fault-free deployment recovers from the chaos
run's state dir and the campaign asserts the two invariants the whole
subsystem exists for:

* **Bit-identity** — every tenant's recovered fingerprint (stream specs,
  delay bounds, HP closures, feasibility report, failed links, fresh-id
  high-water mark) equals its oracle's. Deterministic analysis means
  recovery is not "approximately right", it is the same state.
* **Zero acked-then-lost, zero phantoms** — every operation the driver
  saw acknowledged survives every crash, kill and recovery, and
  nothing survives that was never acknowledged (no phantom admissions
  from replayed retries).

The campaign is written once; a deployment is a *target* — how a
request is delivered, which faults are placed before an op, what a
restart is: :class:`_BrokerTarget` (the broker in this process),
:class:`_SocketTarget` (the broker over a real unix socket) and
:class:`_FleetTarget` (``repro chaos --fleet``: a multi-tenant fleet,
optionally with worker processes). A broker
campaign runs the head of its schedule on the first and the tail on the
second; both share one run, one fault plane and one state dir, so the
socket stage starts by recovering the in-process stage's state. Link
slots (``link_rate > 0``) fail and restore topology links on every
target alike; oracle and chaos run resolve the same pre-drawn slots
against their own per-tenant :class:`LinkState`.

Determinism: the schedule, the fault plane and the fault-placement
draws use independent ``random.Random`` streams derived from the
campaign seed, so backoff jitter (wall-clock only) cannot shift which
op gets which fault. Replaying a seed replays the campaign, faults and
kills included. (Worker campaigns pin *which* op a SIGKILL lands on;
where inside the kernel's scheduling the process actually dies is real
nondeterminism — that is the point — but the acked-ops invariants hold
on every interleaving.)
"""

from __future__ import annotations

import random
import tempfile
import threading
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, fields
from functools import partial
from itertools import zip_longest
from pathlib import Path
from typing import Any, ClassVar, Dict, List, Optional, Set, Tuple, Union

from ..errors import ReproError
from ..fleet.shards import Fleet, TenantSpec
from ..io import topology_from_spec
from ..service.host import EngineHost
from ..service.loadgen import BrokerClient, churn_spec
from ..service.protocol import encode, fingerprint
from ..service.server import BrokerServer
from ..topology import links
from .plane import (
    PERSISTENCE_FAULTS,
    PROTOCOL_FAULTS,
    SITE_JOURNAL_APPEND,
    FaultPlane,
    FaultSpec,
    InjectedCrash,
)

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "FleetChaosConfig",
    "LinkState",
    "ScheduledOp",
    "apply_outcome",
    "build_request",
    "generate_schedule",
    "run_chaos_campaign",
    "run_oracle",
]

#: Retry ceiling per op. Each armed fault is one-shot, so two attempts
#: normally converge; the slack covers a degraded round-trip (snapshot +
#: retry) stacked on a crash, a failover and a worker restart.
_MAX_ATTEMPTS = 32

_LINK_FAULT = {"fail_link": "link_fail", "restore_link": "link_restore"}

Tenant = Optional[str]     # a tenant's name; the broker's only one is None


# ---------------------------------------------------------------------- #
# Configuration
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class _CampaignConfig:
    """What every campaign needs, derivable from one seed."""

    seed: int = 0
    ops: int = 150
    width: int = 6
    height: int = 6
    target_live: int = 12
    priority_levels: int = 15
    #: Probability an in-process op arms a random journal fault.
    persistence_rate: float = 0.30
    #: Probability a schedule slot is a link fail/restore event instead
    #: of admit/release churn (0 reproduces pre-link schedules exactly).
    link_rate: float = 0.0
    #: Client retry backoff (kept tiny: the "server" is on localhost).
    backoff_base: float = 0.005
    backoff_cap: float = 0.1

    #: Tenants sharing the timeline; 0 is the broker (one, unnamed).
    tenants: ClassVar[int] = 0

    def topology_spec(self) -> Dict[str, Any]:
        return {"type": "mesh", "width": self.width, "height": self.height}

    @property
    def nodes(self) -> int:
        return self.width * self.height

    def link_pool(self) -> List[Tuple[int, int]]:
        """Every undirected mesh link as a sorted ``(u, v)`` pair."""
        return links(topology_from_spec(self.topology_spec())[0])

    def tenant_names(self) -> List[Tenant]:
        return [f"tenant-{i}" for i in range(self.tenants)] or [None]


@dataclass(frozen=True)
class ChaosConfig(_CampaignConfig):
    """A campaign against the single broker, in process then by socket."""

    #: Probability a socket op executes a random protocol fault.
    protocol_rate: float = 0.45
    #: Probability an in-process op is preceded by a cache storm.
    engine_rate: float = 0.18
    #: Probability a socket op is preceded by a server restart.
    restart_rate: float = 0.06
    #: Fraction of the schedule executed over the real socket.
    socket_fraction: float = 0.4


@dataclass(frozen=True)
class FleetChaosConfig(_CampaignConfig):
    """A campaign against a multi-tenant fleet."""

    ops: int = 200
    target_live: int = 10
    #: Armed on the shared plane: whichever tenant appends next trips
    #: it. Ignored in worker mode — injection cannot cross the process
    #: boundary.
    persistence_rate: float = 0.20
    tenants: int = 3
    #: Probability an op is preceded by a tenant kill (if none pending).
    kill_rate: float = 0.04
    #: Worker processes to run (0 = in-process tenants, the default).
    workers: int = 0
    #: Probability an op is preceded by a real SIGKILL of a worker
    #: process (worker mode only). Half land between ops, half are
    #: armed to fire mid-RPC on the op itself.
    worker_kill_rate: float = 0.0

    def tenant_specs(self) -> List[TenantSpec]:
        return [
            TenantSpec(name, f"key-{self.seed}-{i}", self.topology_spec())
            for i, name in enumerate(self.tenant_names())
        ]


# ---------------------------------------------------------------------- #
# Schedule
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ScheduledOp:
    """One pre-drawn schedule slot.

    All randomness is materialised at generation time (``bias`` picks
    admit vs release, ``pick`` selects the released stream, ``spec`` is
    the candidate stream), so the oracle and the chaos run derive the
    *same* request from the same live-id list — no RNG is consumed
    during execution, where retries would desynchronise it.
    """

    index: int
    rid: str
    bias: float
    pick: float
    spec: Dict[str, int]
    #: When true the slot is a link fail/restore event; ``bias`` then
    #: flips fail-vs-restore and ``pick`` selects the link.
    link_op: bool = False
    #: The tenant the slot belongs to (fleet schedules).
    tenant: Tenant = None


class LinkState:
    """Mutable up/down link bookkeeping shared by a run's op builder.

    Both campaign runs (oracle and chaos) hold their own copy per
    tenant, and both resolve the same pre-drawn slot randomness against
    it, so they issue the same link events in the same order.
    """

    def __init__(self, pool: List[Tuple[int, int]]):
        self.up: List[Tuple[int, int]] = sorted(
            tuple(sorted(l)) for l in pool
        )
        self.down: List[Tuple[int, int]] = []

    def apply(self, op: str, link: Tuple[int, int]) -> None:
        link = tuple(sorted(link))
        if op == "fail_link":
            self.up.remove(link)
            self.down.append(link)
        else:
            self.down.remove(link)
            self.up.append(link)
            self.up.sort()


def generate_schedule(cfg: _CampaignConfig) -> List[ScheduledOp]:
    """Materialise the campaign's op schedule from ``cfg.seed``.

    Fleet tenants interleave on one timeline — that is what makes
    kills land between *other* tenants' ops — but each
    tenant's subsequence is a plain churn schedule its oracle can replay
    alone. With ``cfg.link_rate == 0`` no extra randomness is consumed,
    so schedules are bit-identical to pre-link versions of this module.
    """
    rng = random.Random(cfg.seed)
    names = cfg.tenant_names()
    schedule = []
    for i in range(cfg.ops):
        tenant = names[rng.randrange(len(names))] if cfg.tenants else None
        link_op = cfg.link_rate > 0 and rng.random() < cfg.link_rate
        schedule.append(ScheduledOp(
            index=i,
            rid=f"{'f' if cfg.tenants else 'c'}{cfg.seed}-{i}",
            bias=rng.random(),
            pick=rng.random(),
            spec=churn_spec(rng, cfg.nodes,
                            priority_levels=cfg.priority_levels),
            link_op=link_op,
            tenant=tenant,
        ))
    return schedule


def build_request(
    entry: ScheduledOp,
    live: List[int],
    *,
    target_live: int,
    links: Optional[LinkState] = None,
) -> Dict[str, Any]:
    """The protocol request this slot performs given the live-id list.

    Same churn policy as :func:`repro.service.loadgen.run_load`: below
    ``target_live`` mostly admit, above it mostly release. Link slots
    (``entry.link_op`` with a :class:`LinkState`) fail a live link when
    few are down and restore one when three are, reusing the slot's
    pre-drawn ``bias``/``pick`` floats so no RNG runs at execution time.
    """
    if entry.link_op and links is not None and (links.up or links.down):
        if not links.down:
            fail = True
        elif len(links.down) >= 3 or not links.up:
            fail = False
        else:
            fail = entry.bias < 0.5
        pool = links.up if fail else links.down
        link = pool[int(entry.pick * len(pool)) % len(pool)]
        op = "fail_link" if fail else "restore_link"
        return {"op": op, "rid": entry.rid, "link": list(link)}
    admit = (len(live) < target_live
             if entry.bias < 0.8 else len(live) >= target_live)
    if admit or not live:
        return {"op": "admit", "rid": entry.rid, "streams": [entry.spec]}
    sid = live[int(entry.pick * len(live)) % len(live)]
    return {"op": "release", "rid": entry.rid, "ids": [sid]}


def apply_outcome(
    request: Dict[str, Any],
    response: Dict[str, Any],
    live: List[int],
    outcomes: List[Dict[str, Any]],
    links: Optional[LinkState] = None,
) -> None:
    """Fold one answered op into the live list and the acked log.

    A refusal (``ok: false`` that no retry can change, e.g. an admit
    whose pair the failed links disconnect) is an answer too: it changes
    nothing and is logged, so a target and its oracle refusing
    differently shows up as an outcome mismatch.
    """
    if not response.get("ok"):
        outcomes.append(
            {"op": request["op"], "refused": response.get("error")}
        )
    elif request["op"] == "admit":
        admitted = bool(response.get("admitted"))
        ids = [int(i) for i in response.get("ids", [])] if admitted else []
        live.extend(ids)
        outcomes.append({"op": "admit", "admitted": admitted, "ids": ids})
    elif request["op"] == "release":
        ids = [int(i) for i in request["ids"]]
        for sid in ids:
            live.remove(sid)
        outcomes.append({"op": "release", "ids": ids})
    else:  # fail_link / restore_link
        link = tuple(int(n) for n in request["link"])
        gone = sorted(
            {int(i) for i in response.get("evicted", [])}
            | {int(i) for i in response.get("disconnected", [])}
        )
        for sid in gone:
            live.remove(sid)
        if links is not None:
            links.apply(request["op"], link)
        outcomes.append({
            "op": request["op"], "link": list(link), "evicted": gone,
        })


class _Run:
    """One execution's books, per tenant — live ids, link state, acked
    outcomes — plus the chaos run's event counters."""

    def __init__(self, cfg: _CampaignConfig):
        self.cfg = cfg
        names = cfg.tenant_names()
        pool = cfg.link_pool() if cfg.link_rate > 0 else None
        self.live: Dict[Tenant, List[int]] = {t: [] for t in names}
        self.outcomes: Dict[Tenant, List[dict]] = {t: [] for t in names}
        self.links = {
            t: None if pool is None else LinkState(pool) for t in names
        }
        self.counts: Counter = Counter()

    def step(self, entry: ScheduledOp, answer) -> Tuple[dict, dict]:
        """Resolve the slot into a request, have ``answer`` answer it,
        book the outcome."""
        live, links = self.live[entry.tenant], self.links[entry.tenant]
        request = build_request(
            entry, live, target_live=self.cfg.target_live, links=links
        )
        response = answer(request)
        apply_outcome(
            request, response, live, self.outcomes[entry.tenant], links
        )
        return request, response


# ---------------------------------------------------------------------- #
# Oracle
# ---------------------------------------------------------------------- #


def run_oracle(
    cfg: _CampaignConfig, schedule: List[ScheduledOp]
) -> Tuple[Dict[Tenant, str], Dict[Tenant, List[Dict[str, Any]]]]:
    """Execute the schedule fault-free; return ``(shas, acked logs)``,
    both keyed by tenant (the broker's one is ``None``).

    One :class:`EngineHost` (no persistence) replays each tenant's
    subsequence; its fingerprint is the bar the crashed, failed-over
    deployment must clear bit-for-bit.
    """
    hosts = {t: EngineHost(cfg.topology_spec()) for t in cfg.tenant_names()}
    run = _Run(cfg)
    for entry in schedule:
        run.step(entry, hosts[entry.tenant].handle_request)
    return {t: h.fingerprint()[0] for t, h in hosts.items()}, run.outcomes


# ---------------------------------------------------------------------- #
# The converge loop
# ---------------------------------------------------------------------- #


def _converge(
    target: "_Target", entry: ScheduledOp, request: Dict[str, Any],
    run: _Run,
) -> Dict[str, Any]:
    """Issue one op until the deployment gives its final answer.

    Every attempt carries the same rid. The answer is an ``ok`` response
    or a refusal no retry can change; everything in between is a fault
    the driver, acting as a correct client and supervisor, rides out.
    """
    cfg, counts, tenant = run.cfg, run.counts, entry.tenant
    for attempt in range(_MAX_ATTEMPTS):
        try:
            response = target.send(tenant, request)
        except InjectedCrash:
            # A crash anywhere is the whole process dying: drop every
            # in-memory object and recover the deployment from disk.
            counts["restarts"] += 1
            target.rebuild()
            continue
        if response.get("ok"):
            return response
        code = response.get("code")
        if code == "worker":
            # The tenant's worker died mid-op and is being restarted
            # with journal recovery; re-issue the same rid — the
            # idempotency table answers for whatever the dead worker
            # committed. Back off between retries: a hot loop starves
            # the dying child of the CPU it needs to finish exiting.
            counts["worker_retries"] += 1
            time.sleep(min(
                cfg.backoff_cap, cfg.backoff_base * (2 ** min(attempt, 8))
            ))
        elif code == "degraded":
            # A disk fault left the journal read-only; clear it with a
            # ``snapshot`` op, exactly as a supervising client would.
            counts["degraded_recoveries"] += 1
            target.recover(tenant)
            snap = target.send(tenant, {"op": "snapshot"})
            if not snap.get("ok"):  # pragma: no cover - one-shot faults
                raise ReproError(
                    f"snapshot failed to clear degraded: {snap}"
                )
        elif code == "down":
            # The tenant is down: this is the recovery moment, with the
            # rest of the fleet's traffic already committed around it.
            counts["ops_while_dead"] += 1
            target.recover(tenant)
        else:
            return response
    raise ReproError(  # pragma: no cover - defensive
        f"chaos op {entry.index} did not converge in "
        f"{_MAX_ATTEMPTS} attempts"
    )


def _arm_journal_fault(
    plane: FaultPlane, rng: random.Random, rate: float
) -> None:
    """With probability ``rate``, arm one random persistence fault for
    the next journal append."""
    if rng.random() < rate:
        kind = PERSISTENCE_FAULTS[rng.randrange(len(PERSISTENCE_FAULTS))]
        plane.arm(SITE_JOURNAL_APPEND, FaultSpec(kind))


# ---------------------------------------------------------------------- #
# Targets
# ---------------------------------------------------------------------- #


@dataclass
class _Target:
    """A deployment under test: ``open`` / ``close`` it on the state
    dir, ``place_faults`` before an op, ``send`` a request, and say what
    a fresh fault-free recovery of its disk holds (``recovered``).

    What a target draws from ``rng`` (the campaign's fault-placement
    stream), and in which order, is part of the seed's meaning.
    """

    cfg: Any
    state_dir: Path
    plane: FaultPlane
    rng: random.Random
    counts: Counter

    def __post_init__(self) -> None:
        self.open()

    def rebuild(self) -> None:
        """The restart after a simulated process death."""
        self.close()
        self.open()

    def recover(self, tenant: Tenant = None) -> None:
        """Fail dead tenants over (no-op without any)."""

    def finish(self) -> Optional[Dict[Tenant, str]]:
        """Quiesce; the survivor's fingerprints, if judged like the disk's."""


class _BrokerTarget(_Target):
    """The broker in this process: persistence + engine faults.

    Persistence faults are armed at the journal-append site before the
    op; :class:`InjectedCrash` is the simulated kill — the server object
    is dropped and a new one recovers from the state dir, then the op is
    retried under the same rid.
    """

    def open(self) -> None:
        self.server = BrokerServer(
            self.cfg.topology_spec(), state_dir=self.state_dir,
            fault_plane=self.plane,
        )

    def close(self) -> None:
        self.server.state.close()

    def place_faults(self, entry: ScheduledOp) -> None:
        if self.rng.random() < self.cfg.engine_rate:
            self.server.engine.invalidate_caches()
            self.plane.record("cache_storm")
        _arm_journal_fault(self.plane, self.rng, self.cfg.persistence_rate)

    def send(self, tenant: Tenant, request: Dict[str, Any]) -> Dict[str, Any]:
        return self.server.handle_request(request)

    @staticmethod
    def recovered(cfg: Any, state_dir: Path) -> Dict[Tenant, tuple]:
        """What a fresh, fault-free broker recovers from ``state_dir``."""
        final = BrokerServer(cfg.topology_spec(), state_dir=state_dir)
        try:
            return {None: final.fingerprint()}
        finally:
            final.state.close()


def _half_open_probe(socket_path: Path) -> None:
    """Pipeline two requests, half-close the write side, demand both
    responses (then EOF) — the server must flush before closing."""
    with BrokerClient(socket_path=socket_path, timeout=10) as conn:
        conn.send("ping")
        conn.send("report")
        conn.half_close()
        try:
            answers = [conn.recv(), conn.recv()]
        except ReproError as exc:
            raise ReproError(
                f"half-open pipeline lost a queued response: {exc}"
            ) from None
        if not all(response.get("ok") for response in answers):
            raise ReproError(f"half-open response mismatch: {answers}")
        conn.send_bytes(b"")    # one more read, which must find EOF
        try:
            conn.recv()
        except ReproError:
            return
        raise ReproError(  # pragma: no cover - defensive
            "half-open connection served extra data"
        )


def _slow_request(
    client: BrokerClient, request: Dict[str, Any]
) -> Dict[str, Any]:
    """Dribble one request over three writes; read the one response."""
    payload = encode(request)
    third = max(1, len(payload) // 3)
    client.send_bytes(b"")      # the pieces are owed one response
    for piece in (payload[:third], payload[third:2 * third],
                  payload[2 * third:]):
        if piece:
            client.send_bytes(piece, responses=0)
            client.flush()
            time.sleep(0.002)
    return client.recv()


class _SocketTarget(_BrokerTarget):
    """The broker over a real unix socket served from a background
    thread: each op runs under at most one protocol fault, then retries
    under its rid until the wire lets an answer through; a restart is a
    clean shutdown and a new thread recovering from the state dir."""

    def open(self) -> None:
        self.socket_path = self.state_dir / "broker.sock"
        self.backoff_rng = random.Random(self.cfg.seed + 3)  # jitter only
        self.server = BrokerServer(self.cfg.topology_spec(),
                                   state_dir=self.state_dir)
        self.server.bind_unix(self.socket_path)
        self.thread = threading.Thread(target=self.server.run,
                                       name="chaos-broker")
        self.thread.start()
        self.client = BrokerClient(socket_path=self.socket_path, timeout=10)

    def close(self) -> None:
        self.client.close()
        self.server.request_shutdown()
        self.thread.join()

    def place_faults(self, entry: ScheduledOp) -> None:
        if self.rng.random() < self.cfg.restart_rate:
            self.counts["restarts"] += 1
            self.rebuild()
        self.fault = None
        if self.rng.random() < self.cfg.protocol_rate:
            self.fault = PROTOCOL_FAULTS[
                self.rng.randrange(len(PROTOCOL_FAULTS))
            ]

    def send(self, tenant: Tenant, request: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one op over the socket, under the placed fault."""
        client, cfg = self.client, self.cfg
        fault, self.fault = self.fault, None
        if fault is not None:
            self.plane.record(fault)
        if fault == "slow_client":
            return _slow_request(client, request)
        if fault == "drop_before_send":
            client.close()
        elif fault == "drop_after_send":
            try:
                client.send_bytes(encode(request), responses=0)
                client.flush()
            except OSError:  # pragma: no cover - race with peer
                pass
            client.close()
        elif fault == "garbage_bytes":
            client.send_bytes(b"\xff\x00 this is not json {]\n")
            client.flush()
            if client.recv().get("ok"):  # pragma: no cover - defensive
                raise ReproError("garbage line was accepted by the broker")
        elif fault == "half_open":
            _half_open_probe(self.socket_path)
        kwargs = {k: v for k, v in request.items() if k != "op"}
        kwargs.setdefault("rid", None)
        return client.request_with_retry(
            request["op"],
            backoff_base=cfg.backoff_base,
            backoff_cap=cfg.backoff_cap,
            rng=self.backoff_rng,
            **kwargs,
        )


class _FleetTarget(_Target):
    """A multi-tenant fleet.

    The fault vocabulary is the fleet's deployment reality:

    * **Journal faults**, armed on the shared plane — an
      :class:`InjectedCrash` escaping a tenant is indistinguishable from
      the whole process dying, so the entire :class:`Fleet` is rebuilt
      from its state directory.
    * **Tenant kills** — a tenant's host stops serving between ops (a
      crash point *within* an op is the journal faults' job). With
      probability ½ the driver fails it over immediately; otherwise it
      keeps issuing ops — other tenants' proceed, the first of the dead
      tenant's forces the failover — so recovery happens with real
      traffic in flight around it. Kill and failover are the tenant's
      ``kill`` / ``failover`` ops: the host replays its journal as after
      a restart, with the fault plane still armed on it. The campaign
      remembers what it killed until a rebuild or a worker restart
      revives it.
    * **Worker kills** (``workers > 0``) — a *real* ``SIGKILL`` of a
      live worker process, either between ops or armed to fire
      mid-RPC (after the request bytes left the parent, before the ack
      returns — the fate-unknown window). The worker takes its tenants
      down; the supervisor restarts it with journal recovery and the
      campaign retries the op under the same rid; idempotent replay
      must return the committed outcome. Injected journal faults are a
      single-process trick and cannot cross the process boundary, so
      worker campaigns trade ``persistence_rate`` for
      ``worker_kill_rate``.
    """

    def open(self) -> None:
        """(Re)build the fleet from disk."""
        cfg = self.cfg
        #: (tenant, pid of the process that killed it) for each tenant
        #: this campaign killed and has not failed over.
        self.killed: Set[Tuple[Tenant, Optional[int]]] = set()
        self.fleet = Fleet(
            cfg.tenant_specs(),
            state_dir=self.state_dir,
            fault_plane=None if cfg.workers else self.plane,
            workers=cfg.workers,
        )

    def close(self) -> None:
        self.fleet.close()

    def place_faults(self, entry: ScheduledOp) -> None:
        cfg, rng = self.cfg, self.rng
        supervisor = self.fleet.supervisor
        # A tenant kill lands between ops (a clean journal boundary;
        # intra-op crash points belong to the journal faults). Half the
        # time the failover is immediate; the other half traffic keeps
        # flowing and the dead tenant's next op forces it. A worker
        # restart revived the tenants it had killed.
        self.killed = {k for k in self.killed if self._pid(k[0]) == k[1]}
        if not self.killed and rng.random() < cfg.kill_rate:
            self._ask(entry.tenant, {"op": "kill"})
            self.killed.add((entry.tenant, self._pid(entry.tenant)))
            self.counts["kills"] += 1
            if rng.random() < 0.5:
                self.recover()
        if supervisor is not None and rng.random() < cfg.worker_kill_rate:
            self.counts["worker_kills"] += 1
            if rng.random() < 0.5:
                # Between ops: the next request to land on this worker
                # finds a corpse and rides the restart.
                supervisor.kill_worker(
                    rng.randrange(len(supervisor.workers))
                )
            else:
                # Mid-RPC: SIGKILL fires after this op's bytes reach
                # the worker, before any ack — the fate-unknown window
                # rid idempotency exists for.
                supervisor.arm_inflight_kill()
        if not cfg.workers:
            _arm_journal_fault(self.plane, rng, cfg.persistence_rate)

    def send(self, tenant: Tenant, request: Dict[str, Any]) -> Dict[str, Any]:
        return self.fleet.handle_request(tenant, request)

    def _pid(self, tenant: Tenant) -> Optional[int]:
        sup = self.fleet.supervisor
        return None if sup is None else sup.worker_for(tenant).pid

    def _ask(self, tenant: Tenant, request: Dict[str, Any]) -> Dict[str, Any]:
        """An op of the campaign's own: once more if it found its worker
        dead (the failed call respawned it)."""
        response = self.fleet.handle_request(tenant, request)
        if response.get("code") == "worker":
            response = self.fleet.handle_request(tenant, request)
        if not response.get("ok"):  # pragma: no cover - defensive
            raise ReproError(f"chaos campaign's {request} failed: {response}")
        return response

    def recover(self, tenant: Tenant = None) -> None:
        """Fail over every tenant this campaign killed (given a
        ``tenant``: only if it is one of them)."""
        if tenant is not None and not any(
            t == tenant for t, _ in self.killed
        ):
            return
        for tname, _ in sorted(self.killed):
            self._ask(tname, {"op": "failover"})
            self.counts["recoveries"] += 1
        self.killed.clear()

    def finish(self) -> Optional[Dict[Tenant, str]]:
        supervisor = self.fleet.supervisor
        if supervisor is not None:
            # Quiesce: drop any unconsumed mid-RPC kill and bring every
            # worker back to serving — the last op's SIGKILL may still
            # be tearing a worker down.
            supervisor.disarm_inflight_kill()
            supervisor.ensure_all()
        # Leave no tenant dead: fail stragglers over so the final fleet
        # (and the fresh recovery after it) is fully serving.
        self.recover()
        live = {}
        for tenant in self.cfg.tenant_names():
            ask = partial(self._ask, tenant)
            ids = sorted(map(int, ask({"op": "report"})["report"]["streams"]))
            live[tenant] = fingerprint(
                ask, ids, ask({"op": "stats"})["next_id"]
            )[0]
        if supervisor is not None:
            self.counts["worker_restarts"] = sum(
                wp.restarts for wp in supervisor.workers
            )
        return live

    @staticmethod
    def recovered(cfg: Any, state_dir: Path) -> Dict[Tenant, tuple]:
        """What a fresh, fault-free fleet recovers from ``state_dir``."""
        final = Fleet(cfg.tenant_specs(), state_dir=state_dir)
        try:
            return {t: tf.fingerprint() for t, tf in final.tenants.items()}
        finally:
            final.close()


# ---------------------------------------------------------------------- #
# Report + campaign
# ---------------------------------------------------------------------- #

_BROKER_KEYS = (
    "seed", "ops", "committed", "faults", "restarts", "degraded_recoveries",
    "duplicate_acks", "outcome_mismatches", "oracle_sha", "recovered_sha",
    "bit_identical", "acked_then_lost", "phantom_ids", "live_at_end",
    "seconds", "ok",
)
_FLEET_KEYS = (
    "seed", "ops", "tenants", "committed", "faults",
    "fleet_restarts", "kills", "recoveries", "ops_while_dead",
    "degraded_recoveries", "duplicate_acks", "workers", "worker_kills",
    "worker_retries", "worker_restarts", "outcome_mismatches", "oracle_shas",
    "live_shas", "recovered_shas", "bit_identical", "acked_then_lost",
    "phantom_ids", "seconds", "ok",
)


@dataclass
class ChaosReport:
    """Outcome of one campaign (``repro chaos`` prints it as JSON),
    kept per tenant; a broker campaign (``tenants == 0``) prints its one
    tenant's values flat, under the keys it always had."""

    # Echoes of the config (0 where the broker's has no such field).
    seed: int
    ops: int
    tenants: int
    workers: int
    # The fault plane's account.
    faults_total: int
    faults_by_layer: Dict[str, Dict[str, int]]
    layers_covered: int
    # Event counters of the chaos run.
    restarts: int
    kills: int
    recoveries: int
    ops_while_dead: int
    degraded_recoveries: int
    duplicate_acks: int
    worker_kills: int
    worker_retries: int
    worker_restarts: int
    # The verdict.
    committed: int
    live_at_end: int
    outcome_mismatches: int
    oracle_shas: Dict[Tenant, str]
    #: The surviving deployment's fingerprints; ``None`` where only the
    #: disk is judged (the broker).
    live_shas: Optional[Dict[Tenant, str]]
    recovered_shas: Dict[Tenant, str]
    #: Acked ids a fresh recovery lacks / unacked ids it holds, for the
    #: tenants that have any.
    lost: Dict[Tenant, List[int]]
    phantoms: Dict[Tenant, List[int]]
    seconds: float

    @property
    def bit_identical(self) -> bool:
        """A fresh disk recovery — and the surviving deployment, where
        it was fingerprinted — matches every tenant's oracle."""
        return (
            self.recovered_shas == self.oracle_shas
            and self.live_shas in (None, self.oracle_shas)
        )

    @property
    def ok(self) -> bool:
        """Did the chaos run preserve every invariant it must?"""
        return (
            self.bit_identical
            and not self.lost
            and not self.phantoms
            and self.outcome_mismatches == 0
        )

    @property
    def faults(self) -> Dict[str, Any]:
        faults = {"total": self.faults_total,
                  "layers_covered": self.layers_covered,
                  "by_layer": self.faults_by_layer}
        if self.tenants:
            del faults["layers_covered"]    # the fleet shape never had it
        return faults

    @property
    def fleet_restarts(self) -> int:
        return self.restarts

    @property
    def oracle_sha(self) -> str:
        return self.oracle_shas[None]

    @property
    def recovered_sha(self) -> str:
        return self.recovered_shas[None]

    @property
    def acked_then_lost(self) -> Union[List[int], Dict[str, List[int]]]:
        return self.lost if self.tenants else self.lost.get(None, [])

    @property
    def phantom_ids(self) -> Union[List[int], Dict[str, List[int]]]:
        return self.phantoms if self.tenants else self.phantoms.get(None, [])

    def to_dict(self) -> Dict[str, Any]:
        keys = _FLEET_KEYS if self.tenants else _BROKER_KEYS
        return {key: getattr(self, key) for key in keys}

    def summary(self) -> str:
        if self.tenants:
            pool, sigkills = (
                f" x {self.workers} workers",
                f", {self.worker_kills} worker SIGKILLs -> "
                f"{self.worker_restarts} restarts "
                f"({self.worker_retries} retried ops)",
            ) if self.workers else ("", "")
            events = (
                f"fleet chaos seed={self.seed}: {self.ops} ops over "
                f"{self.tenants} tenants{pool}, {self.faults_total} "
                f"faults, "
                f"{self.restarts} fleet restarts, {self.kills} kills -> "
                f"{self.recoveries} recoveries ({self.ops_while_dead} ops "
                f"hit a dead tenant){sigkills}"
            )
        else:
            events = (
                f"chaos seed={self.seed}: {self.ops} ops, "
                f"{self.faults_total} faults over {self.layers_covered} "
                f"layers, {self.restarts} restarts, "
                f"{self.degraded_recoveries} degraded recoveries"
            )
        return (
            f"{events}, {self.duplicate_acks} duplicate acks -> recovery "
            f"{'bit-identical' if self.bit_identical else 'DIVERGED'}, "
            f"{sum(map(len, self.lost.values()))} acked-then-lost "
            f"[{'OK' if self.ok else 'FAILED'}] ({self.seconds:.1f}s)"
        )


def run_chaos_campaign(
    cfg: Union[ChaosConfig, FleetChaosConfig],
    state_dir: Optional[Union[str, Path]] = None,
) -> ChaosReport:
    """Run one full campaign; everything derives from ``cfg.seed``."""
    t0 = time.perf_counter()
    schedule = generate_schedule(cfg)
    oracle_shas, oracle_outcomes = run_oracle(cfg, schedule)
    if isinstance(cfg, FleetChaosConfig):
        stages = [(_FleetTarget, schedule)]
    else:
        # Persistence and engine faults fire in process (restarts are
        # then cheap and deterministic), protocol faults over a socket.
        split = cfg.ops - int(cfg.ops * cfg.socket_fraction)
        stages = [(_BrokerTarget, schedule[:split])]
        if schedule[split:]:
            stages.append((_SocketTarget, schedule[split:]))

    plane = FaultPlane(cfg.seed + 1)
    # Fault placement is drawn from its own stream so that nothing the
    # faults themselves consume (torn-write cut points come from
    # ``plane.rng``) can shift which op gets which fault.
    driver_rng = random.Random(cfg.seed + 2)
    run = _Run(cfg)

    scratch = (
        tempfile.TemporaryDirectory(prefix="repro-chaos-")
        if state_dir is None else nullcontext(state_dir)
    )
    with scratch as where:
        state_path = Path(where)
        for make_target, ops in stages:
            target = make_target(
                cfg, state_path, plane, driver_rng, run.counts
            )
            try:
                for entry in ops:
                    target.place_faults(entry)
                    request, response = run.step(
                        entry, lambda r: _converge(target, entry, r, run)
                    )
                    # A rejected admit never reached the journal; drop
                    # the armed-but-unfired fault so accounting only
                    # counts faults that actually executed.
                    plane.disarm(SITE_JOURNAL_APPEND)
                    if response.get("duplicate"):
                        run.counts["duplicate_acks"] += 1
                    if response.get("ok") and request["op"] in _LINK_FAULT:
                        plane.record(_LINK_FAULT[request["op"]])
                live_shas = target.finish()
            finally:
                target.close()
        # The verdict: a fresh, fault-free deployment recovers from the
        # chaos run's disk and must land on each oracle's exact state.
        recovered = stages[-1][0].recovered(cfg, state_path)

    lost: Dict[Tenant, List[int]] = {}
    phantoms: Dict[Tenant, List[int]] = {}
    mismatches = 0
    for tenant, outcomes in run.outcomes.items():
        expected: set = set()
        for outcome in outcomes:
            if "refused" in outcome:
                continue
            if outcome["op"] == "admit":
                expected.update(outcome["ids"])
            elif outcome["op"] == "release":
                expected.difference_update(outcome["ids"])
            else:
                expected.difference_update(outcome["evicted"])
        got = {int(sid) for sid in recovered[tenant][1]["streams"]}
        if expected - got:
            lost[tenant] = sorted(expected - got)
        if got - expected:
            phantoms[tenant] = sorted(got - expected)
        mismatches += sum(
            mine != theirs
            for mine, theirs in zip_longest(outcomes, oracle_outcomes[tenant])
        )

    verdict = {
        "faults_total": plane.total_fired(),
        "faults_by_layer": plane.counts_by_layer(),
        "layers_covered": plane.layers_covered(),
        "committed": sum(map(len, run.outcomes.values())),
        "live_at_end": sum(map(len, run.live.values())),
        "outcome_mismatches": mismatches,
        "oracle_shas": oracle_shas,
        "live_shas": live_shas,
        "recovered_shas": {t: sha for t, (sha, _) in recovered.items()},
        "lost": lost,
        "phantoms": phantoms,
        "seconds": round(time.perf_counter() - t0, 3),
    }
    # Any other field echoes the config or, failing that, counts an
    # event (0 for what never happened).
    return ChaosReport(**{
        f.name: verdict[f.name] if f.name in verdict
        else getattr(cfg, f.name, run.counts[f.name])
        for f in fields(ChaosReport)
    })
