"""Chaos campaign driver: seeded faults vs a fault-free oracle.

A campaign replays one seeded admit/release schedule twice:

1. **Oracle run** — an in-process broker with no persistence and no
   faults executes the schedule; its end state is fingerprinted.
2. **Chaos run** — the same schedule executes against a persistent
   broker while faults fire at all three layers (see
   :mod:`repro.faults.plane`): journal writes are torn, the process is
   "killed" (:class:`InjectedCrash`) and restarted from disk,
   connections drop mid-request, caches are stormed. The driver behaves
   like a correct client: idempotent request ids and at-least-once
   retries, ``snapshot`` to clear degraded mode.

Afterwards a *fresh* broker recovers from the chaos run's state dir and
the campaign asserts the two invariants the whole subsystem exists for:

* **Bit-identity** — the recovered state's fingerprint (stream specs,
  delay bounds, HP closures, feasibility report, fresh-id high-water
  mark) equals the oracle's. Deterministic analysis means recovery is
  not "approximately right", it is the same state.
* **Zero acked-then-lost** — every operation the driver saw acknowledged
  survives recovery, and nothing survives that was never acknowledged
  (no phantom admissions from replayed retries).

The chaos run is staged: persistence and engine faults fire against an
in-process broker (restarts are then cheap and deterministic), protocol
faults fire over a real unix socket served from a background thread.
Both stages share one live-id list, one fault plane and one state dir,
so the socket stage starts by recovering the in-process stage's state.

Determinism: the schedule, the fault plane and the fault-placement
draws use three independent ``random.Random`` streams derived from the
campaign seed, so backoff jitter (wall-clock only) cannot shift which
op gets which fault. Replaying a seed replays the campaign.
"""

from __future__ import annotations

import asyncio
import random
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import ReproError
from ..service.loadgen import BrokerClient, churn_spec
from ..service.protocol import encode
from ..service.server import BrokerServer
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
    "LinkState",
    "ScheduledOp",
    "build_request",
    "generate_schedule",
    "run_chaos_campaign",
    "run_oracle",
    "state_fingerprint",
]

#: Retry ceiling per op in the in-process stage. Each armed fault is
#: one-shot, so two attempts normally converge; the slack covers a
#: degraded round-trip (snapshot + retry) stacked on a crash.
_MAX_ATTEMPTS = 32


@dataclass(frozen=True)
class ChaosConfig:
    """Everything a campaign needs, derivable from one seed."""

    seed: int = 0
    ops: int = 150
    width: int = 6
    height: int = 6
    target_live: int = 12
    priority_levels: int = 15
    #: Probability an in-process op arms a random persistence fault.
    persistence_rate: float = 0.30
    #: Probability a socket op executes a random protocol fault.
    protocol_rate: float = 0.45
    #: Probability an in-process op is preceded by a cache storm.
    engine_rate: float = 0.18
    #: Probability a socket op is preceded by a server restart.
    restart_rate: float = 0.06
    #: Probability a schedule slot is a link fail/restore event instead
    #: of admit/release churn (0 reproduces pre-link schedules exactly).
    link_rate: float = 0.0
    #: Fraction of the schedule executed over the real socket (stage B).
    socket_fraction: float = 0.4
    #: Client retry backoff (kept tiny: the "server" is on localhost).
    backoff_base: float = 0.005
    backoff_cap: float = 0.1

    def topology_spec(self) -> Dict[str, Any]:
        return {"type": "mesh", "width": self.width, "height": self.height}

    @property
    def nodes(self) -> int:
        return self.width * self.height

    def link_pool(self) -> List[Tuple[int, int]]:
        """Every undirected mesh link as a sorted ``(u, v)`` pair."""
        links = set()
        for y in range(self.height):
            for x in range(self.width):
                u = y * self.width + x
                if x + 1 < self.width:
                    links.add((u, u + 1))
                if y + 1 < self.height:
                    links.add((u, u + self.width))
        return sorted(links)


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


class LinkState:
    """Mutable up/down link bookkeeping shared by a run's op builder.

    Both campaign runs (oracle and chaos) hold their own copy, and both
    resolve the same pre-drawn slot randomness against it, so they issue
    the same link events in the same order.
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


def generate_schedule(cfg: ChaosConfig) -> List[ScheduledOp]:
    """Materialise the campaign's op schedule from ``cfg.seed``.

    With ``cfg.link_rate == 0`` no extra randomness is consumed, so
    schedules are bit-identical to pre-link versions of this module.
    """
    rng = random.Random(cfg.seed)
    schedule = []
    for i in range(cfg.ops):
        link_op = cfg.link_rate > 0 and rng.random() < cfg.link_rate
        schedule.append(ScheduledOp(
            index=i,
            rid=f"c{cfg.seed}-{i}",
            bias=rng.random(),
            pick=rng.random(),
            spec=churn_spec(rng, cfg.nodes,
                            priority_levels=cfg.priority_levels),
            link_op=link_op,
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


def _apply_outcome(
    request: Dict[str, Any],
    response: Dict[str, Any],
    live: List[int],
    outcomes: List[Dict[str, Any]],
    links: Optional[LinkState] = None,
) -> None:
    """Fold one acknowledged op into the live list and the acked log."""
    if request["op"] == "admit":
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


# ---------------------------------------------------------------------- #
# Fingerprinting + oracle
# ---------------------------------------------------------------------- #


def state_fingerprint(server: BrokerServer) -> Tuple[str, Dict[str, Any]]:
    """``(sha256, spec)`` of everything recovery promises to preserve.

    Covers the admitted stream specs, each stream's delay bound /
    feasibility / slack / HP closure, the full feasibility report and
    the fresh-id high-water mark. Built through the public protocol ops
    so it fingerprints what clients can observe. Accepts a
    :class:`BrokerServer` or a bare :class:`~repro.service.host.EngineHost`
    (the fleet fingerprints hosts directly).
    """
    host = getattr(server, "host", server)
    return host.fingerprint()


def run_oracle(
    cfg: ChaosConfig, schedule: List[ScheduledOp]
) -> Tuple[str, List[Dict[str, Any]]]:
    """Execute the schedule fault-free; return ``(sha, acked log)``."""
    server = BrokerServer(cfg.topology_spec())
    live: List[int] = []
    outcomes: List[Dict[str, Any]] = []
    links = LinkState(cfg.link_pool()) if cfg.link_rate > 0 else None
    for entry in schedule:
        request = build_request(
            entry, live, target_live=cfg.target_live, links=links
        )
        response = server.handle_request(request)
        if not response.get("ok"):  # pragma: no cover - oracle is clean
            raise ReproError(f"oracle op {entry.index} failed: {response}")
        _apply_outcome(request, response, live, outcomes, links)
    sha, _ = state_fingerprint(server)
    return sha, outcomes


# ---------------------------------------------------------------------- #
# Stage A: in-process (persistence + engine faults, kills + restarts)
# ---------------------------------------------------------------------- #


@dataclass
class _RunState:
    """Mutable carry-over between the two chaos stages."""

    live: List[int] = field(default_factory=list)
    outcomes: List[Dict[str, Any]] = field(default_factory=list)
    links: Optional[LinkState] = None
    restarts: int = 0
    degraded_recoveries: int = 0
    duplicate_acks: int = 0


def _stage_inproc(
    cfg: ChaosConfig,
    schedule: List[ScheduledOp],
    state_dir: Path,
    plane: FaultPlane,
    driver_rng: random.Random,
    run: _RunState,
) -> None:
    """Run ``schedule`` against an in-process persistent broker.

    Persistence faults are armed at the journal-append site before the
    op; :class:`InjectedCrash` is the simulated kill — the server object
    is dropped and a new one recovers from the state dir, then the op is
    retried under the same rid. Degraded responses are cleared with a
    ``snapshot`` op, exactly as a supervising client would.
    """
    server = BrokerServer(
        cfg.topology_spec(), state_dir=state_dir, fault_plane=plane
    )
    try:
        for entry in schedule:
            if driver_rng.random() < cfg.engine_rate:
                server.engine.invalidate_caches()
                plane.record("cache_storm")
            if driver_rng.random() < cfg.persistence_rate:
                kind = PERSISTENCE_FAULTS[
                    driver_rng.randrange(len(PERSISTENCE_FAULTS))
                ]
                plane.arm(SITE_JOURNAL_APPEND, FaultSpec(kind))
            request = build_request(
                entry, run.live, target_live=cfg.target_live,
                links=run.links,
            )
            for _ in range(_MAX_ATTEMPTS):
                try:
                    response = server.handle_request(request)
                except InjectedCrash:
                    run.restarts += 1
                    server.state.close()
                    server = BrokerServer(
                        cfg.topology_spec(),
                        state_dir=state_dir,
                        fault_plane=plane,
                    )
                    continue
                if response.get("ok"):
                    break
                if response.get("code") == "degraded":
                    run.degraded_recoveries += 1
                    snap = server.handle_request({"op": "snapshot"})
                    if not snap.get("ok"):  # pragma: no cover - one-shot
                        raise ReproError(
                            f"snapshot failed to clear degraded: {snap}"
                        )
                    continue
                raise ReproError(
                    f"chaos op {entry.index} failed hard: {response}"
                )
            else:  # pragma: no cover - defensive
                raise ReproError(
                    f"chaos op {entry.index} did not converge in "
                    f"{_MAX_ATTEMPTS} attempts"
                )
            # A rejected admit never reached the journal; drop the
            # armed-but-unfired fault so accounting only counts faults
            # that actually executed.
            plane.disarm(SITE_JOURNAL_APPEND)
            if response.get("duplicate"):
                run.duplicate_acks += 1
            if request["op"] in ("fail_link", "restore_link"):
                plane.record("link_fail" if request["op"] == "fail_link"
                             else "link_restore")
            _apply_outcome(
                request, response, run.live, run.outcomes, run.links
            )
    finally:
        if server.state is not None:
            server.state.close()


# ---------------------------------------------------------------------- #
# Stage B: real socket (protocol faults, server restarts)
# ---------------------------------------------------------------------- #


class _ServerThread:
    """A persistent broker serving a unix socket from a daemon thread."""

    def __init__(
        self,
        topology_spec: Dict[str, Any],
        socket_path: Union[str, Path],
        state_dir: Path,
    ):
        self._topology_spec = topology_spec
        self._socket_path = Path(socket_path)
        self._state_dir = state_dir
        self._ready = threading.Event()
        self._exc: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.server: Optional[BrokerServer] = None
        self._thread = threading.Thread(
            target=self._run, name="chaos-broker", daemon=True
        )

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - surfaced in stop
            self._exc = exc
        finally:
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.server = BrokerServer(
            self._topology_spec, state_dir=self._state_dir
        )
        await self.server.start_unix(self._socket_path)
        self._ready.set()
        await self.server.serve_forever()

    def start(self) -> "_ServerThread":
        self._socket_path.unlink(missing_ok=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):  # pragma: no cover
            raise ReproError("chaos broker thread did not come up")
        if self._exc is not None:
            raise ReproError(f"chaos broker thread died: {self._exc!r}")
        return self

    def stop(self) -> None:
        if self._loop is not None and self.server is not None:
            try:
                self._loop.call_soon_threadsafe(self.server.request_shutdown)
            except RuntimeError:  # pragma: no cover - loop already gone
                pass
        self._thread.join(timeout=30)
        if self._thread.is_alive():  # pragma: no cover - defensive
            raise ReproError("chaos broker thread did not stop")
        if self._exc is not None:  # pragma: no cover - defensive
            raise ReproError(f"chaos broker thread died: {self._exc!r}")


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
    response = client.recv()
    if not response.get("ok"):
        raise ReproError(f"slow-client op failed: {response}")
    return response


def _socket_op(
    client: BrokerClient,
    request: Dict[str, Any],
    fault: Optional[str],
    plane: FaultPlane,
    socket_path: Path,
    cfg: ChaosConfig,
    backoff_rng: random.Random,
) -> Dict[str, Any]:
    """Execute one schedule op over the socket, under one protocol fault."""
    op = request["op"]
    rid = request["rid"]
    fields = {k: v for k, v in request.items() if k not in ("op", "rid")}
    if fault == "slow_client":
        plane.record(fault)
        return _slow_request(client, request)
    if fault == "drop_before_send":
        plane.record(fault)
        client.close()
    elif fault == "drop_after_send":
        plane.record(fault)
        try:
            client.send_bytes(encode(request), responses=0)
            client.flush()
        except OSError:  # pragma: no cover - race with peer
            pass
        client.close()
    elif fault == "garbage_bytes":
        plane.record(fault)
        client.send_bytes(b"\xff\x00 this is not json {]\n")
        client.flush()
        if client.recv().get("ok"):  # pragma: no cover - defensive
            raise ReproError("garbage line was accepted by the broker")
    elif fault == "half_open":
        plane.record(fault)
        _half_open_probe(socket_path)
    response = client.request_with_retry(
        op,
        rid=rid,
        backoff_base=cfg.backoff_base,
        backoff_cap=cfg.backoff_cap,
        rng=backoff_rng,
        **fields,
    )
    if not response.get("ok"):
        raise ReproError(
            f"socket op {op!r} (rid {rid!r}) failed: {response}"
        )
    return response


def _stage_socket(
    cfg: ChaosConfig,
    schedule: List[ScheduledOp],
    state_dir: Path,
    socket_path: Path,
    plane: FaultPlane,
    driver_rng: random.Random,
    backoff_rng: random.Random,
    run: _RunState,
) -> None:
    """Run ``schedule`` over a real unix socket with protocol faults."""
    if not schedule:
        return
    thread = _ServerThread(
        cfg.topology_spec(), socket_path, state_dir
    ).start()
    client = BrokerClient.wait_for_unix(socket_path, timeout=10)
    try:
        for entry in schedule:
            if driver_rng.random() < cfg.restart_rate:
                run.restarts += 1
                client.close()
                thread.stop()
                thread = _ServerThread(
                    cfg.topology_spec(), socket_path, state_dir
                ).start()
                client = BrokerClient.wait_for_unix(socket_path, timeout=10)
            fault = None
            if driver_rng.random() < cfg.protocol_rate:
                fault = PROTOCOL_FAULTS[
                    driver_rng.randrange(len(PROTOCOL_FAULTS))
                ]
            request = build_request(
                entry, run.live, target_live=cfg.target_live,
                links=run.links,
            )
            response = _socket_op(
                client, request, fault, plane, socket_path, cfg,
                backoff_rng,
            )
            if response.get("duplicate"):
                run.duplicate_acks += 1
            if request["op"] in ("fail_link", "restore_link"):
                plane.record("link_fail" if request["op"] == "fail_link"
                             else "link_restore")
            _apply_outcome(
                request, response, run.live, run.outcomes, run.links
            )
    finally:
        client.close()
        thread.stop()


# ---------------------------------------------------------------------- #
# Campaign
# ---------------------------------------------------------------------- #


@dataclass
class ChaosReport:
    """Outcome of one campaign (``repro chaos`` prints it as JSON)."""

    seed: int
    ops: int
    committed: int
    faults_total: int
    faults_by_layer: Dict[str, Dict[str, int]]
    layers_covered: int
    restarts: int
    degraded_recoveries: int
    duplicate_acks: int
    outcome_mismatches: int
    oracle_sha: str
    recovered_sha: str
    bit_identical: bool
    acked_then_lost: List[int]
    phantom_ids: List[int]
    live_at_end: int
    seconds: float

    @property
    def ok(self) -> bool:
        """Did the chaos run preserve every invariant it must?"""
        return (
            self.bit_identical
            and not self.acked_then_lost
            and not self.phantom_ids
            and self.outcome_mismatches == 0
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "ops": self.ops,
            "committed": self.committed,
            "faults": {
                "total": self.faults_total,
                "layers_covered": self.layers_covered,
                "by_layer": self.faults_by_layer,
            },
            "restarts": self.restarts,
            "degraded_recoveries": self.degraded_recoveries,
            "duplicate_acks": self.duplicate_acks,
            "outcome_mismatches": self.outcome_mismatches,
            "oracle_sha": self.oracle_sha,
            "recovered_sha": self.recovered_sha,
            "bit_identical": self.bit_identical,
            "acked_then_lost": self.acked_then_lost,
            "phantom_ids": self.phantom_ids,
            "live_at_end": self.live_at_end,
            "seconds": round(self.seconds, 3),
            "ok": self.ok,
        }

    def summary(self) -> str:
        verdict = "OK" if self.ok else "FAILED"
        return (
            f"chaos seed={self.seed}: {self.ops} ops, "
            f"{self.faults_total} faults over {self.layers_covered} "
            f"layers, {self.restarts} restarts, "
            f"{self.degraded_recoveries} degraded recoveries, "
            f"{self.duplicate_acks} duplicate acks -> "
            f"recovery {'bit-identical' if self.bit_identical else 'DIVERGED'}, "
            f"{len(self.acked_then_lost)} acked-then-lost "
            f"[{verdict}] ({self.seconds:.1f}s)"
        )


def run_chaos_campaign(
    cfg: ChaosConfig,
    state_dir: Optional[Union[str, Path]] = None,
) -> ChaosReport:
    """Run one full campaign; everything derives from ``cfg.seed``."""
    t0 = time.perf_counter()
    schedule = generate_schedule(cfg)
    oracle_sha, oracle_outcomes = run_oracle(cfg, schedule)

    plane = FaultPlane(cfg.seed + 1)
    # Fault placement is drawn from its own stream so that nothing the
    # faults themselves consume (torn-write cut points come from
    # ``plane.rng``) can shift which op gets which fault.
    driver_rng = random.Random(cfg.seed + 2)
    backoff_rng = random.Random(cfg.seed + 3)  # wall-clock jitter only
    run = _RunState(
        links=LinkState(cfg.link_pool()) if cfg.link_rate > 0 else None
    )
    split = cfg.ops - int(cfg.ops * cfg.socket_fraction)

    tmp: Optional[tempfile.TemporaryDirectory] = None
    if state_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        state_dir = tmp.name
    state_path = Path(state_dir)
    try:
        _stage_inproc(
            cfg, schedule[:split], state_path, plane, driver_rng, run
        )
        _stage_socket(
            cfg, schedule[split:], state_path, state_path / "broker.sock",
            plane, driver_rng, backoff_rng, run,
        )

        # The verdicts: a fresh, fault-free broker recovers from the
        # chaos run's disk and must land on the oracle's exact state.
        final = BrokerServer(cfg.topology_spec(), state_dir=state_path)
        try:
            recovered_sha, recovered_spec = state_fingerprint(final)
        finally:
            final.state.close()
    finally:
        if tmp is not None:
            tmp.cleanup()

    expected_live: set = set()
    for outcome in run.outcomes:
        if outcome["op"] == "admit" and outcome["admitted"]:
            expected_live.update(outcome["ids"])
        elif outcome["op"] == "release":
            expected_live.difference_update(outcome["ids"])
        elif outcome["op"] in ("fail_link", "restore_link"):
            expected_live.difference_update(outcome["evicted"])
    recovered_ids = {int(sid) for sid in recovered_spec["streams"]}
    mismatches = sum(
        1 for got, want in zip(run.outcomes, oracle_outcomes)
        if got != want
    ) + abs(len(run.outcomes) - len(oracle_outcomes))

    return ChaosReport(
        seed=cfg.seed,
        ops=cfg.ops,
        committed=len(run.outcomes),
        faults_total=plane.total_fired(),
        faults_by_layer=plane.counts_by_layer(),
        layers_covered=plane.layers_covered(),
        restarts=run.restarts,
        degraded_recoveries=run.degraded_recoveries,
        duplicate_acks=run.duplicate_acks,
        outcome_mismatches=mismatches,
        oracle_sha=oracle_sha,
        recovered_sha=recovered_sha,
        bit_identical=recovered_sha == oracle_sha,
        acked_then_lost=sorted(expected_live - recovered_ids),
        phantom_ids=sorted(recovered_ids - expected_live),
        live_at_end=len(run.live),
        seconds=time.perf_counter() - t0,
    )
