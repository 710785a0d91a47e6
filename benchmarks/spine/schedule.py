"""Seeded request schedules and their reference answers.

Why a schedule is a *phase of a fixed cycle*
--------------------------------------------
Admission cost depends on which streams happen to be live together: two
independently drawn churn schedules of the same shape differ by 10-45 %
in engine time per op (measured), far more than any bound worth setting.
A workload is therefore one fixed, periodic op stream — a *cycle* built
once from a constant in ``workloads.py`` — and ``--seed`` picks the phase
at which a run enters it (plus which live stream every ``query`` reads
and every ``rid``). A run preloads the state the cycle has at that
phase, then executes exactly one lap in the serial segment and one more
lap in the pipelined segment. Every seed thus sends a different request
sequence from a different starting state, but performs the same
multiset of analyses, so run-to-run differences measure the host and
the code, not the draw.

A cycle is a *body* (seeded churn, or a ``generate_trace`` trace)
followed by a *repair* that returns the live set to what it was at the
start of the lap. Stream ids are explicit and equal to admission time in
the periodic stream, so the relative order of any two live streams is
the same at every phase and the laps do not share verdict-memo keys.

Reference answers
-----------------
The concrete requests of a run are replayed through a bare in-process
:class:`~repro.service.host.EngineHost` per tenant, which yields the
digest every deployed surface must reproduce for each op. The analysis
is deterministic and the fleet is bit-identical to a single engine, so a
mismatch is a bug, not noise. An analysis *rejection* (``admitted:
false``) is a correct answer and part of the expected digest.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.io import topology_from_spec
from repro.service.host import EngineHost
from repro.service.loadgen import churn_spec, generate_trace

#: Streams per admit op are numbered inside this many id slots.
BATCH = 4

_LINK_FIELDS = ("link", "evicted", "disconnected", "survivors",
                "failed_links")
#: Response fields that make up an op's digest, by op kind.
_DIGEST_FIELDS = {
    "admit": ("admitted", "ids", "bounds"),
    "release": ("released",),
    "query": ("upper_bound", "feasible", "slack", "closure"),
    "fail_link": _LINK_FIELDS,
    "restore_link": _LINK_FIELDS,
}


def digest(kind: str, response: Dict[str, Any]) -> str:
    """Canonical form of what a response decided (not how it was sent)."""
    picked = [response.get("ok")]
    picked += [response.get(name) for name in _DIGEST_FIELDS[kind]]
    return json.dumps(picked, sort_keys=True, separators=(",", ":"))


def report_digest(response: Dict[str, Any]) -> str:
    """SHA-256 over a ``report`` response's verdicts and admitted count."""
    blob = json.dumps(
        [response.get("ok"), response.get("report"),
         response.get("admitted")],
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def state_digest(ask) -> str:
    """SHA-256 over everything a client can observe of the admitted set:
    the report, the failed links, and every live stream's ``query``.
    ``ask(op, **fields)`` is any transport's ``request``; the reference
    engine and the deployed surface are fingerprinted by the same code.
    """
    report = ask("report")
    parts = [report.get("ok"), report.get("report"), report.get("admitted"),
             ask("links").get("failed_links")]
    for sid in sorted(report["report"]["streams"], key=int):
        reply = ask("query", stream=int(sid))
        parts.append([reply.get(name) for name in (
            "stream", "upper_bound", "feasible", "slack", "closure"
        )])
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# --------------------------------------------------------------------- #
# The fixed cycle
# --------------------------------------------------------------------- #


@dataclass
class Step:
    """One abstract op of a cycle. Streams are named by *keys*: the
    stream admitted as entry ``i`` of the admit at cycle position ``p``
    has key ``p * BATCH + i``; a stream that is never released (it was
    live before the body and survived it) has key ``-1 - n``."""

    kind: str
    specs: Tuple[Dict[str, int], ...] = ()   # admit
    keys: Tuple[int, ...] = ()               # admit: introduced; release
    link: Tuple[int, int] = ()               # fail_link / restore_link
    accepted: bool = True                    # admit outcome
    gone: Tuple[int, ...] = ()               # link op: keys it evicted


@dataclass
class Cycle:
    topology: Dict[str, Any]
    steps: List[Step]
    #: keys live at the start of every lap, in admission order
    start_live: List[int]
    spec_of: Dict[int, Dict[str, int]] = field(default_factory=dict)


class _Sim:
    """Reference engine + key bookkeeping while a cycle is being built.
    Ids here are provisional (only their order matters)."""

    def __init__(self, topology: Dict[str, Any], queries_per_op: float):
        self.host = EngineHost(topology)
        self.live: Dict[int, int] = {}       # key -> provisional id
        self.spec_of: Dict[int, Dict[str, int]] = {}
        self.steps: List[Step] = []
        self._next = 0
        self._queries_per_op = queries_per_op
        self._queries_due = 0.0

    def _call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        response = self.host.handle_request(request)
        if not response.get("ok"):
            raise RuntimeError(f"cycle build failed on {request}: {response}")
        return response

    def admit(self, specs: Sequence[Dict[str, int]],
              keys: Optional[Sequence[int]] = None) -> bool:
        if keys is None:
            pos = len(self.steps)
            keys = [pos * BATCH + i for i in range(len(specs))]
        entries = []
        for spec in specs:
            entries.append({**spec, "id": self._next})
            self._next += 1
        response = self._call({"op": "admit", "streams": entries})
        accepted = bool(response["admitted"])
        if accepted:
            for key, spec, entry in zip(keys, specs, entries):
                self.live[key] = entry["id"]
                self.spec_of[key] = dict(spec)
        self.steps.append(Step("admit", tuple(dict(s) for s in specs),
                               tuple(keys), accepted=accepted))
        return accepted

    def release(self, keys: Sequence[int]) -> None:
        self._call({"op": "release",
                    "ids": [self.live.pop(key) for key in keys]})
        self.steps.append(Step("release", keys=tuple(keys)))

    def link(self, kind: str, link: Sequence[int]) -> None:
        response = self._call({"op": kind, "link": list(link)})
        dead = set(response["evicted"]) | set(response["disconnected"])
        gone = tuple(k for k, sid in self.live.items() if sid in dead)
        for key in gone:
            del self.live[key]
        self.steps.append(Step(kind, link=tuple(link), gone=gone))

    def queries(self) -> None:
        """The reads that go with the next mutating op (which live
        stream each one reads is decided per run, by ``--seed``)."""
        self._queries_due += self._queries_per_op
        while self._queries_due >= 1.0:
            self._queries_due -= 1.0
            if self.live:
                self.steps.append(Step("query"))


def churn_cycle(
    constant: int,
    *,
    topology: Dict[str, Any],
    live_target: int,
    priority_levels: int,
    body_ops: int,
    queries_per_op: float,
) -> Cycle:
    """Admit/release churn around ``live_target`` (the ``repro load``
    policy), one stream per op, ``queries_per_op`` reads of a live
    stream per mutating op."""
    rng = random.Random(f"churn-cycle-{constant}")
    nodes = topology_from_spec(topology)[0].num_nodes
    sim = _Sim(topology, queries_per_op)

    def draw() -> Dict[str, int]:
        return churn_spec(rng, nodes, priority_levels=priority_levels)

    # The lap-start set: provisional keys -1-n until the repair below
    # decides which of them cycle (re-admitted every lap) or persist.
    start: List[int] = []
    while len(start) < live_target:
        key = -1 - len(start)
        if sim.admit([draw()], [key]):
            start.append(key)
    sim.steps.clear()
    while len(sim.steps) < body_ops:
        sim.queries()
        live = len(sim.live)
        want_admit = (live < live_target if rng.random() < 0.8
                      else live >= live_target)
        if want_admit or not sim.live:
            sim.admit([draw()])
        else:
            sim.release([list(sim.live)[rng.randrange(live)]])
    # Repair: drop what the start set did not have, re-admit what it
    # lost. Every intermediate set is a subset of the (feasible) start
    # set, so the re-admissions cannot be rejected.
    for key in [k for k in sim.live if k not in start]:
        sim.release([key])
    renamed: Dict[int, int] = {}
    for key in [k for k in start if k not in sim.live]:
        new_key = len(sim.steps) * BATCH
        renamed[key] = new_key
        if not sim.admit([sim.spec_of[key]]):
            raise RuntimeError("repair re-admission rejected")
    for step in sim.steps:
        if step.kind == "release":
            step.keys = tuple(renamed.get(k, k) for k in step.keys)
    return Cycle(
        topology=topology,
        steps=sim.steps,
        start_live=[renamed.get(k, k) for k in start],
        spec_of={renamed.get(k, k): v for k, v in sim.spec_of.items()},
    )


def trace_cycle(
    constant: int,
    *,
    topology: Dict[str, Any],
    live_target: int,
    body_ops: int,
    link_rate: float,
    queries_per_op: float,
) -> Cycle:
    """A ``generate_trace("bursty")`` trace from an empty network (plus
    ``queries_per_op`` reads per trace op), then one release wave and
    the restores that empty it again."""
    topo = topology_from_spec(topology)[0]
    links = sorted({tuple(sorted((u, v))) for u, v in topo.channels()})
    rng = random.Random(f"trace-cycle-{constant}")
    trace = generate_trace(
        "bursty", rng, topo.num_nodes, ops=body_ops,
        target_live=live_target, links=links, link_rate=link_rate,
    )
    sim = _Sim(topology, queries_per_op)
    handle_key: List[int] = []
    failed: List[Tuple[int, int]] = []
    for record in trace:
        sim.queries()
        kind = record["op"]
        if kind == "admit":
            base = len(sim.steps) * BATCH
            handle_key.extend(
                base + i for i in range(len(record["streams"]))
            )
            sim.admit(record["streams"])
        elif kind == "release":
            keys = [handle_key[ref] for ref in record["refs"]
                    if handle_key[ref] in sim.live]
            if keys:  # all handles rejected or evicted: skip, as run_trace
                sim.release(keys)
        else:
            link = tuple(record["link"])
            sim.link(kind, link)
            if kind == "fail_link":
                failed.append(link)
            else:
                failed.remove(link)
    if sim.live:
        sim.release(list(sim.live))
    for link in list(failed):
        sim.link("restore_link", link)
    return Cycle(topology=topology, steps=sim.steps, start_live=[],
                 spec_of=sim.spec_of)


# --------------------------------------------------------------------- #
# One run's concrete schedule
# --------------------------------------------------------------------- #


@dataclass
class Op:
    """One request of a schedule plus its reference answer."""

    conn: int                 #: connection (= tenant) index
    kind: str                 #: admit | release | query | fail_link | ...
    fields: Dict[str, Any]    #: request fields (without ``op``/``id``)
    expect: str = ""          #: reference :func:`digest`
    journaled: bool = False   #: acknowledged mutation => a journal record

    def request(self) -> Dict[str, Any]:
        return {"op": self.kind, **self.fields}


@dataclass
class Schedule:
    """Preload + the two timed segments, with reference end states."""

    topology: Dict[str, Any]
    tenants: int
    preload: List[Op] = field(default_factory=list)
    serial: List[Op] = field(default_factory=list)
    pipelined: List[Op] = field(default_factory=list)
    #: per tenant: reference :func:`state_digest` after the last op
    final_states: List[str] = field(default_factory=list)

    def all_ops(self) -> List[Op]:
        return self.preload + self.serial + self.pipelined

    def canonical(self) -> bytes:
        """Byte form used to prove a seed always yields the same inputs."""
        body = [
            [[op.conn, op.kind, op.fields, op.expect] for op in ops]
            for ops in (self.preload, self.serial, self.pipelined)
        ]
        return json.dumps(body + [self.final_states], sort_keys=True,
                          separators=(",", ":")).encode()


def _walk(cycle: Cycle, conn: int, rng: random.Random,
          ) -> Iterator[Tuple[Op, Dict[int, int], set]]:
    """Walk the periodic op stream from the start of lap 0, forever.

    Yields ``(op, live, failed)`` *before* applying each step: ``op`` is
    the concrete request of the step, ``live`` maps key -> id as of that
    moment and ``failed`` is the failed-link set. A stream admitted at
    time ``t`` has id ``persist + (t + L) * BATCH + i`` (``persist`` ids
    are set aside for the streams no lap ever releases); the streams
    live at time 0 carry the ids the previous lap gave them.
    """
    steps, lap = cycle.steps, len(cycle.steps)
    persist = len(cycle.start_live)
    live: Dict[int, int] = {}
    for key in cycle.start_live:
        live[key] = (-1 - key) if key < 0 else persist + key
    failed: set = set()  # every lap ends with its links restored
    t = 0
    while True:
        step = steps[t % lap]
        base = persist + (t + lap) * BATCH
        if step.kind == "admit":
            ids = [base + i for i in range(len(step.specs))]
            op = Op(conn, "admit", {"streams": [
                {**spec, "id": sid} for spec, sid in zip(step.specs, ids)
            ]})
            yield op, live, failed
            if step.accepted:
                live.update(zip(step.keys, ids))
        elif step.kind == "release":
            op = Op(conn, "release", {"ids": [live[k] for k in step.keys]})
            yield op, live, failed
            for key in step.keys:
                del live[key]
        elif step.kind == "query":
            ids = sorted(live.values())
            op = Op(conn, "query", {"stream": ids[rng.randrange(len(ids))]})
            yield op, live, failed
        else:
            op = Op(conn, step.kind, {"link": list(step.link)})
            yield op, live, failed
            for key in step.gone:
                del live[key]
            (failed.add if step.kind == "fail_link"
             else failed.discard)(step.link)
        t += 1


def _tenant_ops(cycle: Cycle, conn: int, seed: int,
                ) -> Tuple[List[Op], List[Op], List[Op]]:
    """(preload, lap one, lap two) of one tenant at the seed's phase."""
    rng = random.Random(f"phase-{seed}-{conn}")
    lap = len(cycle.steps)
    phase = rng.randrange(lap)
    walk = _walk(cycle, conn, rng)
    for _ in range(phase):
        next(walk)
    op, live, failed = next(walk)
    preload = [Op(conn, "fail_link", {"link": list(link)})
               for link in sorted(failed)]
    preload += [
        Op(conn, "admit", {"streams": [{**cycle.spec_of[key], "id": sid}]})
        for key, sid in sorted(live.items(), key=lambda item: item[1])
    ]
    timed = [op] + [next(walk)[0] for _ in range(2 * lap - 1)]
    return preload, timed[:lap], timed[lap:]


def _interleave(groups: Sequence[List[Op]]) -> List[Op]:
    return [op for row in zip_longest(*groups) for op in row
            if op is not None]


def build(cycles: Sequence[Cycle], seed: int) -> Schedule:
    """The run's schedule: each tenant's cycle entered at the seed's
    phase, tenants interleaved op by op, reference answers attached."""
    per_tenant = [_tenant_ops(cycle, conn, seed)
                  for conn, cycle in enumerate(cycles)]
    out = Schedule(topology=cycles[0].topology, tenants=len(cycles))
    out.preload = _interleave([p for p, _, _ in per_tenant])
    out.serial = _interleave([s for _, s, _ in per_tenant])
    out.pipelined = _interleave([q for _, _, q in per_tenant])
    hosts = [EngineHost(cycle.topology) for cycle in cycles]
    counts = [0] * len(cycles)
    for op in out.all_ops():
        if op.kind != "query":
            counts[op.conn] += 1
            # Fixed width: journal bytes must not depend on how many
            # digits the seed happens to have.
            op.fields["rid"] = (
                f"s{seed & 0xFFFFFF:06x}-t{op.conn}-{counts[op.conn]:05d}"
            )
        response = hosts[op.conn].handle_request(op.request())
        if not response.get("ok"):
            raise RuntimeError(
                f"reference replay failed on {op.request()}: {response}"
            )
        op.expect = digest(op.kind, response)
        op.journaled = op.kind != "query" and (
            op.kind != "admit" or bool(response["admitted"])
        )
    for host in hosts:
        out.final_states.append(state_digest(
            lambda op, _host=host, **fields:
                _host.handle_request({"op": op, **fields})
        ))
    return out
