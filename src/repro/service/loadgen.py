"""Load generator for the channel broker (``repro load``).

The client is :class:`repro.service.client.BrokerClient`, re-exported
here (where the CI smoke job, the bench spine under
``benchmarks/spine/`` and scripts import it from); every transport it
speaks drives these workloads unchanged. The load generator
replays seeded admit/release churn against a broker: it keeps a target
number of live streams, admitting locality-biased random streams and
releasing random live ones, and reports throughput, acceptance rate and
the server's own stats.
"""

from __future__ import annotations

import json
import math
import random
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Deque, Dict, List, Optional, Sequence, Tuple, Union,
)

from ..errors import ReproError
from .client import BrokerClient

__all__ = [
    "BrokerClient",
    "LoadSummary",
    "churn_spec",
    "generate_trace",
    "load_trace",
    "run_load",
    "run_trace",
    "save_trace",
]

TRACE_PATTERNS = ("bursty", "diurnal")


# ---------------------------------------------------------------------- #
# Churn workload
# ---------------------------------------------------------------------- #


def churn_spec(
    rng: random.Random,
    nodes: int,
    *,
    priority_levels: int = 15,
) -> Dict[str, int]:
    """Draw one random stream spec (integer node ids, no explicit id).

    Node pairs are drawn uniformly; periods/deadlines are generous
    relative to message lengths so a healthy fraction of requests admits
    even at high occupancy (the interesting regime for a broker).
    """
    src = rng.randrange(nodes)
    dst = rng.randrange(nodes)
    while dst == src:
        dst = rng.randrange(nodes)
    length = rng.randint(1, 8)
    period = rng.randint(80, 400)
    return {
        "src": src,
        "dst": dst,
        "priority": rng.randint(1, priority_levels),
        "period": period,
        "length": length,
        "deadline": rng.randint(period // 2, period),
    }


@dataclass
class LoadSummary:
    """Outcome of one load run, printed as JSON by ``repro load``."""

    ops: int = 0
    admits_tried: int = 0
    admits_accepted: int = 0
    releases: int = 0
    link_ops: int = 0
    errors: int = 0
    seconds: float = 0.0
    live_at_end: int = 0
    pipeline: int = 1
    server_stats: Dict[str, Any] = field(default_factory=dict)

    def ops_per_second(self) -> float:
        return self.ops / self.seconds if self.seconds else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ops": self.ops,
            "admits_tried": self.admits_tried,
            "admits_accepted": self.admits_accepted,
            "acceptance_rate": round(
                self.admits_accepted / self.admits_tried, 4
            ) if self.admits_tried else None,
            "releases": self.releases,
            "link_ops": self.link_ops,
            "errors": self.errors,
            "seconds": round(self.seconds, 3),
            "ops_per_second": round(self.ops_per_second(), 1),
            "live_at_end": self.live_at_end,
            "pipeline": self.pipeline,
            "server_stats": self.server_stats,
        }


def _server_stats(client: BrokerClient) -> Dict[str, Any]:
    """The slice of the server's ``stats`` a load summary reports."""
    stats = client.request("stats")
    if not stats.get("ok"):
        return {}
    return {
        "admitted": stats.get("admitted"),
        "engine": stats.get("engine"),
        "batching": stats.get("service", {}).get("batching"),
    }


def run_load(
    client: BrokerClient,
    *,
    ops: int = 300,
    seed: int = 0,
    target_live: int = 40,
    batch_size: int = 1,
    pipeline: int = 1,
) -> LoadSummary:
    """Replay seeded admit/release churn through an open client.

    Below ``target_live`` admitted streams the generator mostly admits;
    above it, it mostly releases — holding occupancy near the target,
    which is where admission decisions are non-trivial.

    ``pipeline`` is the number of requests kept in flight: 1 (default)
    is the classic closed loop — send, wait, repeat — and reproduces the
    exact request sequence of earlier versions; larger windows keep the
    server's request-batching worker fed instead of letting the
    connection go idle for a round trip per op. Admit/release decisions
    then steer by the *estimated* live count (confirmed live streams —
    which in-flight releases already left — plus in-flight admits), and
    only confirmed ids are ever released, so the workload stays
    well-formed at any depth.
    """
    rng = random.Random(seed)
    hello = client.check("hello")
    nodes = int(hello["nodes"])
    live: List[int] = []
    summary = LoadSummary()
    pipeline = max(1, int(pipeline))
    summary.pipeline = pipeline
    batch = max(1, batch_size)
    window: Deque[Tuple[int, str]] = deque()  # (seq, "admit"|"release")
    in_flight = {"admit": 0, "release": 0}  # release kept for introspection

    def settle(limit: int) -> None:
        """Absorb responses until at most ``limit`` remain in flight."""
        while len(window) > limit:
            seq, kind = window.popleft()
            response = client.recv(seq)
            in_flight[kind] -= 1
            if kind == "admit":
                if response.get("ok") and response.get("admitted"):
                    summary.admits_accepted += 1
                    live.extend(response["ids"])
                elif not response.get("ok"):
                    summary.errors += 1
            elif not response.get("ok"):
                summary.errors += 1

    t0 = time.perf_counter()
    for _ in range(ops):
        # Released ids leave `live` at send time (the pop below), so
        # in-flight releases are already accounted for — only unconfirmed
        # admits need adding on top.
        est_live = len(live) + in_flight["admit"] * batch
        admit = (est_live < target_live
                 if rng.random() < 0.8 else est_live >= target_live)
        if admit or not live:
            specs = [churn_spec(rng, nodes) for _ in range(batch)]
            seq = client.send("admit", streams=specs)
            summary.admits_tried += 1
            window.append((seq, "admit"))
            in_flight["admit"] += 1
        else:
            sid = live.pop(rng.randrange(len(live)))
            seq = client.send("release", ids=[sid])
            summary.releases += 1
            window.append((seq, "release"))
            in_flight["release"] += 1
        summary.ops += 1
        client.flush()
        settle(pipeline - 1)
    settle(0)
    summary.seconds = time.perf_counter() - t0
    summary.live_at_end = len(live)
    summary.server_stats = _server_stats(client)
    return summary


# ---------------------------------------------------------------------- #
# Trace-driven workload
# ---------------------------------------------------------------------- #
#
# A trace is a list of JSON op records, one per line on disk:
#
#   {"op": "admit", "streams": [<spec>, ...]}
#   {"op": "release", "refs": [<handle>, ...]}
#   {"op": "fail_link", "link": [u, v]}
#   {"op": "restore_link", "link": [u, v]}
#
# Admitted streams are named by *handles*: every spec across the trace's
# admit ops gets the next integer handle in admit order, whether or not
# the broker later accepts it. Releases reference handles, never raw
# server ids, so a trace is broker-independent — the runner maps handles
# to the ids a given broker actually assigned and silently skips handles
# that were rejected, already released, or evicted by a link failure.
# Generation is a pure function of its arguments (the rng carries all
# randomness), so one seed replays byte-identically forever.


def generate_trace(
    pattern: str,
    rng: random.Random,
    nodes: int,
    *,
    ops: int = 300,
    target_live: int = 40,
    priority_levels: int = 15,
    links: Optional[Sequence[Tuple[int, int]]] = None,
    link_rate: float = 0.0,
) -> List[Dict[str, Any]]:
    """Build a replayable op trace for :func:`run_trace`.

    ``bursty`` alternates admit bursts with release waves — occupancy
    saws around ``target_live``. ``diurnal`` tracks a sinusoidal
    occupancy target over the trace, admitting on the rising edge and
    releasing on the falling edge. With ``links`` given and
    ``link_rate > 0`` both patterns interleave fail/restore events on
    random links (at most three down at once, failed links are always
    eventually restorable).
    """
    if pattern not in TRACE_PATTERNS:
        raise ReproError(
            f"unknown trace pattern {pattern!r}; "
            f"expected one of {', '.join(TRACE_PATTERNS)}"
        )
    trace: List[Dict[str, Any]] = []
    outstanding: List[int] = []  # handles the trace believes are live
    next_handle = 0
    up = sorted(tuple(sorted(l)) for l in links) if links else []
    down: List[Tuple[int, int]] = []

    def admit(count: int) -> None:
        nonlocal next_handle
        count = max(1, count)
        specs = [churn_spec(rng, nodes, priority_levels=priority_levels)
                 for _ in range(count)]
        trace.append({"op": "admit", "streams": specs})
        outstanding.extend(range(next_handle, next_handle + count))
        next_handle += count

    def release(count: int) -> None:
        refs = []
        for _ in range(min(count, len(outstanding))):
            refs.append(outstanding.pop(rng.randrange(len(outstanding))))
        if refs:
            trace.append({"op": "release", "refs": sorted(refs)})

    def maybe_link_event() -> None:
        if not up and not down:
            return
        if rng.random() >= link_rate:
            return
        # Fail when nothing is down, restore when three links already
        # are (or none are left to fail), otherwise flip a coin.
        if not down:
            fail = True
        elif len(down) >= 3 or not up:
            fail = False
        else:
            fail = rng.random() < 0.5
        if fail and up:
            link = up.pop(rng.randrange(len(up)))
            down.append(link)
            trace.append({"op": "fail_link", "link": list(link)})
        elif down:
            link = down.pop(rng.randrange(len(down)))
            up.append(link)
            up.sort()
            trace.append({"op": "restore_link", "link": list(link)})

    if pattern == "bursty":
        while len(trace) < ops:
            maybe_link_event()
            if len(outstanding) < target_live:
                for _ in range(rng.randint(2, 6)):  # admit burst
                    if len(trace) >= ops:
                        break
                    admit(rng.randint(1, 4))
            else:  # release wave sheds roughly half the live set
                release(max(1, len(outstanding) // 2))
    else:  # diurnal
        for i in range(ops):
            maybe_link_event()
            if len(trace) >= ops:
                break
            wanted = int(round(
                target_live * (0.5 + 0.5 * math.sin(
                    2.0 * math.pi * i / max(1, ops)
                ))
            ))
            if len(outstanding) <= wanted:
                admit(rng.randint(1, 3))
            else:
                release(max(1, (len(outstanding) - wanted) // 2))
    return trace[:ops]


def save_trace(path: Union[str, Path], trace: List[Dict[str, Any]]) -> None:
    """Write a trace as JSON lines (one op per line, stable key order)."""
    with open(path, "w", encoding="utf-8") as fh:
        for op in trace:
            fh.write(json.dumps(op, separators=(",", ":")) + "\n")


def load_trace(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read a JSON-lines trace written by :func:`save_trace`."""
    trace: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                op = json.loads(line)
            except ValueError as exc:
                raise ReproError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from None
            if not isinstance(op, dict) or "op" not in op:
                raise ReproError(
                    f"{path}:{lineno}: trace ops are objects with an "
                    f"'op' key"
                )
            trace.append(op)
    return trace


def run_trace(
    client: BrokerClient,
    trace: Sequence[Dict[str, Any]],
) -> LoadSummary:
    """Replay a trace through an open client, strictly in order.

    Handles map to server ids as admits are acknowledged; releases name
    handles and skip any that never admitted or that a link failure
    already evicted (the broker's eviction ids are folded back into the
    handle table), so a trace recorded against one broker replays
    cleanly against another — or against the same broker after a crash.
    """
    summary = LoadSummary()
    handle_ids: List[Optional[int]] = []  # handle -> live server id
    id_handle: Dict[int, int] = {}
    t0 = time.perf_counter()
    for op in trace:
        kind = op.get("op")
        summary.ops += 1
        if kind == "admit":
            specs = list(op.get("streams", []))
            base = len(handle_ids)
            handle_ids.extend([None] * len(specs))
            summary.admits_tried += 1
            response = client.request("admit", streams=specs)
            if response.get("ok") and response.get("admitted"):
                summary.admits_accepted += 1
                for offset, sid in enumerate(response.get("ids", [])):
                    handle_ids[base + offset] = sid
                    id_handle[sid] = base + offset
            elif not response.get("ok"):
                summary.errors += 1
        elif kind == "release":
            ids = []
            for ref in op.get("refs", []):
                if 0 <= ref < len(handle_ids) and \
                        handle_ids[ref] is not None:
                    ids.append(handle_ids[ref])
                    handle_ids[ref] = None
            if not ids:
                continue
            summary.releases += 1
            response = client.request("release", ids=ids)
            if not response.get("ok"):
                summary.errors += 1
        elif kind in ("fail_link", "restore_link"):
            summary.link_ops += 1
            response = client.request(kind, link=op["link"])
            if not response.get("ok"):
                summary.errors += 1
                continue
            for sid in (list(response.get("evicted", ()))
                        + list(response.get("disconnected", ()))):
                ref = id_handle.pop(sid, None)
                if ref is not None:
                    handle_ids[ref] = None
        else:
            raise ReproError(f"unknown trace op {kind!r}")
    summary.seconds = time.perf_counter() - t0
    summary.live_at_end = sum(1 for sid in handle_ids if sid is not None)
    summary.server_stats = _server_stats(client)
    return summary
