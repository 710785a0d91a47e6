"""Fuzzed proof that sharding + failover are invisible in every verdict.

The fleet's whole claim (finding F-7: a stream's bound depends only on
its transitive HP closure over shared channels) is that partitioning a
tenant by channel-connected components changes *nothing observable*.
This test runs a seeded random campaign — admits, releases, queries,
reports, deliberate protocol errors — against a 4-shard fleet and an
unsharded single-engine reference simultaneously, asserting every
response is equal **as a whole dict** (verdicts, bounds, closures,
error strings) and the final SHA-256 fingerprints are identical.

Mid-campaign the fuzz also kills a primary that owns live streams and
fails over to its journal-shipped standby; equivalence must hold
straight through the promotion.
"""

import asyncio
import hashlib
import json
import random
import socket
import threading
import time

import pytest

from repro.faults.campaign import ScheduledOp, apply_outcome, build_request
from repro.fleet.client import GatewayClient
from repro.fleet.gateway import GatewayServer
from repro.fleet.replication import StandbyPool
from repro.fleet.shards import Fleet, TenantSpec
from repro.service.host import EngineHost
from repro.service.loadgen import BrokerClient, churn_spec
from repro.service.protocol import KNOWN_OPS, MUTATING_OPS, fingerprint
from repro.service.server import BrokerServer
from tests.test_fleet_shards import assert_books_exact

TOPO = {"type": "mesh", "width": 6, "height": 6}
NODES = 36
OPS = 220
TARGET_LIVE = 12


def run_equivalence(seed, tmp_path, *, shards=4, ops=OPS, kills=1):
    fleet = Fleet(
        [TenantSpec("t", "key", TOPO)], shards=shards, state_dir=tmp_path
    )
    pool = StandbyPool(fleet)
    tf = fleet.tenants["t"]
    ref = EngineHost(TOPO)
    rng = random.Random(seed)
    live = []
    kill_slots = set(rng.sample(range(ops // 3, ops - 10), kills))
    promotions = 0
    max_spread = 0  # most shards simultaneously holding streams

    for i in range(ops):
        entry = ScheduledOp(
            index=i,
            rid=f"eq{seed}-{i}",
            bias=rng.random(),
            pick=rng.random(),
            spec=churn_spec(rng, NODES, priority_levels=12),
        )
        request = build_request(entry, live, target_live=TARGET_LIVE)
        roll = rng.random()
        if roll < 0.08 and live:
            request = {
                "op": "query",
                "stream": live[int(rng.random() * len(live)) % len(live)],
            }
        elif roll < 0.12:
            request = {"op": "report"}
        elif roll < 0.15:
            # Deliberate error: both sides must reject identically.
            request = {"op": "release", "ids": [9999]}

        got = fleet.handle_request("t", dict(request))
        want = ref.handle_request(dict(request))
        assert got == want, (i, request, got, want)
        if request["op"] in ("admit", "release") and got.get("ok"):
            apply_outcome(request, got, live, [])
        assert_books_exact(tf)

        max_spread = max(
            max_spread, len(set(tf.owner.values())) if tf.owner else 0
        )
        if i % 9 == 0:
            pool.catch_up()
        if i in kill_slots and tf.owner:
            victim = tf.owner[live[int(rng.random() * len(live))]]
            tf.kill_host(victim)
            pool.promote("t", victim)
            promotions += 1
            # The promoted shard answers exactly like the reference.
            probe = next(s for s, o in tf.owner.items() if o == victim)
            request = {"op": "query", "stream": probe}
            assert (fleet.handle_request("t", dict(request))
                    == ref.handle_request(dict(request)))
            assert_books_exact(tf)

    pool.catch_up()
    fleet_sha, fleet_spec = tf.fingerprint()
    ref_sha, ref_spec = ref.fingerprint()
    assert fleet_sha == ref_sha
    assert fleet_spec == ref_spec
    # Every warm standby converged to its primary too.
    for (tenant, shard), sb in pool.standbys.items():
        assert sb.fingerprint()[0] == tf.hosts[shard].fingerprint()[0]
    fleet.close()
    return {
        "ops": ops,
        "escalations": tf.escalations,
        "promotions": promotions,
        "max_spread": max_spread,
        "live": len(live),
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fleet_bit_identical_under_fuzz(seed, tmp_path):
    stats = run_equivalence(seed, tmp_path)
    assert stats["ops"] >= 200
    assert stats["promotions"] >= 1, "campaign must exercise failover"
    # The run must actually have exercised the interesting machinery:
    # streams spread over >1 shard, and at least one cross-shard
    # escalation (a batch whose component spanned shards).
    assert stats["max_spread"] >= 2
    assert stats["escalations"] >= 1


def test_fleet_single_shard_degenerate(tmp_path):
    """shards=1 is the trivial partition; equivalence is exact there
    too (guards against the fleet layer itself perturbing requests)."""
    stats = run_equivalence(7, tmp_path, shards=1, ops=60, kills=1)
    assert stats["promotions"] == 1


# --------------------------------------------------------------------- #
# Three-way: multiprocess fleet ≡ in-process fleet ≡ single engine
# --------------------------------------------------------------------- #


def run_three_way(seed, tmp_path, *, ops=OPS, workers=2, worker_kills=2):
    """Drive identical fuzzed traffic into a worker-pool fleet, an
    in-process fleet, and an unsharded engine; every response must be
    equal as a whole dict, straight through real mid-run SIGKILLs of
    the worker processes (the retryable ``worker`` code is the one
    tolerated, and only on the multiprocess side)."""
    mp = Fleet(
        [TenantSpec("t", "key", TOPO)],
        shards=4, state_dir=tmp_path / "mp", workers=workers,
    )
    ip = Fleet(
        [TenantSpec("t", "key", TOPO)],
        shards=4, state_dir=tmp_path / "ip",
    )
    ref = EngineHost(TOPO)
    rng = random.Random(seed)
    live = []
    kill_slots = set(rng.sample(range(ops // 4, ops - 10), worker_kills))
    worker_retries = 0
    max_spread = 0
    tf_mp, tf_ip = mp.tenants["t"], ip.tenants["t"]

    try:
        for i in range(ops):
            entry = ScheduledOp(
                index=i,
                rid=f"tw{seed}-{i}",
                bias=rng.random(),
                pick=rng.random(),
                spec=churn_spec(rng, NODES, priority_levels=12),
            )
            request = build_request(entry, live, target_live=TARGET_LIVE)
            roll = rng.random()
            if roll < 0.08 and live:
                request = {
                    "op": "query",
                    "stream": live[int(rng.random() * len(live))
                                   % len(live)],
                }
            elif roll < 0.12:
                request = {"op": "report"}
            elif roll < 0.15:
                request = {"op": "release", "ids": [9999]}

            if i in kill_slots:
                # Real SIGKILL of a live worker mid-campaign; ensure
                # first so every kill lands on a running process.
                mp.supervisor.ensure_all()
                mp.supervisor.kill_worker(rng.randrange(workers))

            want = ref.handle_request(dict(request))
            got_ip = ip.handle_request("t", dict(request))
            got_mp = None
            for _ in range(64):
                got_mp = mp.handle_request("t", dict(request))
                if got_mp.get("code") == "worker":
                    worker_retries += 1
                    time.sleep(0.01)
                    continue
                break
            assert got_ip == want, (i, request, got_ip, want)
            assert got_mp == want, (i, request, got_mp, want)
            assert_books_exact(tf_ip)
            assert_books_exact(tf_mp)
            if request["op"] in ("admit", "release") and want.get("ok"):
                apply_outcome(request, want, live, [])
            max_spread = max(
                max_spread,
                len(set(tf_mp.owner.values())) if tf_mp.owner else 0,
            )

        mp.supervisor.ensure_all()
        restarts = sum(wp.restarts for wp in mp.supervisor.workers)
        mp_sha, mp_spec = tf_mp.fingerprint()
        ip_sha, ip_spec = tf_ip.fingerprint()
        ref_sha, ref_spec = ref.fingerprint()
        assert mp_sha == ip_sha == ref_sha
        assert mp_spec == ip_spec == ref_spec
        # Belt and braces: hash the canonical spec ourselves so the
        # three-way identity does not lean on fingerprint() alone.
        digests = {
            hashlib.sha256(
                json.dumps(s, sort_keys=True).encode()
            ).hexdigest()
            for s in (mp_spec, ip_spec, ref_spec)
        }
        assert len(digests) == 1
    finally:
        mp.close()
        ip.close()

    return {
        "ops": ops,
        "worker_restarts": restarts,
        "worker_retries": worker_retries,
        "escalations": tf_mp.escalations,
        "max_spread": max_spread,
        "live": len(live),
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_three_way_multiprocess_equivalence(seed, tmp_path):
    stats = run_three_way(seed, tmp_path)
    assert stats["ops"] >= 200
    # Every kill slot produced a real restart mid-run, and the
    # campaign exercised the cross-shard machinery on both fleets.
    assert stats["worker_restarts"] >= 2
    assert stats["max_spread"] >= 2
    assert stats["escalations"] >= 1


# --------------------------------------------------------------------- #
# Transport parity: one op list, every way of speaking the protocol
# --------------------------------------------------------------------- #


def _spec(src, dst, **extra):
    return {"src": src, "dst": dst, "priority": 5, "period": 300,
            "length": 4, "deadline": 300, **extra}


#: Every op and every malformed shape the parsers reject, as the request
#: objects a client sends, and every mutation once more under a rid it
#: already committed. Node 0 is a corner: failing both of its links
#: disconnects (evicts) the stream that starts there. On a two-shard
#: fleet, stream 7 and 10 live on one shard, 8 and 9 on the other.
PARITY_OPS = [
    {"op": "hello"},
    {"op": "admit", "streams": [_spec(0, 2)]},
    {"op": "admit", "streams": [_spec(30, 32, id=7)], "analysis": "kim98"},
    {"op": "admit", "streams": [_spec(12, 15), _spec(18, 21)],
     "rid": "parity-1"},
    {"op": "admit", "streams": [_spec(12, 15), _spec(18, 21)],
     "rid": "parity-1"},                                    # rid replay
    {"op": "admit", "streams": [_spec(0, 5, length=50, deadline=10)]},
    {"op": "query", "stream": 7},
    {"op": "report"},
    {"op": "links"},
    {"op": "fail_link", "link": [0, 1]},
    {"op": "fail_link", "link": [0, 6], "rid": "parity-2"},  # evicts 0
    {"op": "fail_link", "link": [0, 6], "rid": "parity-2"},
    {"op": "fail_link", "link": [0, 1]},                # already failed
    {"op": "restore_link", "link": [2, 3]},             # not failed
    {"op": "restore_link", "link": [1, 0]},
    {"op": "fail_link", "link": [31, 32]},                  # reroutes 7
    {"op": "restore_link", "link": [32, 31], "rid": "parity-3"},
    {"op": "restore_link", "link": [32, 31], "rid": "parity-3"},
    {"op": "fail_link", "link": [0, 1, 2]},
    {"op": "fail_link", "link": [0, 7]},                # not a channel
    {"op": "fail_link", "link": "0-1"},
    {"op": "admit", "streams": [_spec(33, 35)]},
    {"op": "release", "ids": [10, 9], "rid": "parity-4"},  # spans shards
    {"op": "release", "ids": [10, 9], "rid": "parity-4"},
    {"op": "release", "ids": [7]},
    {"op": "release", "ids": []},
    {"op": "release", "ids": "7"},
    {"op": "release", "ids": [True]},
    {"op": "release", "ids": [8.5]},
    {"op": "release", "ids": [9999]},                   # unknown id
    {"op": "query"},
    {"op": "query", "stream": False},
    {"op": "query", "stream": float("inf")},    # JSON ``Infinity``
    {"op": "query", "stream": 9999},
    {"op": "admit", "streams": "all of them"},
    {"op": "admit", "streams": []},
    {"op": "admit", "streams": ["not an object"]},
    {"op": "admit", "streams": [{"src": 0, "dst": 2}]},     # bad spec
    {"op": "admit", "streams": [_spec(0, 99)]},
    {"op": "admit", "streams": [_spec(3, 4, id=True)]},
    {"op": "admit", "streams": [_spec(3, 4, id=2.5)]},
    {"op": "admit", "streams": [_spec(3, 4)], "analysis": "no-such"},
    {"op": "admit", "streams": [_spec(3, 4)], "analysis": 3},
    {"op": "admit", "streams": [_spec(3, 4)], "rid": ""},
    {"op": "release", "ids": [1], "rid": 5},
    # One request may be large (a ~600-stream admit is this size): every
    # transport frames up to 8 MiB, not one stream reader's 64 KiB.
    {"op": "ping", "padding": "x" * 70_000},
    {"op": "stats"},
    {"op": "snapshot"},
    {"op": "report"},
]
#: What in an answer describes the server rather than the state it
#: holds: a broker's ``hello`` from a fleet's, where a snapshot went, the
#: counters behind ``stats``.
SERVER_KEYS = {
    "hello": ("server", "shards", "tenant"),
    "ping": ("server", "shards", "tenant"),
    "snapshot": ("path", "paths"),
    "stats": ("service", "engine", "shards", "escalations",
              "migrated_streams"),
}


def _serve_on_thread(start):
    """Run ``server = await start()`` and its ``serve_forever`` on a
    background event loop; returns ``(server, thread)`` once it
    listens. A ``shutdown`` op ends it."""
    ready = threading.Event()
    box = {}

    async def main():
        try:
            box["server"] = server = await start()
        finally:
            ready.set()
        await asyncio.wait_for(server.serve_forever(), timeout=120)

    thread = threading.Thread(target=lambda: asyncio.run(main()))
    thread.start()
    assert ready.wait(timeout=60) and "server" in box, "did not start"
    return box["server"], thread


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _open_surface(surface, tmp_path):
    """``(client, thread)`` speaking to a fresh, empty server."""
    if surface in ("unix", "tcp"):
        port = _free_port()

        async def start():
            server = BrokerServer(TOPO, state_dir=tmp_path / "broker")
            if surface == "unix":
                await server.start_unix(tmp_path / "b.sock")
            else:
                await server.start_tcp("127.0.0.1", port)
            return server

        _, thread = _serve_on_thread(start)
        if surface == "unix":
            return BrokerClient(socket_path=tmp_path / "b.sock"), thread
        return BrokerClient(host="127.0.0.1", port=port), thread
    workers = 1 if surface == "gateway-workers" else 0

    async def start():
        fleet = Fleet(
            [TenantSpec("t", "key", TOPO)], shards=2, workers=workers,
            state_dir=tmp_path / "fleet",
        )
        gateway = GatewayServer(fleet, poll_interval=0.05)
        await gateway.start("127.0.0.1", 0)
        return gateway

    gateway, thread = _serve_on_thread(start)
    return GatewayClient(f"127.0.0.1:{gateway.port}", api_key="key"), thread


@pytest.mark.parametrize(
    "surface", ["unix", "tcp", "gateway", "gateway-workers"]
)
def test_transport_parity(surface, tmp_path):
    """The same requests get the same answers — whole dicts, error
    text and ``code`` included — from ``EngineHost.handle_request`` and
    over every wire, and leave the same observable state behind. The
    op table drives the coverage: every op is sent (``shutdown`` last,
    below), and every mutation is replayed under a committed rid."""
    assert {r["op"] for r in PARITY_OPS} | {"shutdown"} == set(KNOWN_OPS)
    ref = EngineHost(TOPO, state_dir=tmp_path / "ref")
    client, thread = _open_surface(surface, tmp_path)

    def ask(request):
        fields = {k: v for k, v in request.items() if k != "op"}
        response = client.request(request["op"], **fields)
        response.pop("id")
        return response

    try:
        rejected = 0
        replayed = set()
        for request in PARITY_OPS:
            want = ref.handle_request(json.loads(json.dumps(request)))
            got = ask(request)
            for key in SERVER_KEYS.get(request["op"], ()):
                want.pop(key, None)
                got.pop(key, None)
            assert got == want, (request, got, want)
            # A refusal is the parsers' or the engine's, never the
            # last-resort ``internal`` guard.
            assert want.get("code") != "internal", want
            rejected += not want["ok"]
            if want.get("duplicate"):
                replayed.add(request["op"])
        assert rejected >= 25, "the malformed shapes must all be refused"
        assert replayed == MUTATING_OPS
        ids = sorted(int(sid) for sid in
                     ref.handle_request({"op": "report"})["report"]["streams"])
        assert ids, "the campaign must leave streams behind"
        assert (fingerprint(ask, ids, None)
                == fingerprint(ref.handle_request, ids, None))
    finally:
        client.request("shutdown")
        client.close()
        thread.join(timeout=60)
        ref.close()
    assert not thread.is_alive()
