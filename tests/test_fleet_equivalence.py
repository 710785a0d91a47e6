"""Fuzzed proof that a fleet tenant answers exactly as one broker.

A tenant is one engine host, so every response it gives — through the
in-process fleet and through worker processes — must equal a broker's
holding the same streams, **as a whole dict** (verdicts, bounds,
closures, error strings), and the final SHA-256 fingerprints must be
identical. A seeded random campaign of admits, releases, queries,
reports and deliberate protocol errors runs against both at once.

Mid-campaign the in-process fuzz kills the tenant and fails it over (it
replays its journal, as a restart does), and the worker fuzz SIGKILLs
the worker processes; equivalence must hold straight through. At the
end an independent reading of the tenant's journal (the tailing oracle,
:class:`~repro.fleet.replication.ShardStandby`) must land on its
fingerprint.
"""

import hashlib
import json
import random
import shutil
import threading
import time

import pytest

from repro.faults.campaign import ScheduledOp, apply_outcome, build_request
from repro.fleet.client import GatewayClient
from repro.fleet.gateway import GatewayServer
from repro.fleet.replication import ShardStandby
from repro.fleet.shards import Fleet, TenantSpec
from repro.service.host import EngineHost
from repro.service.loadgen import BrokerClient, churn_spec
from repro.service.protocol import KNOWN_OPS, MUTATING_OPS, fingerprint
from repro.service.server import BrokerServer
from tests.test_fleet_shards import assert_books_exact, recovered_copy

TOPO = {"type": "mesh", "width": 6, "height": 6}
NODES = 36
OPS = 220
TARGET_LIVE = 12


def run_equivalence(seed, tmp_path, *, shards=4, ops=OPS, kills=1):
    fleet = Fleet(
        [TenantSpec("t", "key", TOPO)], shards=shards, state_dir=tmp_path
    )
    tf = fleet.tenants["t"]
    ref = EngineHost(TOPO)
    rng = random.Random(seed)
    live = []
    kill_slots = set(rng.sample(range(ops // 3, ops - 10), kills))
    recoveries = 0

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

        if i in kill_slots and live:
            assert fleet.handle_request("t", {"op": "kill"})["ok"]
            assert fleet.handle_request("t", {"op": "failover"})["ok"]
            recoveries += 1
            # The failed-over tenant answers exactly like the reference.
            request = {"op": "query", "stream": live[0]}
            assert (fleet.handle_request("t", dict(request))
                    == ref.handle_request(dict(request)))
            assert_books_exact(tf)

    fleet_sha, fleet_spec = tf.fingerprint()
    ref_sha, ref_spec = ref.fingerprint()
    assert fleet_sha == ref_sha
    assert fleet_spec == ref_spec
    # The oracle: a fresh tail of the tenant's journal agrees with it.
    oracle = ShardStandby(tmp_path / "t", TOPO)
    oracle.catch_up()
    assert oracle.fingerprint()[0] == fleet_sha
    fleet.close()
    return {"ops": ops, "recoveries": recoveries, "live": len(live)}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fleet_bit_identical_under_fuzz(seed, tmp_path):
    stats = run_equivalence(seed, tmp_path)
    assert stats["ops"] >= 200
    assert stats["recoveries"] >= 1, "campaign must exercise failover"


def test_fleet_single_shard_degenerate(tmp_path):
    """``shards=`` is accepted and ignored (the bench spine still passes
    it): a fleet built with 1 answers like one built with 4, and like
    one broker."""
    stats = run_equivalence(7, tmp_path, shards=1, ops=60, kills=1)
    assert stats["recoveries"] == 1


# --------------------------------------------------------------------- #
# Three-way: worker fleet ≡ in-process fleet ≡ broker
# --------------------------------------------------------------------- #


def run_three_way(seed, tmp_path, *, ops=OPS, workers=2, worker_kills=2):
    """Drive identical fuzzed traffic into a worker-pool fleet, an
    in-process fleet, and one engine; every response must be equal as
    a whole dict, straight through real mid-run SIGKILLs of the worker
    processes (the retryable ``worker`` code is the one tolerated, and
    only on the multiprocess side). The worker fleet's books are read
    from an in-process recovery of a copy of its state dir, at each
    kill slot and at the end."""
    tenants = [TenantSpec("t", "key", TOPO)]
    mp_state = tmp_path / "mp"
    mp = Fleet(tenants, state_dir=mp_state, workers=workers)
    ip = Fleet(tenants, state_dir=tmp_path / "ip")
    ref = EngineHost(TOPO)
    rng = random.Random(seed)
    live = []
    kill_slots = set(rng.sample(range(ops // 4, ops - 10), worker_kills))
    worker_retries = 0
    tf_ip = ip.tenants["t"]

    def ask_mp(request):
        nonlocal worker_retries
        for _ in range(64):
            response = mp.handle_request("t", dict(request))
            if response.get("code") != "worker":
                break
            worker_retries += 1
            time.sleep(0.01)
        return response

    def recovered_books():
        with recovered_copy(mp_state, tenants) as copy:
            assert_books_exact(copy.tenants["t"])
            return copy.tenants["t"].fingerprint()

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
                recovered_books()
                mp.supervisor.kill_worker(rng.randrange(workers))

            want = ref.handle_request(dict(request))
            got_ip = ip.handle_request("t", dict(request))
            got_mp = ask_mp(request)
            assert got_ip == want, (i, request, got_ip, want)
            assert got_mp == want, (i, request, got_mp, want)
            assert_books_exact(tf_ip)
            if request["op"] in ("admit", "release") and want.get("ok"):
                apply_outcome(request, want, live, [])

        mp.supervisor.ensure_all()
        restarts = sum(wp.restarts for wp in mp.supervisor.workers)
        stats = ask_mp({"op": "stats"})
        ids = ref.admitted_ids()
        mp_sha, mp_spec = fingerprint(ask_mp, ids, stats["next_id"])
        disk_sha, disk_spec = recovered_books()
        ip_sha, ip_spec = tf_ip.fingerprint()
        ref_sha, ref_spec = ref.fingerprint()
        assert mp_sha == disk_sha == ip_sha == ref_sha
        assert mp_spec == disk_spec == ip_spec == ref_spec
        # Belt and braces: hash the canonical spec ourselves so the
        # three-way identity does not lean on fingerprint() alone.
        digests = {
            hashlib.sha256(
                json.dumps(s, sort_keys=True).encode()
            ).hexdigest()
            for s in (mp_spec, disk_spec, ip_spec, ref_spec)
        }
        assert len(digests) == 1
    finally:
        mp.close()
        ip.close()

    return {
        "ops": ops,
        "worker_restarts": restarts,
        "worker_retries": worker_retries,
        "live": len(live),
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_three_way_multiprocess_equivalence(seed, tmp_path):
    stats = run_three_way(seed, tmp_path)
    assert stats["ops"] >= 200
    # Every kill slot produced a real restart mid-run.
    assert stats["worker_restarts"] >= 2


# --------------------------------------------------------------------- #
# Transport parity: one op list, every way of speaking the protocol
# --------------------------------------------------------------------- #


def _spec(src, dst, **extra):
    return {"src": src, "dst": dst, "priority": 5, "period": 300,
            "length": 4, "deadline": 300, **extra}


#: Every op and every malformed shape the parsers reject, as the request
#: objects a client sends, and every mutation once more under a rid it
#: already committed. Node 0 is a corner: failing both of its links
#: disconnects (evicts) the stream that starts there.
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
    {"op": "release", "ids": [10, 9], "rid": "parity-4"},
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
    # A fleet tenant's lifecycle ops: unknown to a broker, and to every
    # wire (the gateway runs them for /admin/* only).
    {"op": "kill"},
    {"op": "failover"},
    {"op": "report"},
]
#: What in an answer describes the server rather than the state it
#: holds: a broker's ``hello`` from a fleet's, where a snapshot went, the
#: counters behind ``stats``.
SERVER_KEYS = {
    "hello": ("server", "tenant"),
    "ping": ("server", "tenant"),
    "snapshot": ("path",),
    "stats": ("service", "engine"),
}


def _serve_on_thread(server):
    """Run the bound ``server``'s ``run`` on a thread, which a
    ``shutdown`` op ends; returns the thread."""
    thread = threading.Thread(target=server.run)
    thread.start()
    return thread


def _open_surface(surface, tmp_path):
    """``(client, thread)`` speaking to a fresh, empty server."""
    if surface in ("unix", "tcp"):
        server = BrokerServer(TOPO, state_dir=tmp_path / "broker")
        if surface == "unix":
            server.bind_unix(tmp_path / "b.sock")
            client = BrokerClient(socket_path=tmp_path / "b.sock")
        else:
            client = BrokerClient(host="127.0.0.1",
                                  port=server.bind_tcp("127.0.0.1", 0))
        return client, _serve_on_thread(server)
    fleet = Fleet(
        [TenantSpec("t", "key", TOPO)],
        workers=1 if surface == "gateway-workers" else 0,
        state_dir=tmp_path / "fleet",
    )
    gateway = GatewayServer(fleet)
    port = gateway.bind_tcp("127.0.0.1", 0)
    return (GatewayClient(f"127.0.0.1:{port}", api_key="key"),
            _serve_on_thread(gateway))


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
            if request["op"] == "stats":
                # Every surface reports its journal; nothing has
                # compacted yet.
                for stats in (want, got):
                    journal = stats["service"]["journal"]
                    assert journal["records"] > 0
                    assert journal["compactions"] == 0
                    assert journal["compaction_failures"] == 0
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


def test_gateway_bodies_are_the_same_bytes_with_and_without_workers(
    tmp_path
):
    """A worker's answer line is the HTTP body unchanged, and the
    in-process gateway encodes its answers with the same encoder: the
    same op stream gets byte-identical bodies from both surfaces, run
    one after the other on the same (emptied) state dir. The requests
    carry no ``id`` to echo; ``stats`` answers carry timings and are
    left out."""
    requests = [r for r in PARITY_OPS if r["op"] != "stats"]
    bodies = {}
    for surface in ("gateway", "gateway-workers"):
        client, thread = _open_surface(surface, tmp_path)
        try:
            got = []
            for request in requests:
                client.send_bytes(client.framing.frame(request), responses=0)
                client.flush()
                status, ctype, body = client.framing.read_response(
                    client._rfile)
                assert (status, ctype) == (200, "application/json")
                got.append(body)
        finally:
            client.request("shutdown")
            client.close()
            thread.join(timeout=60)
        assert not thread.is_alive()
        shutil.rmtree(tmp_path / "fleet")
        bodies[surface] = got
    assert len(bodies["gateway"]) == len(requests)
    for request, a, b in zip(requests, bodies["gateway"],
                             bodies["gateway-workers"]):
        assert a == b, (request, a, b)
