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

import hashlib
import json
import random
import time

import pytest

from repro.faults.campaign import ScheduledOp, _apply_outcome, build_request
from repro.fleet.replication import StandbyPool
from repro.fleet.shards import Fleet, TenantSpec
from repro.service.host import EngineHost
from repro.service.loadgen import churn_spec
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
            _apply_outcome(request, got, live, [])
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
                _apply_outcome(request, want, live, [])
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
