"""Replay applies, reads settle: settle points cannot matter.

The engine's structural mutators (``adopt`` / ``retire``) only mark the
verdicts an op invalidates; the next reader recomputes them. ``Cal_U`` is
a pure function of the final closure, so *where* the reads fall in a
replayed journal must not change a single bit of the recovered state —
for mixed bound backends, through link ops (which settle on entry,
because their eviction fixpoint decides), through cache storms, and
whether the records are applied directly or shipped to a warm standby.
Every engine in the fuzz is shadowed by the from-scratch reference
(``tests/reference/engine.py``), so each decision of the live run —
rejected batches and link-op evictions included — and each read of a
replay is also checked against full reanalysis. The counting cases fail
on the pre-settle engine: replay used to re-decide every record.
"""

import contextlib
import functools
import gc
import json
import random
import tempfile
import tracemalloc
from pathlib import Path

import pytest

from repro.errors import ReproError, RoutingError
from repro.fleet.replication import ShardStandby
from repro.service.host import EngineHost
from repro.service.protocol import encode
from repro.topology import normalize_link
from tests.reference import shadow

SPEC = {"type": "mesh", "width": 5, "height": 5}
DENSE_SPEC = {"type": "mesh", "width": 8, "height": 8, "routing": "default"}


def rand_spec(rng, nodes, *, levels=8, period=(60, 240), length=(1, 5)):
    src = rng.randrange(nodes)
    dst = rng.randrange(nodes)
    while dst == src:
        dst = rng.randrange(nodes)
    t = rng.randint(*period)
    return {"src": src, "dst": dst, "priority": rng.randint(1, levels),
            "period": t, "length": rng.randint(*length),
            "deadline": rng.randint(t // 2, t)}


def ask(host, request):
    response = host.handle_request(request)
    assert response["ok"], response
    return response


def fuzz_spec(rng, host):
    """A random stream; every third one barely feasible (deadline within
    two flit times of its no-load latency), so that the detour around a
    failed link costs it the deadline and the link op evicts it."""
    spec = rand_spec(rng, host.topology.num_nodes)
    if rng.random() < 0.35:
        try:
            hops = host.routing.hop_count(spec["src"], spec["dst"])
        except RoutingError:
            return spec
        spec["deadline"] = hops + spec["length"] - 1 + rng.randint(0, 2)
    return spec


def run_fuzz_schedule(host, seed):
    """60-120 live ops: admit batches under mixed backends and releases
    churning around 14 live streams, and fail_link / restore_link on
    links that live streams use. Returns ``(link ops, evictions,
    rejected admits)``."""
    rng = random.Random(f"replay-settle-{seed}")
    failed, link_ops, evictions, rejected = [], 0, 0, 0
    for _ in range(rng.randint(60, 120)):
        live = host.admitted_ids()
        roll = rng.random()
        if live and roll < 0.12:
            if failed and (len(failed) >= 3 or rng.random() < 0.3):
                link = failed.pop(rng.randrange(len(failed)))
                response = ask(host, {"op": "restore_link", "link": link})
            else:
                stream = host.engine.admitted[rng.choice(live)]
                link = list(normalize_link(*rng.choice(
                    host.routing.route_channels(stream.src, stream.dst)
                )))
                failed.append(link)
                response = ask(host, {"op": "fail_link", "link": link})
            link_ops += 1
            evictions += len(response["evicted"])
        elif not live or (len(live) < 14) == (rng.random() < 0.8):
            response = host.handle_request({
                "op": "admit",
                "streams": [fuzz_spec(rng, host)
                            for _ in range(rng.randint(1, 3))],
                "analysis": rng.choice(["kim98", "tighter"]),
            })
            # A rejection is an answer; a pair the failed links
            # disconnect is an error that must leave nothing behind.
            assert response["ok"] or "no route" in response["error"]
            rejected += response["ok"] and not response["admitted"]
        else:
            ask(host, {"op": "release",
                       "ids": rng.sample(live, min(len(live),
                                                   rng.randint(1, 2)))})
    return link_ops, evictions, rejected


def journal_records(state_dir):
    lines = (state_dir / "journal.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


def replay(records, read_at, rng, *, storm=False, ship_dir=None):
    """Replay ``records`` into a fresh in-memory host with a shadowed
    engine, reading a verdict (a ``report`` or a ``query`` of a live id)
    after each position in ``read_at``. With ``ship_dir`` the host is a
    warm standby's and the records reach it the way a primary's do:
    appended to the journal file it tails, caught up before each read.
    With ``storm`` a cache storm precedes each read."""
    with contextlib.ExitStack() as stack:
        if ship_dir is None:
            host = EngineHost(SPEC)
            feed, catch_up = host.apply_journal_op, (lambda: None)
        else:
            ship_dir.mkdir()
            standby = ShardStandby(ship_dir, SPEC)
            host, catch_up = standby.host, standby.catch_up
            journal = stack.enter_context(
                open(ship_dir / "journal.jsonl", "ab", buffering=0)
            )

            def feed(record):
                journal.write(encode(record))

        shadow(host)
        for pos, record in enumerate(records):
            feed(record)
            if pos in read_at:
                catch_up()
                if storm:
                    host.engine.invalidate_caches()
                live = host.admitted_ids()
                if live and rng.random() < 0.5:
                    ask(host, {"op": "query", "stream": rng.choice(live)})
                else:
                    ask(host, {"op": "report"})
        catch_up()
    return host


@functools.lru_cache(maxsize=None)
def live_run(seed):
    """One journaled, shadowed live run of the fuzz schedule; returns
    ``(state SHA, journal records)``."""
    with tempfile.TemporaryDirectory() as state_dir:
        live = EngineHost(SPEC, state_dir=state_dir)
        oracle = shadow(live)
        link_ops, evictions, rejected = run_fuzz_schedule(live, seed)
        assert link_ops >= 3 and evictions >= 1 and rejected >= 1
        assert oracle.compared >= 60
        live_sha, _ = live.fingerprint()
        live.close()
        return live_sha, journal_records(Path(state_dir))


@pytest.mark.parametrize("standby", [True, False])
@pytest.mark.parametrize("storm", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_settle_points_cannot_matter(tmp_path, seed, storm, standby):
    live_sha, records = live_run(seed)
    assert {r["op"] for r in records} >= {
        "admit", "release", "fail_link", "restore_link"
    }
    assert {r["analysis"] for r in records if r["op"] == "admit"} == {
        "kim98", "tighter"
    }

    rng = random.Random(seed)
    positions = range(len(records))
    subsets = [set(), set(positions)] + [
        {p for p in positions if rng.random() < density}
        for density in (0.1, 0.3, 0.6)
    ]
    for n, read_at in enumerate(subsets):
        host = replay(
            records, read_at, rng, storm=storm,
            ship_dir=tmp_path / f"shipped-{n}" if standby else None,
        )
        sha, _ = host.fingerprint()
        assert sha == live_sha, f"diverged with reads at {sorted(read_at)}"
        assert host.engine.stale == 0
        assert host.engine.compared > len(read_at)


# ---------------------------------------------------------------------- #
# Counting: replay marks, it does not decide
# ---------------------------------------------------------------------- #


def run_dense_schedule(host, *, ops=70, live_target=44,
                       seed="replay-settle-dense"):
    """Link-free churn at >= 40 live streams on 4 priority levels."""
    rng = random.Random(seed)
    nodes = host.topology.num_nodes

    def admit():
        return ask(host, {
            "op": "admit", "analysis": "kim98",
            "streams": [rand_spec(rng, nodes, levels=4, period=(300, 900),
                                  length=(1, 4))],
        })["admitted"]

    while host.admitted_count() < live_target:
        admit()
    for _ in range(ops):
        live = host.admitted_ids()
        if len(live) < live_target or rng.random() < 0.3:
            admit()
        else:
            ask(host, {"op": "release", "ids": [rng.choice(live)]})


@pytest.fixture()
def dense_state(tmp_path):
    """A journaled dense run; yields ``(state_dir, live host)``."""
    host = EngineHost(DENSE_SPEC, state_dir=tmp_path)
    run_dense_schedule(host)
    yield tmp_path, host
    host.close()


#: From the commit before settle-on-read (67fc578), same schedule, less
#: one verdict: the first admit no longer takes a full rebuild that
#: bypassed the memo, so its verdict is memoized and its recurrence hits.
PARENT_DENSE_STATS = {
    "verdicts_recomputed": 347, "dirty_total": 371,
    "verdict_memo_hits": 24, "verdicts_reused": 3694,
}


def test_live_path_does_the_same_work_as_before(dense_state):
    """``release`` is ``retire`` + ``_settle`` and ``try_admit`` settles
    on entry: the live path recomputes the same verdicts at the same
    moments. Values recorded on the commit before settle-on-read."""
    _, host = dense_state
    stats = host.engine_stats()
    assert host.admitted_count() >= 40
    assert {
        key: stats[key] for key in (
            "verdicts_recomputed", "dirty_total",
            "verdict_memo_hits", "verdicts_reused",
        )
    } == PARENT_DENSE_STATS
    assert stats["stale"] == 0


def test_a_memo_hit_builds_no_hp_set(dense_state):
    """The memo is keyed by the closure's members, not by its HP set:
    only a verdict that is computed builds one (from the reach sets)."""
    _, host = dense_state
    stats = host.engine_stats()
    assert stats["verdict_memo_hits"] > 0
    assert stats["hp_rebuilt"] == stats["verdicts_recomputed"]


#: Bytes one memo entry may keep alive: its key is a pointer per closure
#: member plus the verdict (about 0.5 KiB here); keyed by the HP set it
#: held every member's intermediates too (about 2 KiB).
MEMO_ENTRY_CEILING = 1024


def test_a_memo_entry_stays_small(tmp_path):
    """What clearing the memo frees after the dense schedule, per entry:
    the bytes only the memo retains (keys and the verdicts they hold).
    The memo sheds the keys that name released streams, so one run
    leaves about a hundred entries: the sample is four seeds of it."""
    entries = freed = 0
    tracemalloc.start()
    try:
        for seed in range(4):
            host = EngineHost(DENSE_SPEC, state_dir=tmp_path / str(seed))
            try:
                run_dense_schedule(host, seed=f"replay-settle-dense-{seed}")
                memo = host.engine._verdict_memo
                entries += len(memo)
                gc.collect()
                held = tracemalloc.get_traced_memory()[0]
                memo.clear()
                gc.collect()
                freed += held - tracemalloc.get_traced_memory()[0]
            finally:
                host.close()
    finally:
        tracemalloc.stop()
    assert entries >= 300
    assert freed / entries < MEMO_ENTRY_CEILING


def test_replay_recomputes_each_survivor_at_most_once(dense_state):
    state_dir, live = dense_state
    records = journal_records(state_dir)
    assert len(records) >= 100
    host = EngineHost(DENSE_SPEC)
    for record in records:
        host.apply_journal_op(record)
    assert host.engine_stats()["verdicts_recomputed"] == 0
    assert host.fingerprint()[0] == live.fingerprint()[0]
    assert (host.engine_stats()["verdicts_recomputed"]
            <= host.admitted_count())


def test_caught_up_standby_has_decided_nothing(dense_state):
    state_dir, live = dense_state
    standby = ShardStandby(state_dir, DENSE_SPEC)
    assert standby.catch_up() >= 100
    stats = standby.host.engine_stats()
    assert stats["verdicts_recomputed"] == 0
    assert 0 < stats["stale"] <= live.admitted_count()
    assert standby.fingerprint()[0] == live.fingerprint()[0]
    stats = standby.host.engine_stats()
    assert stats["stale"] == 0
    assert 0 < stats["verdicts_recomputed"] <= live.admitted_count()


# ---------------------------------------------------------------------- #
# The kept fatal check: a journal the engine disagrees with
# ---------------------------------------------------------------------- #

GOOD = {"id": 0, "src": 0, "dst": 3, "priority": 2, "period": 100,
        "length": 4, "deadline": 100}
#: Eight hops, eight flits: no network delivers that in two flit times.
HOPELESS = {"id": 1, "src": 0, "dst": 24, "priority": 1, "period": 100,
            "length": 8, "deadline": 2}


def write_bad_state(state_dir, tail=()):
    """A state dir by hand: a valid snapshot, then a journal that admits
    a stream no engine could have accepted."""
    (state_dir / "snapshot.json").write_text(json.dumps({
        "topology": SPEC, "streams": [GOOD], "next_id": 1,
    }))
    records = [{"op": "admit", "streams": [HOPELESS], "analysis": "kim98"},
               *tail]
    (state_dir / "journal.jsonl").write_text("".join(
        json.dumps(r, separators=(",", ":"), sort_keys=True) + "\n"
        for r in records
    ))
    return disk(state_dir)


def disk(state_dir):
    return {p.name: p.read_bytes() for p in state_dir.iterdir()}


def test_recovery_refuses_an_infeasible_journal_before_compacting(tmp_path):
    before = write_bad_state(tmp_path)
    with pytest.raises(ReproError, match=r"journal replay failed.*\[1\]"):
        EngineHost(SPEC, state_dir=tmp_path)
    # No compaction of a bad state: the evidence is still on disk.
    assert disk(tmp_path) == before


def test_promotion_refuses_an_infeasible_journal(tmp_path):
    before = write_bad_state(tmp_path)
    standby = ShardStandby(tmp_path, SPEC)
    assert standby.catch_up() == 1   # replay applies without deciding ...
    _, spec = standby.fingerprint()  # ... and a read tells the truth
    assert spec["report"]["success"] is False
    with pytest.raises(ReproError, match="journal replay failed"):
        standby.promote()
    assert disk(tmp_path) == before


def test_link_op_does_not_evict_what_the_journal_wrongly_admitted(tmp_path):
    """A replayed link op settles first, and its eviction fixpoint would
    quietly drop the bad stream; the check runs before the swap."""
    before = write_bad_state(
        tmp_path, tail=[{"op": "fail_link", "link": [12, 13]}]
    )
    with pytest.raises(ReproError, match=r"journal replay failed.*\[1\]"):
        EngineHost(SPEC, state_dir=tmp_path)
    assert disk(tmp_path) == before
    standby = ShardStandby(tmp_path, SPEC)
    with pytest.raises(ReproError, match="journal replay failed"):
        standby.catch_up()
