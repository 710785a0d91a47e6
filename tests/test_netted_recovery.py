"""Netted recovery is per-record replay, minus the streams that die young.

Restart recovery pairs each journaled admission with the later release
that retires it (no link op between) and never attaches either side
(:func:`repro.service.host.netted_ids`). Per-record replay through
:meth:`EngineHost.apply_journal_op` with nothing netted is the oracle:
on random journals — churn, batch releases, link ops with evictions,
ids released and re-admitted under an explicit id, rids, mixed backends,
snapshots mid-run and torn tails — both must leave the same
fingerprint, rid table, fresh-id mark and files on disk, and a corrupt
journal must fail the same way (exception type and message) in both.

The sweep runs 300 journals nightly (``-m slow``).
"""

import json
import random
import shutil

import pytest

from repro.core import backends
from repro.errors import ReproError, RoutingError, StreamError
from repro.io import stream_to_spec
from repro.service import host as host_module
from repro.service.host import EngineHost, netted_ids
from repro.service.persistence import COMPACT_AT, BrokerState
from repro.service.protocol import encode
from repro.topology import normalize_link
from tests.test_replay_settle import SPEC, disk, fuzz_spec


def journaled_run(state_dir, seed, *, ops=120, snapshots=True):
    """A live host on ``state_dir`` through ``ops`` random requests
    (``snapshot`` ops among them unless ``snapshots`` is false); the
    journal it leaves (plus, at some seeds, a torn tail) is what the
    recoveries below read."""
    rng = random.Random(f"netted-recovery-{seed}")
    host = EngineHost(SPEC, state_dir=state_dir)
    names = list(backends.names())
    failed, released = [], {}
    for n in range(ops):
        live = host.admitted_ids()
        roll = rng.random()
        request = {"rid": f"r{seed}-{n}"} if rng.random() < 0.4 else {}
        if live and roll < 0.08:
            if failed and (len(failed) >= 2 or rng.random() < 0.4):
                request.update(op="restore_link",
                               link=failed.pop(rng.randrange(len(failed))))
            else:
                stream = host.engine.admitted[rng.choice(live)]
                link = list(normalize_link(*rng.choice(
                    host.routing.route_channels(stream.src, stream.dst)
                )))
                failed.append(link)
                request.update(op="fail_link", link=link)
        elif roll < 0.095 and snapshots:
            request.update(op="snapshot")
        elif released and roll < 0.25:
            # The same id, released here, admitted again.
            sid = rng.choice(sorted(released))
            request.update(op="admit", streams=[released.pop(sid)],
                           analysis=rng.choice(names))
        elif not live or (len(live) < 10) == (rng.random() < 0.75):
            request.update(op="admit", analysis=rng.choice(names), streams=[
                fuzz_spec(rng, host) for _ in range(rng.randint(1, 3))
            ])
        else:
            ids = rng.sample(live, min(len(live), rng.randint(1, 3)))
            for sid in ids:
                released[sid] = stream_to_spec(host.engine.admitted[sid])
            request.update(op="release", ids=ids)
        host.handle_request(request)
    host.close()
    journal = state_dir / "journal.jsonl"
    if rng.random() < 0.3:
        record = encode({"op": "release", "ids": [0]})
        with open(journal, "ab") as fh:
            fh.write(record[:rng.randint(1, len(record) - 2)])


def per_record_recovery(state_dir):
    """The oracle: every record through ``apply_journal_op`` with
    nothing netted, then the same settle check and compaction."""
    host = EngineHost(SPEC)
    host.state = BrokerState(state_dir, SPEC)
    rec = host.state.recover()
    host.load_snapshot(rec)
    for op in rec.ops:
        host.apply_journal_op(op)
    host._check_replayed()
    if rec.snapshot or rec.ops or rec.torn_tail:
        host.compact()
    return host


def recovered(recover, state_dir):
    """What a recovery leaves: its error, or the state it promises."""
    try:
        host = recover(state_dir)
    except (ReproError, KeyError, ValueError, TypeError) as exc:
        return type(exc), str(exc), disk(state_dir)
    assert not host.engine._netted
    state = (host.fingerprint(), list(host._applied.items()),
             host.next_id, host.admitted_count())
    host.close()
    return state, disk(state_dir)


def assert_same_recovery(state_dir, tmp_path):
    """Recover copies of ``state_dir`` netted and per record; returns
    the netted outcome."""
    copies = []
    for name in ("netted", "per-record"):
        copies.append(tmp_path / name)
        shutil.copytree(state_dir, copies[-1])
    got = recovered(lambda d: EngineHost(SPEC, state_dir=d), copies[0])
    want = recovered(per_record_recovery, copies[1])
    assert got == want
    return got


def corruptions(records, rng):
    """Journals one edit away from ``records``: a record dropped, one
    repeated, a release moved one record earlier."""
    out = []
    if records:
        pos = rng.randrange(len(records))
        out.append(records[:pos] + records[pos + 1:])
        pos = rng.randrange(len(records))
        out.append(records[:pos + 1] + records[pos:])
    releases = [p for p, r in enumerate(records)
                if r["op"] == "release" and p > 0]
    if releases:
        pos = rng.choice(releases)
        edited = list(records)
        edited[pos - 1], edited[pos] = edited[pos], edited[pos - 1]
        out.append(edited)
    return out


def check_seed(seed, tmp_path):
    """One random journal and its corruptions, recovered both ways;
    returns ``(streams netted, recoveries that failed)``."""
    state_dir = tmp_path / "state"
    journaled_run(state_dir, seed)
    lines = (state_dir / "journal.jsonl").read_bytes().split(b"\n")
    records = [json.loads(line) for line in lines[:-1]]
    netted = sum(map(len, netted_ids(records)))
    assert_same_recovery(state_dir, tmp_path / "whole")
    failures = 0
    rng = random.Random(seed)
    for n, edited in enumerate(corruptions(records, rng)):
        (state_dir / "journal.jsonl").write_bytes(
            b"".join(encode(r) for r in edited) + lines[-1]
        )
        got = assert_same_recovery(state_dir, tmp_path / f"edit-{n}")
        failures += len(got) == 3
    shutil.rmtree(state_dir)
    return netted, failures


def test_netted_recovery_matches_per_record_replay(tmp_path):
    netted = failures = 0
    for seed in range(10):
        got = check_seed(seed, tmp_path / str(seed))
        netted += got[0]
        failures += got[1]
    # The sample must exercise both halves: pairs to net, and
    # corruptions that recovery refuses.
    assert netted >= 150
    assert failures >= 10


@pytest.mark.slow
def test_netted_recovery_sweep_nightly(tmp_path):
    for seed in range(10, 310):
        check_seed(seed, tmp_path / str(seed))


def journal_records(state_dir):
    return len((state_dir / "journal.jsonl").read_bytes().splitlines())


@pytest.mark.parametrize("trigger", ["off", "on"])
def test_journals_across_the_compaction_threshold(
    tmp_path, monkeypatch, trigger
):
    """More than ``COMPACT_AT`` records, no ``snapshot`` op: with the
    size trigger off (a journal as older code left it) recovery reads
    them all; on, the host compacted on its own and recovery reads a
    snapshot and the short journal after it. Netted and per record
    agree on both."""
    if trigger == "off":
        monkeypatch.setattr(host_module, "COMPACT_AT", 1 << 30)
    state_dir = tmp_path / "state"
    journaled_run(state_dir, 7, ops=COMPACT_AT + 600, snapshots=False)
    records = journal_records(state_dir)
    if trigger == "off":
        assert records > COMPACT_AT
        assert not (state_dir / "snapshot.json").exists()
    else:
        assert 0 < records < COMPACT_AT
        assert (state_dir / "snapshot.json").exists()
    state, _ = assert_same_recovery(state_dir, tmp_path)
    assert state[3] > 0


# ---------------------------------------------------------------------- #
# Pairing
# ---------------------------------------------------------------------- #


def admit(*ids):
    return {"op": "admit", "streams": [{"id": i} for i in ids]}


def release(*ids):
    return {"op": "release", "ids": list(ids)}


def test_pairs_are_per_occurrence():
    """An id released and admitted again: each round trip pairs on its
    own, and the last admission stays live."""
    ops = [admit(1, 2), release(1), admit(1), release(1, 2), admit(1)]
    assert netted_ids(ops) == [{1, 2}, set(), {1}, set(), set()]


def test_a_link_op_breaks_every_open_pair():
    ops = [admit(1), admit(2), {"op": "fail_link", "link": [0, 1]},
           release(1), admit(3), release(2, 3)]
    assert netted_ids(ops) == [set(), set(), set(), set(), {3}, set()]


def test_unreadable_records_pair_nothing():
    ops = [admit(1), {"op": "admit", "streams": "x"}, release("1", True),
           {"op": "release"}, admit(True), release(1)]
    assert netted_ids(ops) == [{1}, set(), set(), set(), set(), set()]


# ---------------------------------------------------------------------- #
# Corrupt journals fail as they did
# ---------------------------------------------------------------------- #

STREAM = {"src": 6, "dst": 8, "priority": 2, "period": 100, "length": 2,
          "deadline": 100}


def write_state(state_dir, records, *, streams=(), failed_links=()):
    (state_dir / "snapshot.json").write_text(json.dumps({
        "topology": SPEC, "streams": list(streams), "next_id": 10,
        "failed_links": list(failed_links),
    }))
    (state_dir / "journal.jsonl").write_bytes(
        b"".join(encode(r) for r in records)
    )


def entry(sid, **fields):
    return {"id": sid, **STREAM, **fields}


def stream_admit(*entries):
    return {"op": "admit", "streams": list(entries)}


#: Node 0 has two links; with both down it reaches nothing.
CUT_OFF_NODE_0 = [[0, 1], [0, 5]]

CORRUPT = {
    # A netted admit of an id the snapshot holds.
    "duplicate": (
        [stream_admit(entry(4, priority=3)), release(4)], [],
        StreamError, "duplicate stream id(s) in admission request: [4]",
    ),
    # An admit of an id held netted ("5" pairs nothing, coerces to 5).
    "duplicate of a netted id": (
        [stream_admit(entry(5)), stream_admit(entry("5")), release(5)], [],
        StreamError, "duplicate stream id(s) in admission request: [5]",
    ),
    "unknown": (
        [stream_admit(entry(5)), release(5, 9)], [],
        StreamError, "cannot release stream id(s) [9]: not admitted",
    ),
    # A release of a netted id that pairs nothing ("5"): the id's
    # paired release comes second and finds it gone.
    "released twice": (
        [stream_admit(entry(5)), release("5"), release(5)], [],
        StreamError, "cannot release stream id(s) [5]: not admitted",
    ),
    # A netted admit of a pair the failed links disconnect.
    "disconnected": (
        [stream_admit(entry(5, src=0)), release(5)], CUT_OFF_NODE_0,
        RoutingError, "no route",
    ),
}


@pytest.mark.parametrize("case", sorted(CORRUPT))
def test_a_corrupt_journal_fails_as_per_record_replay_does(tmp_path, case):
    """Each raises what per-record replay raised, and nothing is
    compacted."""
    records, failed, error, message = CORRUPT[case]
    write_state(tmp_path, records, streams=[entry(4)], failed_links=failed)
    assert netted_ids(records)[0] == {records[0]["streams"][0]["id"]}
    before = disk(tmp_path)
    with pytest.raises(error) as netted:
        EngineHost(SPEC, state_dir=tmp_path)
    assert message in str(netted.value)
    assert disk(tmp_path) == before
    with pytest.raises(error) as per_record:
        per_record_recovery(tmp_path)
    assert (type(per_record.value), str(per_record.value)) == \
        (type(netted.value), str(netted.value))
    assert disk(tmp_path) == before


def test_recovery_logs_what_it_netted(tmp_path, caplog):
    write_state(tmp_path, [
        stream_admit(entry(5), entry(6)), release(5), stream_admit(entry(7)),
    ], streams=[entry(4)])
    with open(tmp_path / "journal.jsonl", "ab") as fh:
        fh.write(b'{"op":"rel')
    with caplog.at_level("INFO", logger="repro.service.host"):
        EngineHost(SPEC, state_dir=tmp_path).close()
    (line,) = [r.getMessage() for r in caplog.records
               if r.name == "repro.service.host"]
    assert (": 3 journal records, 3 streams attached, 1 netted, "
            "torn tail dropped, ") in line
