"""The journal-tailing oracle: tailer edges, replica convergence,
promotion verified against a disk recovery.

No served path tails journals (a fleet fails a tenant over by
replaying its journal, as a restart does); the tailer is the second, independent
reading of a journal that recovery is checked against. The dangerous
cases are all races between the primary's compaction and the replica's
tail offset; each detection mechanism (file shrank, consumed-prefix SHA
mismatch, snapshot SHA changed at offset zero) gets a test that would
fail if that mechanism were removed.
"""

import json

import pytest

from repro.faults.plane import InjectedCrash
from repro.fleet.replication import JournalTailer, ShardStandby
from repro.service.host import EngineHost
from repro.service.persistence import COMPACT_AT
from tests.test_service_faults import fail_compaction_step

TOPO = {"type": "mesh", "width": 4, "height": 4}


def spec(src, dst, *, priority=5, period=300, length=4, deadline=300):
    return {"src": src, "dst": dst, "priority": priority, "period": period,
            "length": length, "deadline": deadline}


def record(op):
    return (json.dumps(op, separators=(",", ":"), sort_keys=True)
            + "\n").encode("utf-8")


# ---------------------------------------------------------------------- #
# JournalTailer
# ---------------------------------------------------------------------- #


class TestJournalTailer:
    def test_missing_file_is_empty_not_compacted(self, tmp_path):
        tailer = JournalTailer(tmp_path / "journal.jsonl")
        assert tailer.poll() == (False, [])

    def test_consumes_complete_records_once(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(record({"op": "a"}) + record({"op": "b"}))
        tailer = JournalTailer(path)
        compacted, ops = tailer.poll()
        assert not compacted and [o["op"] for o in ops] == ["a", "b"]
        assert tailer.poll() == (False, [])
        with open(path, "ab") as fh:
            fh.write(record({"op": "c"}))
        compacted, ops = tailer.poll()
        assert not compacted and [o["op"] for o in ops] == ["c"]

    def test_partial_tail_record_is_not_consumed(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        full = record({"op": "a"})
        torn = record({"op": "b"})[:-5]  # no newline yet
        path.write_bytes(full + torn)
        tailer = JournalTailer(path)
        compacted, ops = tailer.poll()
        assert not compacted and [o["op"] for o in ops] == ["a"]
        assert tailer.offset == len(full)
        # The writer finishes the record: the next poll picks it up.
        path.write_bytes(full + record({"op": "b"}))
        compacted, ops = tailer.poll()
        assert not compacted and [o["op"] for o in ops] == ["b"]

    def test_compaction_detected_by_shrink(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(record({"op": "a"}) + record({"op": "b"}))
        tailer = JournalTailer(path)
        tailer.poll()
        path.write_bytes(b"")  # snapshot + truncate
        compacted, ops = tailer.poll()
        assert compacted and ops == []
        tailer.reset()
        assert tailer.poll() == (False, [])

    def test_compaction_detected_when_file_regrew(self, tmp_path):
        """Truncate-then-regrow past the old offset: only the consumed-
        prefix SHA can tell these are different records."""
        path = tmp_path / "journal.jsonl"
        path.write_bytes(record({"op": "a", "pad": "x" * 4}))
        tailer = JournalTailer(path)
        tailer.poll()
        old = tailer.offset
        # New journal, already longer than the consumed prefix.
        path.write_bytes(
            record({"op": "n1", "pad": "y" * 40})
            + record({"op": "n2"})
        )
        assert path.stat().st_size > old
        compacted, ops = tailer.poll()
        assert compacted and ops == []
        tailer.reset()
        compacted, ops = tailer.poll()
        assert not compacted and [o["op"] for o in ops] == ["n1", "n2"]

    def test_same_length_different_bytes_detected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(record({"op": "aaaa"}))
        tailer = JournalTailer(path)
        tailer.poll()
        path.write_bytes(record({"op": "bbbb"}))  # same byte length
        compacted, _ = tailer.poll()
        assert compacted

    def test_deleted_file_after_consume_is_compaction(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(record({"op": "a"}))
        tailer = JournalTailer(path)
        tailer.poll()
        path.unlink()
        compacted, ops = tailer.poll()
        assert compacted and ops == []


# ---------------------------------------------------------------------- #
# ShardStandby
# ---------------------------------------------------------------------- #


def primary(tmp_path):
    return EngineHost(TOPO, state_dir=tmp_path)


class TestShardStandby:
    def test_bootstrap_then_tail(self, tmp_path):
        host = primary(tmp_path)
        host.handle_request({"op": "admit", "streams": [spec(0, 2)]})
        host.handle_request({"op": "snapshot"})  # snapshot + empty journal
        host.handle_request({"op": "admit", "streams": [spec(4, 6)]})

        sb = ShardStandby(tmp_path, TOPO)
        assert sb.catch_up() >= 1
        assert sb.fingerprint()[0] == host.fingerprint()[0]
        # More churn after the standby attached.
        host.handle_request({"op": "admit", "streams": [spec(8, 10)]})
        host.handle_request({"op": "release", "ids": [0]})
        sb.catch_up()
        assert sb.fingerprint()[0] == host.fingerprint()[0]
        host.close()

    def test_reload_on_compaction(self, tmp_path):
        host = primary(tmp_path)
        host.handle_request({"op": "admit", "streams": [spec(0, 2)]})
        sb = ShardStandby(tmp_path, TOPO)
        sb.catch_up()
        reloads = sb.reloads
        host.handle_request({"op": "admit", "streams": [spec(4, 6)]})
        host.handle_request({"op": "snapshot"})
        host.handle_request({"op": "admit", "streams": [spec(8, 10)]})
        sb.catch_up()
        assert sb.reloads > reloads, "compaction must force a re-bootstrap"
        assert sb.fingerprint()[0] == host.fingerprint()[0]
        host.close()

    def test_offset_zero_snapshot_swap_detected(self, tmp_path):
        """Compaction in the bootstrap-to-first-poll window: the journal
        was empty at bootstrap (offset 0, nothing consumed), so only the
        snapshot file's own SHA can reveal the swap. Without that check
        the standby would replay post-compact ops onto the pre-compact
        snapshot and double-apply."""
        host = primary(tmp_path)
        host.handle_request({"op": "admit", "streams": [spec(0, 2)]})
        host.handle_request({"op": "snapshot"})
        sb = ShardStandby(tmp_path, TOPO)  # bootstrapped, offset 0
        # Primary admits AND compacts before the standby's first poll:
        # the new snapshot already contains the new stream.
        host.handle_request({"op": "admit", "streams": [spec(4, 6)]})
        host.handle_request({"op": "snapshot"})
        host.handle_request({"op": "admit", "streams": [spec(8, 10)]})
        sb.catch_up()
        assert sb.fingerprint()[0] == host.fingerprint()[0]
        host.close()

    def test_promote_verifies_against_disk(self, tmp_path):
        host = primary(tmp_path)
        host.handle_request({"op": "admit", "streams": [spec(0, 2)]})
        host.handle_request({"op": "admit", "streams": [spec(4, 6)]})
        sb = ShardStandby(tmp_path, TOPO)
        want = host.fingerprint()
        host.close()  # the primary dies
        promoted = sb.promote()
        assert promoted.fingerprint() == want
        # The promoted host is a live primary: it can keep journaling.
        response = promoted.handle_request(
            {"op": "admit", "streams": [spec(8, 10)]}
        )
        assert response["ok"]
        promoted.close()

    def test_promotion_with_admit_in_flight(self, tmp_path):
        """An op acked + journaled but not yet shipped to the standby
        must survive failover: promote() does a final catch_up before
        the fingerprint check, so nothing acked is lost."""
        host = primary(tmp_path)
        host.handle_request({"op": "admit", "streams": [spec(0, 2)]})
        sb = ShardStandby(tmp_path, TOPO)
        sb.catch_up()
        # The "in flight" op: acked to the client, standby hasn't polled.
        acked = host.handle_request(
            {"op": "admit", "streams": [spec(4, 6)]}
        )
        assert acked["ok"]
        sid = acked["ids"][0]
        want = host.fingerprint()[0]
        host.close()  # crash now
        promoted = sb.promote()
        assert promoted.fingerprint()[0] == want
        q = promoted.handle_request({"op": "query", "stream": sid})
        assert q["ok"], "acked-then-lost across failover"
        promoted.close()

    def test_tails_across_an_automatic_compaction(self, tmp_path):
        """The primary compacts on its own when its journal reaches
        ``COMPACT_AT`` records; a standby polling every so often reloads
        and stays in step, and promotion agrees with the disk."""
        host = primary(tmp_path)
        sb = ShardStandby(tmp_path, TOPO)
        reloads = sb.reloads
        for n in range(COMPACT_AT + 40):
            if n % 2 == 0:
                host.handle_request({"op": "admit", "rid": f"a-{n}",
                                     "streams": [spec(n % 16, (n + 3) % 16)]})
            else:
                host.handle_request({"op": "release",
                                     "ids": host.admitted_ids()[:1]})
            if n % 150 == 0:
                sb.catch_up()
                assert sb.fingerprint() == host.fingerprint()
        assert host.state.compactions == 1
        assert host.state.records == 40
        sb.catch_up()
        assert sb.reloads > reloads, "compaction must force a re-bootstrap"
        assert sb.fingerprint() == host.fingerprint()
        want = host.fingerprint()
        host.close()
        promoted = sb.promote()
        assert promoted.fingerprint() == want
        promoted.close()

    def test_promotes_over_a_compaction_cut_short(
        self, tmp_path, monkeypatch
    ):
        """A primary killed between setting its journal aside and
        swapping in the new snapshot: recovery promotes the tmp
        snapshot, and so must the standby's reading of the dir."""
        host = primary(tmp_path)
        sb = ShardStandby(tmp_path, TOPO)
        host.handle_request({"op": "admit", "streams": [spec(0, 2)]})
        host.handle_request({"op": "admit", "streams": [spec(4, 6)]})
        sb.catch_up()
        want = host.fingerprint()
        armed = fail_compaction_step(monkeypatch, "promote tmp", "crash")
        with pytest.raises(InjectedCrash):
            host.handle_request({"op": "snapshot"})
        assert armed["fired"]
        monkeypatch.undo()
        assert {p.name for p in tmp_path.iterdir()} == {
            "snapshot.json.tmp", "journal.jsonl.old",
        }
        sb.catch_up()
        assert sb.fingerprint() == want
        promoted = sb.promote()
        assert promoted.fingerprint() == want
        promoted.close()
