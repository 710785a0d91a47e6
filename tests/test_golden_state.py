"""A state dir written by older code still recovers, and is still written.

``tests/golden/broker_state/`` is a snapshot plus a journal that an
:class:`EngineHost` wrote at commit ``cb28b0b``, before the op table
became the one place an op's rid outcome is declared. It holds ridded
admits, an admit under a second bound backend, a ridded release and a
fail / restore pair with an eviction; ``broker_state.sha256`` next to it
is the fingerprint that host answered with. Two pins, in both
directions of an upgrade:

* today's host recovers the old files to that fingerprint and answers
  the old rids' replays with the outcomes they recorded;
* today's host, given the same schedule, writes the same files byte for
  byte (the journal sorts keys; the snapshot does not, so the key order
  of every rid record is pinned too).

Never regenerate the files with later code: that they were written by
older code is the point (see ``tests/golden/README.md``).
"""

import shutil
from pathlib import Path

from repro.service.host import EngineHost

GOLDEN = Path(__file__).parent / "golden"
STATE = GOLDEN / "broker_state"
# Routing and default backend pinned: the bytes must not depend on
# REPRO_ROUTING or REPRO_ANALYSIS_BACKEND.
TOPO = {"type": "mesh", "width": 6, "height": 6, "routing": "default"}
ANALYSIS = "kim98"


def _spec(src, dst, **extra):
    return {"src": src, "dst": dst, "priority": 5, "period": 300,
            "length": 4, "deadline": 300, **extra}


#: Compacted into the snapshot.
SNAPSHOTTED = [
    {"op": "admit", "rid": "g-1", "streams": [_spec(0, 2)]},
    {"op": "admit", "rid": "g-2", "streams": [_spec(12, 15), _spec(18, 21)]},
    {"op": "admit", "rid": "g-3", "streams": [_spec(30, 33)],
     "analysis": "buffered"},
    {"op": "fail_link", "rid": "g-4", "link": [4, 5]},
]
#: Left in the journal after the snapshot.
JOURNALED = [
    {"op": "admit", "rid": "g-5", "streams": [_spec(6, 8)]},
    {"op": "admit", "rid": "g-6", "streams": [_spec(24, 27)],
     "analysis": "tighter"},
    {"op": "admit", "streams": [_spec(31, 35, priority=3)]},
    {"op": "release", "rid": "g-7", "ids": [2, 5]},
    {"op": "fail_link", "rid": "g-8", "link": [0, 1]},
    {"op": "fail_link", "rid": "g-9", "link": [0, 6]},     # evicts 0
    {"op": "restore_link", "rid": "g-10", "link": [0, 1]},
]


def write_state(state_dir):
    """Run the golden schedule on a fresh host persisting to
    ``state_dir``; returns the answers in schedule order."""
    host = EngineHost(TOPO, state_dir=state_dir, analysis=ANALYSIS)
    answers = [host.handle_request(dict(r)) for r in SNAPSHOTTED]
    assert host.handle_request({"op": "snapshot"})["ok"]
    answers += [host.handle_request(dict(r)) for r in JOURNALED]
    host.close()
    assert all(a["ok"] for a in answers), answers
    return answers


def test_schedule_exercises_what_the_fixture_is_for(tmp_path):
    answers = write_state(tmp_path)
    assert {a.get("analysis") for a in answers} >= {
        "kim98", "buffered", "tighter"}
    assert answers[len(SNAPSHOTTED) - 1]["failed_links"] == [[4, 5]]
    assert answers[-2]["evicted"] == [0]


def test_old_state_dir_recovers_to_its_fingerprint(tmp_path):
    shutil.copytree(STATE, tmp_path / "state")
    host = EngineHost(TOPO, state_dir=tmp_path / "state", analysis=ANALYSIS)
    try:
        want = (GOLDEN / "broker_state.sha256").read_text().split()[0]
        assert host.fingerprint()[0] == want
        # The rids survive too: a retry gets the recorded outcome.
        replays = {
            r["rid"]: host.handle_request(dict(r))
            for r in SNAPSHOTTED + JOURNALED if "rid" in r
        }
        assert all(a["duplicate"] for a in replays.values())
        assert replays["g-2"]["ids"] == [1, 2]
        assert replays["g-7"]["released"] == [2, 5]
        assert replays["g-9"]["evicted"] == [0]
        assert host.fingerprint()[0] == want
    finally:
        host.close()


def test_same_schedule_writes_the_same_bytes(tmp_path):
    write_state(tmp_path)
    for name in ("snapshot.json", "journal.jsonl"):
        assert ((tmp_path / name).read_bytes()
                == (STATE / name).read_bytes()), name
