"""Journal tailing: a test oracle and a ladder probe, not a served path.

No deployed surface runs this module. A fleet fails a dead tenant
over the way a restart recovers it, by replaying its journal in the
process that owns it (the ``failover`` op of
:class:`repro.fleet.shards.TenantHost`). What stays here is the
independent second reading of a journal that the tests compare
recovery against, and that the bench spine's ladder times
(``fleet.replication.*``); it goes with ROADMAP item 10(a).

The broker journal is a deterministic replay log: every record was
appended only after the primary's engine accepted the op, and the
analysis has no hidden state, so replaying snapshot + journal rebuilds
the engine bit-identically. A :class:`ShardStandby` bootstraps from
any engine host's snapshot, then tails the journal file by byte offset and
applies new records to an in-memory engine. Applying is structure
maintenance only (``EngineHost.apply_journal_op`` marks, it does not
re-decide what the primary already decided): verdicts are computed when
the replica is read.

The tailer never writes to the primary's files (recovery's torn-tail
truncate-repair is the primary's job). A partial trailing record — no
newline yet, or bytes that don't parse — is simply not consumed; the
next poll retries from the same offset. Compaction shows up as the
journal file shrinking below the tail offset (or gone while it is set
aside): the replica reloads the snapshot recovery would take
(:func:`~repro.service.persistence.snapshot_file`, so a compaction
interrupted after its journal was set aside reads as its tmp snapshot)
and restarts from offset zero.

:meth:`ShardStandby.promote` is the oracle check: the replica catches up
to the journal tip, a *fresh* host recovers from the on-disk state the
dead primary left behind, and the two SHA-256 state fingerprints must be
identical. A mismatch means the tail and recovery read the journal
differently, and promotion refuses.
"""

from __future__ import annotations

import hashlib
import json
import logging
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import ReproError
from ..service.host import EngineHost
from ..service.persistence import read_snapshot, snapshot_file

__all__ = ["JournalTailer", "ShardStandby"]

logger = logging.getLogger(__name__)


class JournalTailer:
    """Read committed journal records from a byte offset, read-only.

    Yields only complete, newline-terminated, well-formed records; a
    torn tail (crash mid-append) or a record still being written stays
    unconsumed until a later poll sees its newline. Detects compaction
    (file shrank below the offset) and reports it instead of guessing.
    """

    def __init__(self, journal_path: Union[str, Path]):
        self.path = Path(journal_path)
        self.offset = 0
        self._prefix_sha = hashlib.sha256(b"").hexdigest()

    def poll(self) -> Tuple[bool, List[Dict[str, Any]]]:
        """Return ``(compacted, new_ops)`` since the last poll.

        ``compacted`` means the journal was truncated since the last
        poll (the primary snapshotted); the caller must reload the
        snapshot and call :meth:`reset` before polling again. Detected
        two ways: the file shrank below the tail offset, or — when new
        appends already grew it back past the offset — the consumed
        prefix's SHA-256 no longer matches what was consumed (the bytes
        at ``[0, offset)`` are different records now). Without the
        second check a standby that polls rarely would silently resume
        mid-record in a *new* journal.
        """
        if not self.path.exists():
            return (self.offset > 0), []
        data = self.path.read_bytes()
        if len(data) < self.offset or (
            self.offset
            and hashlib.sha256(data[:self.offset]).hexdigest()
            != self._prefix_sha
        ):
            return True, []
        ops: List[Dict[str, Any]] = []
        pos = self.offset
        while True:
            nl = data.find(b"\n", pos)
            if nl == -1:
                break
            chunk = data[pos:nl].strip()
            if chunk:
                try:
                    op = json.loads(chunk.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    # A corrupt *interior* record cannot be skipped
                    # safely; stop here and let promotion's fingerprint
                    # check (against recovery, which raises on it) fail
                    # loudly rather than diverge silently.
                    break
                if isinstance(op, dict):
                    ops.append(op)
            pos = nl + 1
        self.offset = pos
        self._prefix_sha = hashlib.sha256(data[:pos]).hexdigest()
        return False, ops

    def reset(self) -> None:
        self.offset = 0
        self._prefix_sha = hashlib.sha256(b"").hexdigest()


class ShardStandby:
    """Warm replica of one engine host's state dir: snapshot bootstrap
    + journal tail.

    The replica engine runs without persistence of its own — its state
    dir *is* the primary's, read-only. ``catch_up()`` computes no
    verdicts, so it is cheap enough to call on every poll tick;
    promotion calls it one final time before the fingerprint
    comparison, which settles the replica.
    """

    def __init__(
        self,
        state_dir: Union[str, Path],
        topology_spec: Dict[str, Any],
    ):
        self.state_dir = Path(state_dir)
        self.topology_spec = dict(topology_spec)
        self.tailer = JournalTailer(self.state_dir / "journal.jsonl")
        self.ops_applied = 0
        self.reloads = 0
        self._bootstrap()

    def _bootstrap(self) -> None:
        """(Re)build the replica from the primary's current snapshot."""
        self.host = EngineHost(self.topology_spec)
        self.tailer.reset()
        rec = read_snapshot(snapshot_file(self.state_dir), self.topology_spec)
        self._snapshot_sha = self._current_snapshot_sha(rec.raw)
        if rec.raw is not None:
            self.host.load_snapshot(rec)
            self.reloads += 1

    def catch_up(self) -> int:
        """Apply every record committed since the last call.

        Returns the number of ops applied. Reload-on-compaction loops
        until a poll makes progress without detecting a truncate.
        """
        applied = 0
        for _ in range(8):  # a compaction per iteration; 8 is paranoia
            # At offset zero neither the shrink check nor the consumed-
            # prefix SHA can see a truncation (nothing was consumed yet)
            # — a compaction after the bootstrap's snapshot read would
            # silently replay post-compact ops on a pre-compact
            # snapshot. The snapshot file's own hash closes that
            # window; it must be checked *before* the poll consumes.
            if (
                self.tailer.offset == 0
                and self._snapshot_sha != self._current_snapshot_sha()
            ):
                self._bootstrap()
                continue
            compacted, ops = self.tailer.poll()
            if compacted:
                self._bootstrap()
                continue
            for op in ops:
                self.host.apply_journal_op(op)
            applied += len(ops)
            self.ops_applied += len(ops)
            return applied
        raise ReproError(  # pragma: no cover - requires a compact storm
            f"standby for {self.state_dir} could not catch up: the "
            "primary compacts faster than the standby polls"
        )

    def _current_snapshot_sha(self, raw: Optional[bytes] = None):
        """SHA-256 of ``raw``, else of the snapshot file now on disk
        (``None`` when there is none)."""
        snapshot_path = snapshot_file(self.state_dir)
        if raw is None and snapshot_path.exists():
            raw = snapshot_path.read_bytes()
        return None if raw is None else hashlib.sha256(raw).hexdigest()

    def fingerprint(self) -> Tuple[str, Dict[str, Any]]:
        return self.host.fingerprint()

    def promote(self) -> EngineHost:
        """Fail over: return a disk-recovered host, verified against the
        caught-up replica.

        The promoted primary comes from a fresh recovery of the host's
        state directory (it needs the journal file handle and must see
        exactly what a restart would), and its SHA-256 fingerprint must
        equal the replica's — proving journal shipping lost nothing the
        disk kept, and vice versa.
        """
        self.catch_up()
        replica_sha, replica_spec = self.host.fingerprint()
        promoted = EngineHost(self.topology_spec, state_dir=self.state_dir)
        disk_sha, disk_spec = promoted.fingerprint()
        if disk_sha != replica_sha:  # pragma: no cover - the assertion
            promoted.close()
            raise ReproError(
                f"failover fingerprint mismatch for {self.state_dir}: "
                f"replica {replica_sha} vs disk {disk_sha} "
                f"(replica {len(replica_spec['streams'])} streams, "
                f"disk {len(disk_spec['streams'])})"
            )
        logger.info(
            "promoted standby for %s (%d streams, sha %s)",
            self.state_dir, len(disk_spec["streams"]), disk_sha[:12],
        )
        return promoted
