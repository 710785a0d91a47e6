"""Journal-shipping replication: warm standbys and explicit failover.

The broker journal (PR 3/5) is a deterministic replay log: every record
was appended only after the primary's engine accepted the op, and the
analysis has no hidden state, so replaying snapshot + journal rebuilds
the engine bit-identically. Replication is therefore *shipping the
journal*: a :class:`ShardStandby` bootstraps from the primary's
snapshot, then tails the journal file by byte offset and applies new
records to a warm in-memory engine. Applying is structure maintenance
only (``EngineHost.apply_journal_op`` marks, it does not re-decide what
the primary already decided): nobody reads a replica's verdicts until
promotion, so that is when they are computed.

The tailer never writes to the primary's files (recovery's torn-tail
truncate-repair is the primary's job; a standby racing it mid-append
could corrupt a live journal). A partial trailing record — no newline
yet, or bytes that don't parse — is simply not consumed; the next poll
retries from the same offset. Compaction shows up as the journal file
shrinking below the tail offset: the standby reloads the fresh snapshot
and restarts from offset zero.

Failover (:meth:`ShardStandby.promote`) is deliberately paranoid: the
standby catches up to the journal tip, a *fresh* host recovers from the
on-disk state the failed primary left behind, and the two SHA-256 state
fingerprints must be identical before the disk-recovered host is handed
to the fleet as the new primary. A mismatch means replication diverged
from recovery and promotion refuses.

Single-writer assumption: promotion happens only after the primary is
dead. Two hosts appending to one journal is outside the model.
"""

from __future__ import annotations

import hashlib
import json
import logging
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import ReproError
from ..service.host import EngineHost
from ..service.persistence import read_snapshot
from .shards import Fleet

__all__ = ["JournalTailer", "ShardStandby", "StandbyPool"]

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
    """Warm replica of one shard: snapshot bootstrap + journal tail.

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
        rec = read_snapshot(
            self.state_dir / "snapshot.json", self.topology_spec
        )
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
        snapshot_path = self.state_dir / "snapshot.json"
        if raw is None and snapshot_path.exists():
            raw = snapshot_path.read_bytes()
        return None if raw is None else hashlib.sha256(raw).hexdigest()

    def fingerprint(self) -> Tuple[str, Dict[str, Any]]:
        return self.host.fingerprint()

    def promote(self) -> EngineHost:
        """Fail over: return a disk-recovered host, verified against the
        caught-up replica.

        The promoted primary comes from a fresh recovery of the shard's
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


class StandbyPool:
    """One warm standby per (tenant, shard) of a persistent fleet."""

    def __init__(self, fleet: Fleet):
        if fleet.state_dir is None:
            raise ReproError(
                "journal-shipping replication needs a persistent fleet "
                "(state_dir)"
            )
        self.fleet = fleet
        self.standbys: Dict[Tuple[str, int], ShardStandby] = {}
        for tname, tf in fleet.tenants.items():
            for i in range(len(tf.hosts)):
                self.standbys[(tname, i)] = ShardStandby(
                    tf.state_dir / f"shard-{i}", tf.topology_spec
                )

    def catch_up(self) -> int:
        """Poll every standby; returns total ops shipped this tick."""
        return sum(sb.catch_up() for sb in self.standbys.values())

    def promote(self, tenant: str, shard: int) -> EngineHost:
        """Fail the (dead) primary over to its standby.

        Swaps the verified disk-recovered host into the fleet and
        re-bootstraps the standby slot against the same directory, so
        the new primary is immediately replicated again.
        """
        key = (tenant, shard)
        if key not in self.standbys:
            raise ReproError(f"no standby for tenant {tenant!r} shard {shard}")
        tf = self.fleet.tenants[tenant]
        # The primary must be dead before its successor opens the
        # journal: detach closes an in-process host (idempotent, no-op
        # after a real crash) and evicts a worker-hosted shard from its
        # child process, so no worker respawn ever reopens this journal.
        tf.detach_shard(shard)
        promoted = self.standbys[key].promote()
        tf.replace_host(shard, promoted)
        self.standbys[key] = ShardStandby(
            tf.state_dir / f"shard-{shard}", tf.topology_spec
        )
        return promoted
