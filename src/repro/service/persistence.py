"""Snapshot + journal persistence for the channel broker.

The broker's durable state is the admitted stream set. It is stored as:

``snapshot.json``
    A plain problem file (see :mod:`repro.io`): topology spec + admitted
    streams, plus a ``next_id`` key recording the broker's fresh-id
    high-water mark (ignored by ``load_problem``) so released ids are
    never reissued across restarts, and an ``applied`` map of recently
    applied request ids (rid -> outcome) so client retries stay
    idempotent across a compaction. Written by ``compact`` (see
    "Compaction" below).
``journal.jsonl``
    One JSON line per committed mutation since the snapshot:
    ``{"op": "admit", "streams": [...]}`` (streams as problem-file
    entries with server-assigned ids, appended only after the engine
    accepted the batch) and ``{"op": "release", "ids": [...]}``. Ops
    carry the client's ``rid`` when the request had one.

Recovery replays the snapshot as one admit batch and then the journal,
through the normal engine's structural mutators — the records are
applied, not decided again, and the analysis is deterministic, so the
verdicts settled afterwards are bit-identical to the ones the set was
admitted under. Every record is parsed, validated and its rid outcome
recorded in order, but a stream the journal admits and releases again
with no link op between is never attached (see
:func:`repro.service.host.netted_ids`): recovery costs what survives,
not the churn. After a successful recovery (the settled report is
feasible) the broker compacts.

Compaction
----------
A host also compacts on its own, after the append that brings the
journal to a multiple of :data:`COMPACT_AT` = 2 x :data:`RID_CAP`
records (``EngineHost._committed``, once the op's rid is recorded so
the snapshot carries it). A restart therefore replays fewer than
``COMPACT_AT`` records on top of a snapshot of the live set plus the
rid table: O(live), not O(history). The rid table (at most ``RID_CAP``
entries, 80-90 KB of indent-2 JSON, 6-9 ms to write on a 2-vCPU
host) dominates a snapshot's cost, so spread over ``COMPACT_AT``
appends it is 3-4 us per journaled op. The op that triggers it is durable and acknowledged
before compaction starts; a compaction that fails is counted
(``compaction_failures``) and tried again ``COMPACT_AT`` records later.

``compact`` is a rename protocol, so a crash or ``OSError`` after any
step leaves files from which recovery rebuilds exactly the acked state:

1. write ``snapshot.json.tmp`` in full (streamed, fsynced);
2. rename ``journal.jsonl`` to ``journal.jsonl.old``;
3. replace ``snapshot.json`` with the tmp file;
4. unlink ``journal.jsonl.old``;
5. create an empty ``journal.jsonl``.

Recovery, and the next compaction before its step 1, read the leftovers
so: a tmp file *with* ``.old`` was complete before the journal was set
aside, so it is promoted and ``.old`` dropped; a tmp file alone was
never committed and is dropped; ``.old`` alone is already in the
snapshot and is dropped. A ``journal.jsonl`` beside them holds only
records appended after the resulting snapshot (a host that survives a
failed compaction appends to a new file, never to the one set aside).
The ``snapshot`` op and recovery's compaction are the same call.

Crash tolerance
---------------
A crash mid-append leaves a *torn tail*: a partial final record with no
newline. Recovery skips it — the op was never acknowledged, so dropping
it is correct — and truncates the file back to the last good record, so
a later append can never fuse with the partial bytes into one corrupt
line. Corruption anywhere *before* the tail is not survivable and raises.

A failed append (``OSError``: disk full, I/O error on fsync) leaves the
journal in an uncertain state. :meth:`BrokerState.append` self-repairs by
truncating back to the pre-append offset before re-raising, so the disk
never contains a record the caller was told failed; the broker then
degrades to read-only (see :mod:`repro.service.server`).

Fault injection
---------------
When a :class:`~repro.faults.plane.FaultPlane` is installed, ``append``
consults the ``journal.append`` site and fires whatever persistence fault
is armed there (torn writes, injected crashes, fsync/ENOSPC errors) —
see :mod:`repro.faults.plane` for the taxonomy.
"""

from __future__ import annotations

import errno
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..core.streams import StreamSet
from ..errors import ReproError
from ..faults.plane import FaultPlane, FaultSpec, InjectedCrash, SITE_JOURNAL_APPEND
from ..io import streams_to_spec

__all__ = [
    "BrokerState", "COMPACT_AT", "RecoveredState", "RID_CAP", "read_snapshot",
    "snapshot_file",
]

#: Most applied request ids kept for duplicate detection (FIFO eviction).
RID_CAP = 1024
#: Journal records after which a host compacts on its own: twice the
#: rid table, a snapshot's largest part (see "Compaction" above).
COMPACT_AT = 2 * RID_CAP


@dataclass
class RecoveredState:
    """Everything :meth:`BrokerState.recover` reads back from disk."""

    #: Snapshot stream entries, or ``None`` when no snapshot exists.
    snapshot: Optional[List[dict]] = None
    #: Journal ops in append order (torn tail already dropped).
    ops: List[Dict[str, Any]] = field(default_factory=list)
    #: Snapshotted fresh-id high-water mark, or ``None``.
    next_id: Optional[int] = None
    #: Applied request ids persisted with the snapshot (rid -> outcome).
    applied_rids: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Failed physical links persisted with the snapshot, as sorted
    #: ``[u, v]`` pairs. Applied *before* stream replay so the admitted
    #: set re-admits under the same degraded routing it was vetted on.
    failed_links: List[List[int]] = field(default_factory=list)
    #: Whether a torn (partial) final journal record was skipped.
    torn_tail: bool = False
    #: The snapshot file's bytes, if any (a journal-tailing replica
    #: hashes them to notice a compaction it did not tail).
    raw: Optional[bytes] = None


def read_snapshot(
    path: Union[str, Path], topology_spec: Dict[str, Any]
) -> RecoveredState:
    """Read ``snapshot.json`` into a :class:`RecoveredState` (no journal).

    The one reader of the file — restart recovery and a journal-tailing
    replica's bootstrap both come here. Validates that the snapshot was
    taken over the topology the caller runs: recovering a 10x10-mesh
    admitted set onto a torus would silently re-route everything.
    """
    out = RecoveredState()
    path = Path(path)
    if not path.exists():
        return out
    out.raw = path.read_bytes()
    spec = json.loads(out.raw.decode("utf-8"))
    topo = spec.get("topology")
    if topo != topology_spec:
        raise ReproError(
            f"snapshot topology {topo} in {path} does not match the "
            f"server topology {topology_spec}"
        )
    out.snapshot = list(spec.get("streams", []))
    if spec.get("next_id") is not None:
        out.next_id = int(spec["next_id"])
    applied = spec.get("applied")
    if isinstance(applied, dict):
        out.applied_rids = {str(rid): dict(v) for rid, v in applied.items()}
    out.failed_links = [
        [int(u), int(v)] for u, v in spec.get("failed_links", [])
    ]
    return out


def snapshot_file(state_dir: Union[str, Path]) -> Path:
    """The file recovery takes for the snapshot of ``state_dir``, found
    without writing: a compaction's tmp snapshot while the journal it
    replaces is set aside (recovery promotes it), else
    ``snapshot.json``."""
    state_dir = Path(state_dir)
    tmp = state_dir / "snapshot.json.tmp"
    if tmp.exists() and (state_dir / "journal.jsonl.old").exists():
        return tmp
    return state_dir / "snapshot.json"


class BrokerState:
    """Owns the snapshot and journal files under one state directory."""

    def __init__(
        self,
        state_dir: Union[str, Path],
        topology_spec: Dict[str, Any],
        *,
        fault_plane: Optional[FaultPlane] = None,
    ):
        self.dir = Path(state_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.topology_spec = dict(topology_spec)
        self.snapshot_path = self.dir / "snapshot.json"
        self.journal_path = self.dir / "journal.jsonl"
        #: A snapshot being written, and the journal it replaces while
        #: it is swapped in (see "Compaction" in the module doc).
        self.tmp_path = self.dir / "snapshot.json.tmp"
        self.old_journal_path = self.dir / "journal.jsonl.old"
        self.fault_plane = fault_plane
        self._journal_fh = None
        #: Records in ``journal.jsonl``: what a restart would replay on
        #: top of the snapshot.
        self.records = 0
        #: Compactions written, and those that raised ``OSError``.
        self.compactions = self.compaction_failures = 0

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #

    def recover(self) -> RecoveredState:
        """Read the snapshot and journal back; see :class:`RecoveredState`.

        An interrupted compaction is resolved first
        (:meth:`_finish_compaction`).
        """
        self._finish_compaction()
        out = read_snapshot(self.snapshot_path, self.topology_spec)
        if self.journal_path.exists():
            self._read_journal(out)
        self.records = len(out.ops)
        return out

    def _read_journal(self, out: RecoveredState) -> None:
        """Parse the journal into ``out.ops``, tolerating a torn tail.

        A record that fails to parse (or is not an object) is accepted
        only when nothing but whitespace follows it — the signature of a
        crash mid-append. The partial bytes are then truncated away so a
        subsequent ``append`` starts on a clean line; corruption earlier
        in the file raises.
        """
        data = self.journal_path.read_bytes()
        pos = 0
        good_end = 0  # byte offset just past the last well-formed record
        lineno = 0
        size = len(data)
        while pos < size:
            nl = data.find(b"\n", pos)
            end = nl if nl != -1 else size
            chunk = data[pos:end]
            next_pos = end + 1 if nl != -1 else size
            lineno += 1
            stripped = chunk.strip()
            if stripped:
                op: Any = None
                try:
                    op = json.loads(stripped.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    pass
                if not isinstance(op, dict):
                    if data[next_pos:].strip():
                        raise ReproError(
                            f"corrupt journal line {lineno} in "
                            f"{self.journal_path}"
                        )
                    out.torn_tail = True
                    break
                out.ops.append(op)
            good_end = next_pos
            pos = next_pos
        if out.torn_tail and good_end < size:
            self._truncate_to(good_end)

    # ------------------------------------------------------------------ #
    # Mutation log
    # ------------------------------------------------------------------ #

    def append(self, op: Dict[str, Any]) -> None:
        """Append one committed mutation to the journal (fsynced).

        On ``OSError`` (disk full, failed fsync) the journal is repaired
        — truncated back to its pre-append length, so the record whose
        write failed is guaranteed absent — and the error re-raised for
        the server to roll back and degrade on.
        """
        record = (
            json.dumps(op, separators=(",", ":"), sort_keys=True) + "\n"
        ).encode("utf-8")
        if self._journal_fh is None:
            self._journal_fh = open(self.journal_path, "ab")
        fh = self._journal_fh
        fh.seek(0, os.SEEK_END)
        offset = fh.tell()
        fault = (
            self.fault_plane.take(SITE_JOURNAL_APPEND)
            if self.fault_plane is not None else None
        )
        try:
            self._write_record(fh, record, fault)
        except InjectedCrash:
            raise  # simulated power loss: no repair, by definition
        except OSError:
            self._truncate_to(offset)
            raise
        self.records += 1

    def _write_record(
        self, fh, record: bytes, fault: Optional[FaultSpec]
    ) -> None:
        if fault is None:
            fh.write(record)
            fh.flush()
            os.fsync(fh.fileno())
            return
        kind = fault.kind
        if kind == "disk_full":
            raise OSError(
                errno.ENOSPC, "injected fault: no space left on device"
            )
        if kind == "fsync_error":
            fh.write(record)
            fh.flush()
            raise OSError(errno.EIO, "injected fault: fsync failed")
        if kind in ("torn_write", "crash_after_append"):
            if kind == "torn_write":
                # Strict prefix: at least 1 byte, never the whole record.
                rng = (self.fault_plane.rng if self.fault_plane is not None
                       else None)
                cut = fault.payload.get("cut")
                if cut is None:
                    cut = (rng.randint(1, len(record) - 1)
                           if rng is not None else len(record) // 2)
                record = record[:max(1, min(int(cut), len(record) - 1))]
            fh.write(record)
            fh.flush()
            os.fsync(fh.fileno())
            raise InjectedCrash(f"injected fault: {kind}")
        raise ReproError(
            f"fault kind {kind!r} is not a persistence fault"
        )  # pragma: no cover - campaign only arms persistence kinds

    def _truncate_to(self, offset: int) -> None:
        """Best-effort repair: cut the journal back to ``offset``.

        If even the truncate fails, the leftover partial record is a torn
        tail, which the next recovery skips — so the failure mode stays
        recoverable either way.
        """
        try:
            if self._journal_fh is not None:
                self._journal_fh.close()
        except OSError:  # pragma: no cover - close failure is harmless
            pass
        self._journal_fh = None
        try:
            os.truncate(self.journal_path, offset)
        except OSError:  # pragma: no cover - torn tail handled at recovery
            pass

    def compact(
        self,
        streams: StreamSet,
        *,
        next_id: Optional[int] = None,
        applied_rids: Optional[Dict[str, Dict[str, Any]]] = None,
        analyses: Optional[Dict[int, str]] = None,
        failed_links: Optional[List] = None,
    ) -> Path:
        """Write a fresh snapshot and start an empty journal, crash-safely.

        ``analyses`` maps stream ids to the bound-backend name each was
        admitted under; it is embedded per stream entry so recovery
        re-vets every stream under the same analysis (the snapshot stays
        a valid problem file — ``stream_from_spec`` ignores the key).
        ``failed_links`` is the broker's current failed-link set; it must
        be restored *before* the streams replay, so it rides in the
        snapshot rather than being reconstructed from journal history.

        The steps are the rename protocol of the module doc; an
        ``OSError`` at any of them propagates and leaves files that
        :meth:`_finish_compaction` reads as exactly the state before or
        after. The journal handle is closed before the journal is set
        aside, so a later :meth:`append` always opens ``journal.jsonl``.
        """
        entries = streams_to_spec(streams)
        if analyses:
            for entry in entries:
                name = analyses.get(entry["id"])
                if name is not None:
                    entry["analysis"] = name
        payload: Dict[str, Any] = {
            "topology": self.topology_spec,
            "streams": entries,
        }
        if next_id is not None:
            payload["next_id"] = int(next_id)
        if applied_rids:
            payload["applied"] = dict(applied_rids)
        if failed_links:
            payload["failed_links"] = sorted(
                [int(u), int(v)] for u, v in failed_links
            )
        try:
            self._swap_in(payload)
        except OSError:
            self.compaction_failures += 1
            raise
        self.compactions += 1
        return self.snapshot_path

    def _swap_in(self, payload: Dict[str, Any]) -> None:
        """Steps 1-5 of the rename protocol (module doc)."""
        # A set-aside journal left by an earlier failure would make the
        # tmp file written next look committed.
        self._finish_compaction()
        with open(self.tmp_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        self.close()
        if self.journal_path.exists():
            os.replace(self.journal_path, self.old_journal_path)
        self.records = 0
        os.replace(self.tmp_path, self.snapshot_path)
        if self.old_journal_path.exists():
            os.unlink(self.old_journal_path)
        self._journal_fh = open(self.journal_path, "ab")

    def _finish_compaction(self) -> None:
        """Resolve what an interrupted :meth:`compact` left behind.

        A tmp snapshot beside a set-aside journal was written in full
        and holds everything that journal did: it is promoted
        (:func:`snapshot_file`). A tmp snapshot alone was never
        committed, and a set-aside journal alone is already in
        ``snapshot.json``: both are dropped. A ``journal.jsonl`` present
        either way holds only records appended after the snapshot that
        results.
        """
        if snapshot_file(self.dir) == self.tmp_path:
            os.replace(self.tmp_path, self.snapshot_path)
        for leftover in (self.old_journal_path, self.tmp_path):
            if leftover.exists():
                os.unlink(leftover)

    def close(self) -> None:
        if self._journal_fh is not None:
            self._journal_fh.close()
            self._journal_fh = None
