"""Snapshot + journal persistence for the channel broker.

The broker's durable state is the admitted stream set. It is stored as:

``snapshot.json``
    A plain problem file (see :mod:`repro.io`): topology spec + admitted
    streams, plus a ``next_id`` key recording the broker's fresh-id
    high-water mark (ignored by ``load_problem``) so released ids are
    never reissued across restarts, and an ``applied`` map of recently
    applied request ids (rid -> outcome) so client retries stay
    idempotent across a compaction. Written atomically (tmp file +
    rename) by ``compact``.
``journal.jsonl``
    One JSON line per committed mutation since the snapshot:
    ``{"op": "admit", "streams": [...]}`` (streams as problem-file
    entries with server-assigned ids, appended only after the engine
    accepted the batch) and ``{"op": "release", "ids": [...]}``. Ops
    carry the client's ``rid`` when the request had one.

Recovery replays the snapshot as one admit batch and then the journal in
order, through the normal engine's structural mutators — the records
are applied, not decided again, and the analysis is deterministic, so
the verdicts settled afterwards are bit-identical to the ones the set
was admitted under. After a successful recovery (the settled report is
feasible) the broker compacts, so the journal stays short.

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

__all__ = ["BrokerState", "RecoveredState", "RID_CAP", "read_snapshot"]

#: Most applied request ids kept for duplicate detection (FIFO eviction).
RID_CAP = 1024


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
    #: The snapshot file's bytes, if any (a standby hashes them to
    #: notice a compaction it did not tail).
    raw: Optional[bytes] = None


def read_snapshot(
    path: Union[str, Path], topology_spec: Dict[str, Any]
) -> RecoveredState:
    """Read ``snapshot.json`` into a :class:`RecoveredState` (no journal).

    The one reader of the file — restart recovery and a standby's
    bootstrap both come here. Validates that the snapshot was taken over
    the topology the caller runs: recovering a 10x10-mesh admitted set
    onto a torus would silently re-route everything.
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
        self.fault_plane = fault_plane
        self._journal_fh = None

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #

    def recover(self) -> RecoveredState:
        """Read the snapshot and journal back; see :class:`RecoveredState`."""
        out = read_snapshot(self.snapshot_path, self.topology_spec)
        if self.journal_path.exists():
            self._read_journal(out)
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
        """Write a fresh snapshot atomically and truncate the journal.

        ``analyses`` maps stream ids to the bound-backend name each was
        admitted under; it is embedded per stream entry so recovery
        re-vets every stream under the same analysis (the snapshot stays
        a valid problem file — ``stream_from_spec`` ignores the key).
        ``failed_links`` is the broker's current failed-link set; it must
        be restored *before* the streams replay, so it rides in the
        snapshot rather than being reconstructed from journal history.
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
        tmp = self.snapshot_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, indent=2) + "\n")
        os.replace(tmp, self.snapshot_path)
        if self._journal_fh is not None:
            self._journal_fh.close()
            self._journal_fh = None
        open(self.journal_path, "w").close()
        return self.snapshot_path

    def close(self) -> None:
        if self._journal_fh is not None:
            self._journal_fh.close()
            self._journal_fh = None
