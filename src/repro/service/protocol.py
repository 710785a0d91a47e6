"""JSON-lines wire protocol of the channel broker.

One request per line, one response per line, UTF-8 JSON objects. Every
request carries an ``op`` and may carry a client-chosen ``id`` echoed back
verbatim in the response (useful for pipelining). Responses always carry
``ok`` (bool); failures add ``error`` (message) and ``code``.

Idempotent retries (``rid``)
----------------------------
Mutating ops (``admit``/``release``) may carry a ``rid``: a non-empty
client-chosen string identifying the *request* (not the connection).
When a mutation succeeds, its ``rid`` is recorded — in memory, in the
journal entry, and through snapshot compaction — and a later request
with the same ``rid`` is **not re-executed**: the server answers with
the recorded outcome plus ``"duplicate": true`` (for ``admit`` that is
``admitted``/``ids`` without the per-stream ``bounds``/``closures``
detail; for ``release`` the ``released`` ids). This makes at-least-once
retry loops safe: a client whose connection died after sending a request
simply reconnects and resends the same ``rid``; whether or not the
original was applied, the end state is applied-exactly-once. Failed
mutations record nothing — retrying them re-evaluates deterministically.
The server keeps the most recent ``RID_CAP`` rids (FIFO), so retries
must happen promptly, not hours later.

Degraded (read-only) mode
-------------------------
When the journal becomes unwritable (disk full, I/O error) the broker
repairs the journal, rolls the in-memory engine back so memory matches
disk, and stops accepting mutations: ``admit``/``release`` fail with
``code: "degraded"`` while reads (``query``/``report``/``stats``/
``hello``) keep working. A successful ``snapshot`` op (which rewrites
the snapshot and truncates the journal) clears the condition.

Ops
---
``hello``
    Server identity: name, version, topology spec, node count, engine
    mode. Clients use the topology to build stream specs.
``admit``
    ``streams``: list of problem-file stream entries (``src``/``dst`` may
    be coordinate lists or node ids; ``id`` optional — the broker assigns
    monotonic ids when absent). All-or-nothing: the whole batch is
    admitted or the admitted set is untouched. Response: ``admitted``,
    assigned ``ids``, per-stream ``bounds``, ``violations`` (ids whose
    bound broke in the trial), and ``closures`` — the transitive HP
    closure each new guarantee is scoped to (finding F-7: a bound is only
    a guarantee while its closure stays admitted).
``release``
    ``ids``: list of admitted ids to remove. Unknown ids fail the whole
    request (nothing is removed).
``query``
    ``stream``: one admitted id -> stream spec, bound, slack, closure.
``report``
    Full feasibility report of the admitted set (trivial success when
    empty).
``snapshot``
    Persist the admitted set to the snapshot file and truncate the
    journal. Requires the server to run with a state dir.
``stats``
    Per-op metrics, engine cache counters, admitted count.
``shutdown``
    Acknowledge, then stop the server gracefully.
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, Optional

from ..errors import AnalysisError, ReproError, StreamError

__all__ = [
    "ProtocolError",
    "coerce_int",
    "coerce_rid",
    "encode",
    "decode",
    "error_code",
    "error_response",
    "retry_backoff",
]

#: Ops the server accepts (``hello``/``ping`` are aliases).
KNOWN_OPS = (
    "hello",
    "ping",
    "admit",
    "release",
    "query",
    "report",
    "snapshot",
    "stats",
    "fail_link",
    "restore_link",
    "links",
    "shutdown",
)


class ProtocolError(ReproError):
    """Raised for malformed broker requests (bad JSON, unknown op, ...)."""


def encode(message: Dict[str, Any]) -> bytes:
    """Serialise one protocol message to a JSON line."""
    return (json.dumps(message, separators=(",", ":"),
                       sort_keys=True) + "\n").encode("utf-8")


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one request line; validates shape and op name."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object")
    op = obj.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request needs a string 'op' field")
    if op not in KNOWN_OPS:
        raise ProtocolError(
            f"unknown op {op!r} (expected one of {', '.join(KNOWN_OPS)})"
        )
    return obj


def coerce_int(value: Any, what: str) -> int:
    """Coerce an untrusted request field to ``int``.

    Raises :class:`ProtocolError` (never ``ValueError``/``TypeError``) on
    bad input, so malformed client fields stay inside the protocol error
    path instead of escaping into the server's worker task. Accepts ints,
    integral floats and integer-looking strings; rejects booleans.
    """
    if isinstance(value, bool):
        raise ProtocolError(f"{what} must be an integer, got {value!r}")
    try:
        out = int(value)
    except (ValueError, TypeError):
        raise ProtocolError(
            f"{what} must be an integer, got {value!r}"
        ) from None
    if isinstance(value, float) and value != out:
        raise ProtocolError(f"{what} must be an integer, got {value!r}")
    return out


def coerce_rid(request: Dict[str, Any]) -> Optional[str]:
    """Validate and return the request's idempotency key, if any.

    ``rid`` is optional; when present it must be a non-empty string
    (:class:`ProtocolError` otherwise, so a malformed key can never be
    silently treated as "no key" and break retry deduplication).
    """
    rid = request.get("rid")
    if rid is None:
        return None
    if not isinstance(rid, str) or not rid:
        raise ProtocolError(
            f"'rid' must be a non-empty string, got {rid!r}"
        )
    return rid


def retry_backoff(
    attempt: int,
    *,
    base: float = 0.05,
    cap: float = 2.0,
    rng: Optional[random.Random] = None,
) -> float:
    """Full-jitter exponential backoff delay for a 0-based ``attempt``.

    Returns a uniform draw from ``[0, min(cap, base * 2**attempt))`` —
    the "full jitter" scheme, which decorrelates a thundering herd of
    retrying clients while keeping the expected delay exponential in the
    attempt number. Pass a seeded ``rng`` for reproducible schedules
    (the chaos campaign does).
    """
    span = min(cap, base * (2 ** max(0, attempt)))
    u = rng.random() if rng is not None else random.random()
    return span * u


def error_code(exc: ReproError) -> str:
    """The wire ``code`` of an error.

    A non-empty ``code`` attribute wins — an error class that names its
    own (``DegradedError``), or one stamped on an instance (the
    ``"worker"`` of a shard whose process died mid-op, which must cross
    the fleet unchanged because retry loops key on it). Otherwise the
    typed errors map by class.
    """
    explicit = getattr(exc, "code", None)
    if isinstance(explicit, str) and explicit:
        return explicit
    if isinstance(exc, ProtocolError):
        return "protocol"
    if isinstance(exc, StreamError):
        return "stream"
    if isinstance(exc, AnalysisError):
        return "analysis"
    return "error"


def error_response(
    request: Dict[str, Any], message: str, *, code: str = "error"
) -> Dict[str, Any]:
    """Build a failure response, echoing the request id when present."""
    resp: Dict[str, Any] = {"ok": False, "error": message, "code": code}
    if isinstance(request, dict) and "id" in request:
        resp["id"] = request["id"]
    return resp
