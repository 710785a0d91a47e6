"""What the broker's wire says — stated here once, interpreted elsewhere.

One request per line, one response per line, UTF-8 JSON objects. Every
request carries an ``op`` and may carry a client-chosen ``id`` echoed back
verbatim in the response (useful for pipelining). Responses always carry
``ok`` (bool); failures add ``error`` (message) and ``code``. The op
table, field validators, request envelope, rid table, error map and
state fingerprint below are the only copies: ``EngineHost``, the fleet,
its workers and the gateway call them (:mod:`repro.service.client` is
the matching one place that knows how to *speak* the protocol).

Idempotent retries (``rid``)
----------------------------
Mutating ops (``admit``/``release``/``fail_link``/``restore_link`` — the
``mutates`` column of :data:`OPS`) may carry a ``rid``: a non-empty
client-chosen string identifying the *request* (not the connection).
When a mutation succeeds, its ``rid`` is recorded — in memory, in the
journal entry, and through snapshot compaction — and a later request
with the same ``rid`` is **not re-executed**: the server answers with
the recorded outcome plus ``"duplicate": true`` — the response keys the
``outcome`` column of :data:`OPS` names (for ``admit``
``admitted``/``ids`` without the per-stream ``bounds``/``closures``
detail; for ``release`` the ``released`` ids; for a link op its
reroute/evict delta). This makes at-least-once retry loops safe: a
client whose connection died after sending a request simply reconnects
and resends the same ``rid``; whether or not the original was applied,
the end state is applied-exactly-once. Failed mutations record nothing
— retrying them re-evaluates deterministically.
The server keeps the most recent ``RID_CAP`` rids (FIFO), so retries
must happen promptly, not hours later.

Degraded (read-only) mode
-------------------------
When the journal becomes unwritable (disk full, I/O error) the broker
repairs the journal, rolls the in-memory engine back so memory matches
disk, and stops accepting mutations: they fail with ``code:
"degraded"`` (:class:`DegradedError`) while reads (``query``/``report``/
``links``/``stats``/``hello``) keep working. A successful ``snapshot``
op (which rewrites the snapshot and truncates the journal) clears the
condition. A fleet tenant that was killed refuses every op with
``code: "down"`` (:class:`TenantDownError`) until it is failed over,
i.e. recovered from its journal.

Ops
---
:data:`OPS` is the source: the names a server accepts, which of them
mutate, which the gateway routes as ``POST /v1/<op>``, and what a
committed mutation records under its rid; every list of ops elsewhere
derives from it, and :class:`~repro.service.host.EngineHost` is what
executes it.

``hello`` / ``ping``
    Server identity (``ping`` is an alias): name, version, topology
    spec, node count, known analysis backends and the default one.
    Clients use the topology to build stream specs.
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
``fail_link`` / ``restore_link``
    ``link``: a ``[u, v]`` pair naming a physical link. The routing
    swaps to detour around every failed link (or back), streams are
    rerouted, and those no longer feasible or connected are evicted.
    Response: the ``rerouted`` / ``evicted`` / ``disconnected`` /
    ``survivors`` ids, the ``failed_links`` set and ``admitted``.
    Failing a failed link, or restoring a healthy one, is an error.
``links``
    The failed-link set and the name of the routing in effect.
``snapshot``
    Persist the admitted set to the snapshot file and truncate the
    journal. Requires the server to run with a state dir.
``stats``
    Per-op metrics, engine cache counters, admitted count, fresh-id
    mark.
``shutdown``
    Acknowledge, then stop the server gracefully.
``kill`` / ``failover``
    A fleet tenant stops serving (a crash of its host), or replays its
    journal the way a restart does; unknown to a broker.
"""

from __future__ import annotations

import json
import logging
import random
import time
from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple,
)

from ..core import backends as _backends
from ..core.streams import MessageStream
from ..errors import AnalysisError, ReproError, StreamError
from ..io import stream_from_spec
from ..obs.trace import span as _span
from ..topology.degraded import normalize_link
from .persistence import RID_CAP

__all__ = [
    "DegradedError",
    "OPS",
    "ProtocolError",
    "RidTable",
    "TenantDownError",
    "answer",
    "coerce_int",
    "coerce_rid",
    "encode",
    "decode",
    "error_code",
    "error_response",
    "fingerprint",
    "merge_outcomes",
    "op_record",
    "outcome",
    "parse_admit",
    "parse_line",
    "parse_link",
    "parse_query",
    "parse_release",
    "parse_streams",
    "retry_backoff",
]

logger = logging.getLogger(__name__)


class Op(NamedTuple):
    """One row of the op table."""

    name: str
    #: Changes the admitted set or the routing: journaled, refused while
    #: degraded, may carry a ``rid``.
    mutates: bool = False
    #: The gateway forwards ``POST /v1/<name>`` to the tenant
    #: (``shutdown`` it serves itself: it stops the gateway; the tenant
    #: lifecycle ops it runs only for ``/admin/kill`` and
    #: ``/admin/failover``).
    http: bool = True
    #: The response keys a committed mutation records under its ``rid``
    #: (in this order: snapshots write the record as it is) — what a
    #: retry gets back, with ``duplicate``.
    outcome: Tuple[str, ...] = ()


_LINK_OUTCOME = (
    "op", "link", "rerouted", "evicted", "disconnected", "survivors",
)

OPS = (
    Op("hello"),
    Op("ping"),
    Op("admit", mutates=True, outcome=("admitted", "ids")),
    Op("release", mutates=True, outcome=("released",)),
    Op("query"),
    Op("report"),
    Op("snapshot"),
    Op("stats"),
    Op("fail_link", mutates=True, outcome=_LINK_OUTCOME),
    Op("restore_link", mutates=True, outcome=_LINK_OUTCOME),
    Op("links"),
    Op("shutdown", http=False),
    Op("kill", http=False),
    Op("failover", http=False),
)
#: Ops the server accepts (``hello``/``ping`` are aliases).
KNOWN_OPS = tuple(op.name for op in OPS)
MUTATING_OPS = frozenset(op.name for op in OPS if op.mutates)
HTTP_OPS = tuple(op.name for op in OPS if op.http)
_OUTCOMES = {op.name: op.outcome for op in OPS if op.mutates}


class ProtocolError(ReproError):
    """Raised for malformed broker requests (bad JSON, unknown op, ...)."""


class DegradedError(ReproError):
    """Raised for mutations while the host is read-only (``degraded``).

    Entered when the journal becomes unwritable: the failed mutation is
    rolled back (memory must keep matching disk), and further mutations
    are refused until a successful ``snapshot`` op re-establishes durable
    storage. Reads and idempotent replays of already-committed mutations
    keep working throughout.
    """

    #: Wire code (see :func:`error_code`).
    code = "degraded"


class TenantDownError(ReproError):
    """Raised for an op of a fleet tenant that was killed: fail it over,
    then retry (``code: "down"``)."""

    code = "down"


# ---------------------------------------------------------------------- #
# Framing and field coercion
# ---------------------------------------------------------------------- #


def encode(message: Dict[str, Any]) -> bytes:
    """Serialise one protocol message to a JSON line."""
    return (json.dumps(message, separators=(",", ":"),
                       sort_keys=True) + "\n").encode("utf-8")


def parse_line(line: bytes) -> Dict[str, Any]:
    """Parse one line into a JSON object (any ``op``, or none)."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object")
    return obj


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one request line; validates shape and op name."""
    obj = parse_line(line)
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
    try:
        if isinstance(value, bool):
            raise TypeError
        out = int(value)
        if isinstance(value, float) and value != out:
            raise ValueError
    except (ValueError, TypeError, OverflowError):   # Overflow: Infinity
        raise ProtocolError(
            f"{what} must be an integer, got {value!r}"
        ) from None
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


def op_record(
    op: str, rid: Optional[str] = None, /, **fields: Any
) -> Dict[str, Any]:
    """One op as a record a host journals or a sub-request a fleet
    forwards: ``op``, the ``fields`` that are not ``None`` and the
    ``rid`` if there is one."""
    record = {"op": op, "rid": rid, **fields}
    if None in record.values():
        record = {key: value for key, value in record.items()
                  if value is not None}
    return record


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


# ---------------------------------------------------------------------- #
# Request validation (what an op's fields must look like)
# ---------------------------------------------------------------------- #


def parse_streams(
    topology: Any, entries: Iterable[Any], fresh_id: Callable[[], int]
) -> List[MessageStream]:
    """Build the streams of problem-file ``entries``; an entry without
    an ``id`` takes ``fresh_id()`` (the server's allocator)."""
    streams: List[MessageStream] = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ProtocolError("'streams' entries must be objects")
        sid = (coerce_int(entry["id"], "stream entry 'id'")
               if entry.get("id") is not None
               else fresh_id())
        try:
            streams.append(
                stream_from_spec(topology, entry, stream_id=sid)
            )
        except (ValueError, TypeError) as exc:
            raise ProtocolError(
                f"invalid stream entry (id {sid}): {exc}"
            ) from None
    return streams


def parse_admit(
    request: Dict[str, Any], topology: Any, fresh_id: Callable[[], int]
) -> Tuple[List[MessageStream], Optional[str]]:
    """``(streams, analysis backend name or None)`` of an ``admit``."""
    entries = request.get("streams")
    if not isinstance(entries, list) or not entries:
        raise ProtocolError("'admit' needs a non-empty 'streams' list")
    analysis = request.get("analysis")
    if analysis is not None:
        if not isinstance(analysis, str):
            raise ProtocolError(
                f"'analysis' must be a string, got {analysis!r}"
            )
        if analysis not in _backends.names():
            raise ProtocolError(
                f"unknown analysis backend {analysis!r} (known: "
                f"{', '.join(_backends.names())})"
            )
    return parse_streams(topology, entries, fresh_id), analysis


def parse_release(request: Dict[str, Any]) -> List[int]:
    """The ids of a ``release``, in request order."""
    ids = request.get("ids")
    if not isinstance(ids, list) or not ids:
        raise ProtocolError("'release' needs a non-empty 'ids' list")
    return [coerce_int(i, "'release' id") for i in ids]


def parse_query(request: Dict[str, Any]) -> int:
    """The stream id of a ``query``."""
    sid = request.get("stream")
    if sid is None:
        raise ProtocolError("'query' needs a 'stream' id")
    return coerce_int(sid, "'query' stream")


def parse_link(
    request: Dict[str, Any], topology: Any, failed: Set[Tuple[int, int]]
) -> Tuple[Tuple[int, int], Set[Tuple[int, int]]]:
    """``(link, failed-link set afterwards)`` of a ``fail_link`` /
    ``restore_link`` against the currently ``failed`` links."""
    op = request["op"]
    raw = request.get("link")
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ProtocolError(f"'{op}' needs a 'link' [u, v] pair")
    link = normalize_link(
        coerce_int(raw[0], "'link' endpoint"),
        coerce_int(raw[1], "'link' endpoint"),
    )
    if op == "restore_link":
        if link not in failed:
            raise ProtocolError(f"link {list(link)} is not failed")
        return link, failed - {link}
    if not topology.has_channel(link[0], link[1]):
        raise ProtocolError(
            f"no physical link {list(link)} in the topology"
        )
    if link in failed:
        raise ProtocolError(f"link {list(link)} is already failed")
    return link, failed | {link}


# ---------------------------------------------------------------------- #
# Outcomes and the idempotency table
# ---------------------------------------------------------------------- #


def _project(op: str, response: Dict[str, Any]) -> Dict[str, Any]:
    return {key: response[key] for key in _OUTCOMES[op]}


def outcome(op: str, /, **response: Any) -> Dict[str, Any]:
    """The outcome of a committed mutation ``op``: its answer reduced to
    the op's ``outcome`` keys (or built from exactly those)."""
    return _project(op, response)


def _ids(key: str, value: Any) -> bool:
    """Whether an outcome field is a list of stream ids (a link's
    endpoints are a list too, but not ids)."""
    return isinstance(value, list) and key != "link"


def merge_outcomes(shares: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One outcome from the shares of one op that several shards of a
    legacy sharded state dir recorded — a release spanning shards, a
    broadcast link op: every id list is the ascending union, the rest
    is what the shares agree on."""
    return {
        key: sorted({int(sid) for share in shares for sid in share[key]})
        if _ids(key, value) else value
        for key, value in shares[0].items()
    }


class RidTable(dict):
    """``rid`` -> recorded outcome of the committed mutation, keeping
    the most recent :data:`~repro.service.persistence.RID_CAP` (FIFO).

    A plain mapping to everything that persists or ships it (snapshot
    writer, recovery).
    """

    def record(
        self, rid: Optional[str], op: str, response: Dict[str, Any]
    ) -> None:
        """Remember what mutation ``op`` answered under its rid, as its
        :func:`outcome`. An admit the engine refused committed nothing
        and records nothing."""
        if rid is None or response.get("admitted") is False:
            return
        self[str(rid)] = _project(op, response)
        while len(self) > RID_CAP:
            del self[next(iter(self))]

    def merge(self, rid: str, share: Dict[str, Any]) -> None:
        """Fold one legacy shard's record of ``rid`` into the table
        (:func:`repro.fleet.shards.fold_shards`): a share of the same op
        joins the record already there (:func:`merge_outcomes`),
        anything else replaces it."""
        prior = self.get(rid)
        if prior is not None and prior.keys() == share.keys() and all(
            _ids(key, value) or share[key] == value
            for key, value in prior.items()
        ):
            share = merge_outcomes([prior, share])
        self[rid] = dict(share)

    def replay(self, rid: Optional[str]) -> Optional[Dict[str, Any]]:
        """The ``duplicate`` answer for an already-applied rid, or
        ``None``. Replaying writes nothing, so it is safe while
        read-only — exactly when crash-induced retries arrive."""
        if rid is None or rid not in self:
            return None
        return {**self[rid], "duplicate": True}


# ---------------------------------------------------------------------- #
# Errors on the wire
# ---------------------------------------------------------------------- #

#: Wire code <-> error class, for the typed errors.
_CODES = {
    "degraded": DegradedError,
    "down": TenantDownError,
    "protocol": ProtocolError,
    "stream": StreamError,
    "analysis": AnalysisError,
}


def error_code(exc: ReproError) -> str:
    """The wire ``code`` of an error.

    A non-empty ``code`` attribute wins (``DegradedError`` names its
    own); otherwise the typed errors map by class.
    """
    explicit = getattr(exc, "code", None)
    if isinstance(explicit, str) and explicit:
        return explicit
    for code, cls in _CODES.items():
        if isinstance(exc, cls):
            return code
    return "error"


def error_response(
    request: Dict[str, Any], message: str, *, code: str = "error"
) -> Dict[str, Any]:
    """Build a failure response, echoing the request id when present."""
    resp: Dict[str, Any] = {"ok": False, "error": message, "code": code}
    if isinstance(request, dict) and "id" in request:
        resp["id"] = request["id"]
    return resp


# ---------------------------------------------------------------------- #
# The request envelope and the state fingerprint
# ---------------------------------------------------------------------- #


def answer(
    request: Dict[str, Any],
    dispatch: Callable[[str, Dict[str, Any]], Optional[Dict[str, Any]]],
    metrics: Any,
    span_name: str,
    span_cat: str,
    **labels: Any,
) -> Dict[str, Any]:
    """Execute one request through ``dispatch(op, request)`` (``None``
    for an op it does not serve) and return the response object: timed
    into ``metrics``, traced as one span, ``ok`` and the request ``id``
    stamped on success, a :class:`ReproError` turned into its error
    response."""
    op = request.get("op")
    t0 = time.perf_counter()
    try:
        with _span(span_name, span_cat, op=str(op), **labels):
            if not isinstance(op, str):
                raise ProtocolError("request needs a string 'op' field")
            response = dispatch(op, request)
            if response is None:
                raise ProtocolError(f"unknown op {op!r}")
        response["ok"] = True
        if "id" in request:
            response["id"] = request["id"]
        metrics.record_op(op, time.perf_counter() - t0)
        return response
    except ReproError as exc:
        metrics.record_op(str(op), time.perf_counter() - t0, error=True)
        return error_response(request, str(exc), code=error_code(exc))
    except Exception as exc:
        # Last-resort guard: an escaped exception would kill the single
        # worker task and wedge every connection. Persistence failures
        # (journal append OSError) land here too.
        logger.exception("internal error handling %r", op)
        metrics.record_op(str(op), time.perf_counter() - t0, error=True)
        return error_response(
            request,
            f"internal error handling {op!r}: {exc!r}",
            code="internal",
        )


def fingerprint(
    handle_request: Callable[[Dict[str, Any]], Dict[str, Any]],
    ids: Iterable[int],
    next_id: int,
) -> Tuple[str, Dict[str, Any]]:
    """``(sha256, spec)`` of everything recovery promises to preserve.

    Covers the admitted stream specs, each stream's delay bound /
    feasibility / slack / HP closure, the full feasibility report, the
    failed links and the fresh-id high-water mark. Built through the
    public protocol ops so it fingerprints what clients can observe —
    and is byte-identical for any two hosts holding the same streams.
    """
    def ask(**request: Any) -> Dict[str, Any]:
        response = handle_request(request)
        if not response.get("ok"):  # pragma: no cover - defensive
            raise ReproError(
                f"{request} failed while fingerprinting: {response}"
            )
        return response

    report = ask(op="report")
    streams: Dict[str, Any] = {}
    for sid in ids:
        query = ask(op="query", stream=sid)
        streams[str(sid)] = {
            key: query[key] for key in
            ("stream", "upper_bound", "feasible", "slack", "closure")
        }
    spec = {
        "streams": streams,
        "next_id": next_id,
        "report": report["report"],
        "admitted": report["admitted"],
        "failed_links": ask(op="links")["failed_links"],
    }
    # hashlib maps libcrypto: a served process that never fingerprints
    # does not load it.
    import hashlib

    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest(), spec
