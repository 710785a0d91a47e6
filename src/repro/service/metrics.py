"""Per-op service metrics, and the one Prometheus rendering of them.

The broker tracks, per protocol op, a request counter and a latency
histogram with power-of-two bucket boundaries (microseconds up to ~8 s),
plus admit/reject outcome counters (:class:`ServiceMetrics`); a
broker's listeners add the connections they accepted and the batch
sizes their passes answered (:class:`FrontEndMetrics`). Everything is exposed through the ``stats`` op — no
external metrics dependency is assumed — and every Prometheus series
is a rendering of a ``stats`` answer by :func:`export_stats`: a
broker's own answer, unlabelled (``stats`` with ``format:
"prometheus"``, or the ``--metrics-port`` HTTP scrape endpoint of
``repro serve``), and each fleet tenant's answer under ``tenant=…`` (the
gateway's ``/metrics``, with or without worker processes).

Hot-path cost: the worker loop records one latency sample per request
— two ``time.perf_counter()`` reads and an O(1) bucketing (one
``bit_length`` on the power-of-two ladder). The bench spine's ladder
(``benchmarks/spine/``, ``service.host.self_us_per_op``) is where that
cost shows.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Mapping, Optional

from ..obs.metrics import DEFAULT_TIME_BUCKETS_US, Histogram, MetricsRegistry
from .protocol import KNOWN_OPS

__all__ = ["FrontEndMetrics", "ServiceMetrics", "export_stats", "latency_dict"]


def latency_dict(h: Histogram) -> Dict[str, object]:
    """The ``stats`` op's view of one latency histogram (which observes
    microseconds): count, exact sum in microseconds, mean / max / p50 /
    p99 in milliseconds — the quantiles are bucket upper bounds, ``None``
    when empty — and the non-empty buckets."""
    def ms(us: float) -> float:
        return round(us / 1e3, 4)

    buckets = {
        f"le_{bound}us": c for bound, c in zip(h.bounds, h.counts) if c
    }
    if h.counts[-1]:
        buckets["le_inf"] = h.counts[-1]
    return {
        "count": h.count,
        "sum_us": h.sum,
        "mean_ms": ms(h.sum / h.count) if h.count else 0.0,
        "max_ms": ms(h.max),
        "p50_ms": ms(h.quantile(0.5)) if h.count else None,
        "p99_ms": ms(h.quantile(0.99)) if h.count else None,
        "buckets": buckets,
    }


class ServiceMetrics:
    """Aggregated broker metrics, serialised by the ``stats`` op.

    Scalar counters are plain Python ints and each op's latency is a
    plain :class:`Histogram` (the serving path touches them once per
    request); :func:`export_stats` renders the ``stats`` answer built
    from them, so Prometheus reads the same numbers without taxing the
    hot path.
    """

    def __init__(self) -> None:
        self.started_at = time.time()
        self.op_counts: Dict[str, int] = {}
        self.op_errors: Dict[str, int] = {}
        self.op_latency: Dict[str, Histogram] = {}
        self.admitted_ok = 0
        self.admitted_rejected = 0
        #: Journal append failures survived (rollback + degraded entry).
        self.journal_errors = 0
        #: Times the broker entered read-only degraded mode.
        self.degraded_entered = 0
        #: Mutations answered from the idempotency table (rid replays).
        self.duplicates = 0
        #: The host's :class:`~repro.service.persistence.BrokerState`
        #: (``None`` without one): journal size and compaction counts.
        self.journal: Optional[Any] = None

    def record_op(
        self, op: str, seconds: float, *, error: bool = False
    ) -> None:
        """Count one request and feed its latency histogram. An op
        outside the op table counts as ``"other"``: a client names it,
        so the key set (and the ``stats`` answer) stays closed."""
        hist = self.op_latency.get(op)
        if hist is None:
            op = op if op in KNOWN_OPS else "other"
            hist = self.op_latency.setdefault(op, Histogram())
        self.op_counts[op] = self.op_counts.get(op, 0) + 1
        if error:
            self.op_errors[op] = self.op_errors.get(op, 0) + 1
        hist.observe(seconds * 1e6)

    def to_dict(self) -> Dict[str, object]:
        return {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "ops": dict(sorted(self.op_counts.items())),
            "errors": dict(sorted(self.op_errors.items())),
            "admit": {
                "accepted": self.admitted_ok,
                "rejected": self.admitted_rejected,
            },
            "faults": {
                "journal_errors": self.journal_errors,
                "degraded_entered": self.degraded_entered,
                "duplicates": self.duplicates,
            },
            "journal": {
                key: getattr(self.journal, key, 0)
                for key in ("records", "compactions", "compaction_failures")
            },
            "latency": {
                op: latency_dict(h)
                for op, h in sorted(self.op_latency.items())
            },
        }


class FrontEndMetrics:
    """What a broker's listeners count, added to its ``stats`` answer's
    ``service`` map: connections accepted, the batches the connections'
    passes answered, and read-ahead stalls. A fleet tenant owns no
    connection (the gateway counts its own), so its answer has none."""

    def __init__(self) -> None:
        self.connections = 0
        self.batches = 0
        self.batched_requests = 0
        self.max_batch = 0
        #: Times a connection's reader stopped because its read-ahead
        #: queue was full.
        self.readahead_full = 0

    def record_batch(self, size: int) -> None:
        self.batches += 1
        self.batched_requests += size
        self.max_batch = max(self.max_batch, size)

    def to_dict(self) -> Dict[str, object]:
        mean_batch = (
            self.batched_requests / self.batches if self.batches else 0.0
        )
        return {
            "connections": self.connections,
            "batching": {
                "batches": self.batches,
                "requests": self.batched_requests,
                "mean_size": round(mean_batch, 3),
                "max_size": self.max_batch,
                "readahead_full": self.readahead_full,
            },
        }


# ---------------------------------------------------------------------- #
# Prometheus export: one rendering of ``stats`` answers
# ---------------------------------------------------------------------- #

#: One unlabelled series per ``stats`` field (a dotted path into the
#: answer): field, family, type, help.
_SCALARS = (
    ("admitted", "repro_engine_admitted_streams", "gauge",
     "Streams currently admitted by the engine."),
    ("degraded", "repro_broker_degraded", "gauge",
     "1 while the broker is in read-only degraded mode."),
    ("service.uptime_seconds", "repro_broker_uptime_seconds", "gauge",
     "Seconds since broker start."),
    ("service.faults.journal_errors", "repro_broker_journal_errors_total",
     "counter", "Journal append failures survived via rollback."),
    ("service.faults.degraded_entered",
     "repro_broker_degraded_entered_total", "counter",
     "Times the broker entered read-only degraded mode."),
    ("service.faults.duplicates", "repro_broker_duplicate_requests_total",
     "counter", "Mutations answered from the idempotency (rid) table."),
    ("service.journal.records", "repro_broker_journal_records", "gauge",
     "Records in the journal: what a restart replays on top of the "
     "snapshot."),
    ("service.journal.compactions", "repro_broker_compactions_total",
     "counter", "Snapshot compactions written (recovery, snapshot op, "
     "journal size)."),
    ("service.journal.compaction_failures",
     "repro_broker_compaction_failures_total", "counter",
     "Snapshot compactions that failed; the journal kept growing."),
    ("engine.stale", "repro_engine_stale_streams", "gauge",
     "Admitted streams whose verdict awaits a settle (replayed, not yet "
     "read)."),
    ("engine.dirty_total", "repro_engine_dirty_frontier_total", "counter",
     "Sum of dirty-frontier sizes over incremental ops."),
    ("engine.cache_hit_rate", "repro_engine_cache_hit_rate", "gauge",
     "Fraction of per-stream verdicts served from cache."),
    ("engine.dirty_last", "repro_engine_dirty_frontier_last", "gauge",
     "Dirty-frontier size of the most recent incremental op."),
    ("engine.dirty_max", "repro_engine_dirty_frontier_max", "gauge",
     "Largest dirty frontier seen."),
) + tuple(
    (f"engine.{phase}_seconds", f"repro_engine_{phase}_seconds_total",
     "counter", f"Wall-clock seconds spent in the {phase} phase of the "
     "admission hot path.")
    for phase in ("route", "hp", "diagram", "verdict")
) + tuple(
    (f"engine.{field}", f"repro_engine_{field}_total", "counter", help_text)
    for field, help_text in {
        "ops": "Engine operations (admit + release calls).",
        "admits": "Accepted admission batches.",
        "rejects": "Rejected admission batches.",
        "releases": "Release operations.",
        "verdicts_recomputed": "Per-stream verdicts recomputed.",
        "verdicts_reused": "Per-stream verdicts served from cache.",
        "verdict_memo_hits": "Verdicts served from the input-keyed memo "
                             "without recomputation.",
        "hp_rebuilt": "HP sets built from the maintained reach closures, "
                      "one per recomputed verdict (a memo hit builds none).",
        "forced_invalidations": "Forced cache invalidations (chaos "
                                "cache_storm hook).",
        "reroutes": "Routing swaps applied (link failures and restores).",
        "reroute_evictions": "Streams the routing swaps evicted "
                             "(disconnected, or past their deadline after "
                             "a reroute).",
        "route_cache_hits": "Route cache hits.",
        "route_cache_misses": "Route cache misses.",
    }.items()
)

#: The front end's fields, rendered like ``_SCALARS`` where an answer
#: has them: a broker's, not a fleet tenant's.
_FRONT_END = (
    ("service.connections", "repro_broker_connections_total", "counter",
     "Client connections accepted."),
    ("service.batching.batches", "repro_broker_batches_total", "counter",
     "Passes that answered at least one request (one connection, one "
     "write each)."),
    ("service.batching.requests", "repro_broker_batched_requests_total",
     "counter", "Requests answered by those passes; over batches_total it "
     "is the mean batch (1.0 under serial clients)."),
    ("service.batching.max_size", "repro_broker_batch_max_size", "gauge",
     "Most requests one pass has answered so far."),
    ("service.batching.readahead_full", "repro_broker_readahead_full_total",
     "counter", "Times a connection's reader stopped reading because its "
     "read-ahead queue was full."),
)

#: One counter per key of a ``stats`` map: field, family, label, help.
_LABELLED = (
    ("service.ops", "repro_broker_ops_total", "op",
     "Requests handled, by op."),
    ("service.errors", "repro_broker_op_errors_total", "op",
     "Failed requests, by op."),
    ("service.admit", "repro_broker_admit_total", "outcome",
     "Admission requests, by outcome."),
)

#: ``latency_dict`` bucket key -> index into :attr:`Histogram.counts`.
_BUCKET_INDEX = {
    **{f"le_{bound}us": i for i, bound in enumerate(DEFAULT_TIME_BUCKETS_US)},
    "le_inf": len(DEFAULT_TIME_BUCKETS_US),
}


def _field(answer: Mapping[str, Any], path: str) -> Any:
    for key in path.split("."):
        answer = answer[key]
    return answer


def export_stats(
    answers: Mapping[Optional[str], Mapping[str, Any]]
) -> MetricsRegistry:
    """Render ``stats`` answers as Prometheus series into a new registry.

    ``answers`` maps a tenant name to its answer, labelled ``tenant``,
    or ``None`` to a broker's own answer, unlabelled. An answer that
    failed (``ok: false``: a dead tenant or worker) contributes no
    series. Values are the answer's, so its rounding (``uptime_seconds``
    to ms, phase seconds to µs, ``cache_hit_rate`` to 4 places) is the
    exposition's.
    """
    reg = MetricsRegistry()
    for tenant, answer in answers.items():
        if answer.get("ok") is False:
            continue
        labels = {} if tenant is None else {"tenant": tenant}
        front_end = _FRONT_END if "batching" in answer["service"] else ()
        for path, family, kind, help_text in _SCALARS + front_end:
            metric = getattr(reg, kind)(family, help_text, **labels)
            metric.value = float(_field(answer, path))
        for path, family, label, help_text in _LABELLED:
            for key, count in _field(answer, path).items():
                reg.counter(
                    family, help_text, **labels, **{label: key}
                ).value = float(count)
        for op, lat in answer["service"]["latency"].items():
            hist = reg.histogram(
                "repro_broker_op_latency_us",
                "Request handling latency in microseconds, by op.",
                **labels, op=op,
            )
            for key, count in lat["buckets"].items():
                hist.counts[_BUCKET_INDEX[key]] = count
            hist.count, hist.sum = lat["count"], lat["sum_us"]
    return reg
