"""Per-op service metrics: counters and log-scale latency histograms.

The broker tracks, per protocol op, a request counter and a latency
histogram with power-of-two bucket boundaries (microseconds up to ~8 s),
plus admit/reject outcome counters and the batch sizes the connections'
passes answered. Everything is exposed through the ``stats`` op —
no external metrics dependency is assumed — and, since PR 4, through the
shared :class:`~repro.obs.metrics.MetricsRegistry` as Prometheus text
(``stats`` with ``format: "prometheus"``, or the ``--metrics-port`` HTTP
scrape endpoint of ``repro serve``).

Hot-path cost: the worker loop records one latency sample per request
— two ``time.perf_counter()`` reads and an O(1) bucketing (one
``bit_length`` on the power-of-two ladder). The bench spine's ladder
(``benchmarks/spine/``, ``service.host.self_us_per_op``) is where that
cost shows.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from ..obs.metrics import Histogram, MetricsRegistry

__all__ = ["ServiceMetrics", "latency_dict"]


def latency_dict(h: Histogram) -> Dict[str, object]:
    """The ``stats`` op's view of one latency histogram (which observes
    microseconds): count, mean / max / p50 / p99 in milliseconds — the
    quantiles are bucket upper bounds, ``None`` when empty — and the
    non-empty buckets."""
    def ms(us: float) -> float:
        return round(us / 1e3, 4)

    buckets = {
        f"le_{bound}us": c for bound, c in zip(h.bounds, h.counts) if c
    }
    if h.counts[-1]:
        buckets["le_inf"] = h.counts[-1]
    return {
        "count": h.count,
        "mean_ms": ms(h.sum / h.count) if h.count else 0.0,
        "max_ms": ms(h.max),
        "p50_ms": ms(h.quantile(0.5)) if h.count else None,
        "p99_ms": ms(h.quantile(0.99)) if h.count else None,
        "buckets": buckets,
    }


class ServiceMetrics:
    """Aggregated broker metrics, serialised by the ``stats`` op.

    Scalar counters stay plain Python ints (the serving path touches them
    once per request); latency histograms live directly in the shared
    :class:`MetricsRegistry`. :meth:`sync_registry` copies the scalars
    into registry counters/gauges, so Prometheus rendering reflects the
    same numbers without taxing the hot path.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
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
        self.batches = 0
        self.batched_requests = 0
        self.max_batch = 0
        #: Times a connection's reader stopped because its read-ahead
        #: queue was full.
        self.readahead_full = 0
        self.connections = 0

    def record_op(
        self, op: str, seconds: float, *, error: bool = False
    ) -> None:
        """Count one request and feed its latency histogram."""
        self.op_counts[op] = self.op_counts.get(op, 0) + 1
        if error:
            self.op_errors[op] = self.op_errors.get(op, 0) + 1
        hist = self.op_latency.get(op)
        if hist is None:
            hist = self.op_latency[op] = self.registry.histogram(
                "repro_broker_op_latency_us",
                "Request handling latency in microseconds, by op.",
                op=op,
            )
        hist.observe(seconds * 1e6)

    def record_batch(self, size: int) -> None:
        self.batches += 1
        self.batched_requests += size
        self.max_batch = max(self.max_batch, size)

    def to_dict(self) -> Dict[str, object]:
        mean_batch = (
            self.batched_requests / self.batches if self.batches else 0.0
        )
        return {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "connections": self.connections,
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
            "batching": {
                "batches": self.batches,
                "requests": self.batched_requests,
                "mean_size": round(mean_batch, 3),
                "max_size": self.max_batch,
                "readahead_full": self.readahead_full,
            },
            "latency": {
                op: latency_dict(h)
                for op, h in sorted(self.op_latency.items())
            },
        }

    # ------------------------------------------------------------------ #
    # Prometheus export
    # ------------------------------------------------------------------ #

    def sync_registry(self) -> MetricsRegistry:
        """Copy the scalar counters into the shared registry and return it.

        Called per export (``stats --format prometheus`` / HTTP scrape),
        never per request. Latency histograms are already registry-backed.
        """
        reg = self.registry
        reg.gauge(
            "repro_broker_uptime_seconds", "Seconds since broker start."
        ).set(time.time() - self.started_at)
        reg.counter(
            "repro_broker_connections_total", "Client connections accepted."
        ).value = float(self.connections)
        for op, n in self.op_counts.items():
            reg.counter(
                "repro_broker_ops_total", "Requests handled, by op.", op=op
            ).value = float(n)
        for op, n in self.op_errors.items():
            reg.counter(
                "repro_broker_op_errors_total", "Failed requests, by op.",
                op=op,
            ).value = float(n)
        for outcome, n in (
            ("accepted", self.admitted_ok),
            ("rejected", self.admitted_rejected),
        ):
            reg.counter(
                "repro_broker_admit_total",
                "Admission requests, by outcome.",
                outcome=outcome,
            ).value = float(n)
        reg.counter(
            "repro_broker_journal_errors_total",
            "Journal append failures survived via rollback.",
        ).value = float(self.journal_errors)
        reg.counter(
            "repro_broker_degraded_entered_total",
            "Times the broker entered read-only degraded mode.",
        ).value = float(self.degraded_entered)
        reg.counter(
            "repro_broker_duplicate_requests_total",
            "Mutations answered from the idempotency (rid) table.",
        ).value = float(self.duplicates)
        reg.counter(
            "repro_broker_batches_total",
            "Passes that answered at least one request (one "
            "connection, one write each).",
        ).value = float(self.batches)
        reg.counter(
            "repro_broker_batched_requests_total",
            "Requests answered by those passes; over batches_total it is "
            "the mean batch (1.0 under serial clients).",
        ).value = float(self.batched_requests)
        reg.gauge(
            "repro_broker_batch_max_size",
            "Most requests one pass has answered so far.",
        ).set(self.max_batch)
        reg.counter(
            "repro_broker_readahead_full_total",
            "Times a connection's reader stopped reading because its "
            "read-ahead queue was full.",
        ).value = float(self.readahead_full)
        return reg

    def render_prometheus(self) -> str:
        """The service metrics in Prometheus text exposition format."""
        return self.sync_registry().render()
