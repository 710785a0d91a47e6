"""Observability: structured tracing, bound provenance, metrics export.

Three independent sub-systems, all zero-overhead when disabled:

* :mod:`repro.obs.trace` — a lightweight span/event tracer gated by the
  ``REPRO_TRACE`` environment variable. Instruments the analysis pipeline
  (HP-set construction, diagram generation, ``Modify_Diagram`` release
  passes, per-stream ``Cal_U``) and the simulator fast path (clock jumps,
  preemptions, VC waits). Emits JSONL trace files; see
  :mod:`repro.obs.chrome` for the ``chrome://tracing`` exporter.
* :mod:`repro.obs.provenance` — per-stream *explanations* of delay upper
  bounds: which HP elements contributed which slots, what
  ``Modify_Diagram`` released, and the busy-window timeline. Rendered by
  the ``repro explain`` CLI as an annotated timing diagram.
* :mod:`repro.obs.metrics` — a dependency-free metrics registry
  (counters, gauges, histograms) with Prometheus text-format rendering,
  shared by the broker service and its admission engine.

This package init deliberately imports only the dependency-free modules;
:mod:`repro.obs.provenance` pulls in :mod:`repro.core` and is loaded
lazily so that core modules can import :mod:`repro.obs.trace` without a
cycle, and the offline :mod:`repro.obs.chrome` exporter is loaded lazily
so that a served interpreter never imports it (:mod:`repro._lazy`).
"""

from __future__ import annotations

from .._lazy import lazy_exports

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .trace import (
    TraceEvent,
    Tracer,
    active,
    configure_from_env,
    install,
    read_trace,
    span,
    trace_enabled_from_env,
    uninstall,
)

__all__ = [
    # trace
    "TraceEvent",
    "Tracer",
    "active",
    "configure_from_env",
    "install",
    "read_trace",
    "span",
    "trace_enabled_from_env",
    "uninstall",
    # chrome (lazy)
    "chrome_trace",
    "export_chrome_trace",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    # provenance (lazy)
    "StreamExplanation",
    "HPContribution",
    "ReleasedInstance",
    "explain_stream",
    "render_explanation",
]

__getattr__ = lazy_exports(__name__, {
    "chrome_trace": (".chrome", "chrome_trace"),
    "export_chrome_trace": (".chrome", "export_chrome_trace"),
    **{name: (".provenance", name) for name in (
        "StreamExplanation",
        "HPContribution",
        "ReleasedInstance",
        "explain_stream",
        "render_explanation",
    )},
})
