"""Online channel-broker service (the paper's host processor, as a daemon).

The paper's deployment model (Fig. 1) is a host processor that owns all
traffic information and admits real-time jobs online by re-running the
feasibility test. This package turns that role into a long-lived service:

:mod:`repro.service.engine`
    :class:`IncrementalAdmissionEngine` — admission control with per-stream
    caches of routes, HP sets and delay bounds; on admit/release it
    recomputes only the streams whose transitive HP closure intersects the
    change, with bit-identical reports to a from-scratch
    :class:`~repro.core.feasibility.FeasibilityAnalyzer` run.

:mod:`repro.service.server`
    :class:`BrokerServer` — an asyncio JSON-lines server (``repro serve``)
    exposing ``admit`` / ``release`` / ``query`` / ``report`` /
    ``snapshot`` / ``stats`` ops with request batching, per-op metrics and
    snapshot+journal persistence.

:mod:`repro.service.protocol` / :mod:`repro.service.client`
    What the wire says, and :class:`BrokerClient`, the one client that
    speaks it (unix/TCP socket, worker RPC, HTTP gateway).

:mod:`repro.service.loadgen`
    A seeded churn load generator (``repro load``), also used by the
    bench spine (``benchmarks/spine/``).
"""

from .engine import EngineStats, IncrementalAdmissionEngine
from .host import EngineHost
from .loadgen import BrokerClient, LoadSummary, run_load
from .metrics import ServiceMetrics
from .persistence import BrokerState
from .protocol import DegradedError
from .server import BrokerServer

__all__ = [
    "IncrementalAdmissionEngine",
    "EngineStats",
    "EngineHost",
    "DegradedError",
    "BrokerServer",
    "BrokerClient",
    "BrokerState",
    "ServiceMetrics",
    "LoadSummary",
    "run_load",
]
