"""Sharded broker fleet: horizontal scale-out for the admission broker.

The paper's host processor is a single point of both failure and
throughput; this package grows it into a small fleet without giving up
the broker's defining property — bit-identical admission verdicts:

:mod:`repro.fleet.regions`
    :class:`ChannelIndex` — the dynamic channel-connected components of
    the admitted set, the sound unit of stream placement (Kim98 bounds
    only couple streams sharing channels, transitively; finding F-7).

:mod:`repro.fleet.shards`
    :class:`TenantFleet` / :class:`Fleet` — partition tenants across
    per-shard :class:`~repro.service.host.EngineHost` engines, keeping
    one component per shard via escalation-by-migration; verdicts and
    reports are byte-identical to a single engine holding the same set.

:mod:`repro.fleet.workers`
    :class:`WorkerSupervisor` — each tenant's whole fleet in a
    supervised child process (``Fleet(..., workers=N)``): one
    JSON-lines unix socket per worker, SIGKILL-safe restarts with
    journal recovery, per-core parallelism across tenants.

:mod:`repro.fleet.gateway`
    :class:`GatewayServer` — the asyncio HTTP front end
    (``repro gateway``): per-tenant API keys, /healthz, Prometheus
    /metrics rollup, JSON admission API, kill/failover admin ops (a
    failover recovers the shard from its journal, as a restart does).

:mod:`repro.fleet.client`
    :class:`GatewayClient` — the broker client with an HTTP framing, so
    ``repro load --target http://...`` replays the same churn workloads
    (pipelined or not) against the fleet.
"""

from .client import GatewayClient
from .gateway import GatewayServer
from .regions import ChannelIndex, entry_channels
from .shards import Fleet, TenantFleet, TenantSpec
from .workers import WorkerSupervisor

__all__ = [
    "ChannelIndex",
    "entry_channels",
    "Fleet",
    "TenantFleet",
    "TenantSpec",
    "GatewayServer",
    "GatewayClient",
    "WorkerSupervisor",
]
