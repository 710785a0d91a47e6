"""Multi-tenant broker fleet: one engine host per tenant behind one
HTTP gateway, each answering exactly as a broker holding its streams.

* :mod:`~repro.fleet.shards` — :class:`TenantHost` / :class:`Fleet`:
  tenants, each one engine host, routed by API key.
* :mod:`~repro.fleet.workers` — :class:`WorkerSupervisor`: tenants in
  supervised child processes.
* :mod:`~repro.fleet.gateway` — :class:`GatewayServer`, the HTTP front
  end (``repro gateway``).
* :mod:`~repro.fleet.client` — :class:`GatewayClient`, the broker
  client with an HTTP framing (``repro load --target http://...``).
"""

from .client import GatewayClient
from .gateway import GatewayServer
from .shards import Fleet, TenantHost, TenantSpec
from .workers import WorkerSupervisor

__all__ = [
    "Fleet",
    "TenantHost",
    "TenantSpec",
    "GatewayServer",
    "GatewayClient",
    "WorkerSupervisor",
]
