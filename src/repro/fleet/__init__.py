"""Sharded broker fleet: the admission broker grown into a small fleet
that keeps its defining property, bit-identical admission verdicts.

* :mod:`~repro.fleet.regions` — :class:`ChannelIndex`, the channel-
  connected components of the admitted set: the sound unit of placement
  (bounds only couple streams sharing channels, transitively; F-7).
* :mod:`~repro.fleet.shards` — :class:`TenantFleet` / :class:`Fleet`:
  tenants over per-shard engines, one component per shard.
* :mod:`~repro.fleet.workers` — :class:`WorkerSupervisor`: each
  tenant's whole fleet in a supervised child process.
* :mod:`~repro.fleet.gateway` — :class:`GatewayServer`, the HTTP front
  end (``repro gateway``).
* :mod:`~repro.fleet.client` — :class:`GatewayClient`, the broker
  client with an HTTP framing (``repro load --target http://...``).
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
