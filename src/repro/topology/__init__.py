"""Interconnection-network topologies and deterministic routing.

This subpackage is the static substrate of the reproduction: it answers
"which directed channels exist" and "which channels does a (source,
destination) route occupy". Everything the feasibility analysis needs from
the network reduces to those two questions.
"""

from .base import Channel, Topology
from .degraded import DegradedTopology, links, normalize_link
from .hypercube import Hypercube
from .mesh import Mesh, Mesh2D
from .routing import (
    DimensionOrderRouting,
    ECubeRouting,
    FaultAwareRouting,
    RoutingAlgorithm,
    TableRouting,
    TorusDimensionOrderRouting,
    UpDownRouting,
    XYRouting,
    channel_dependency_graph,
    is_deadlock_free,
)
from .route_table import (
    RouteTable,
    clear_shared_route_tables,
    shared_route_table,
)
from .torus import Torus

__all__ = [
    "RouteTable",
    "shared_route_table",
    "clear_shared_route_tables",
    "Channel",
    "Topology",
    "DegradedTopology",
    "links",
    "normalize_link",
    "Mesh",
    "Mesh2D",
    "Torus",
    "Hypercube",
    "RoutingAlgorithm",
    "DimensionOrderRouting",
    "XYRouting",
    "ECubeRouting",
    "TorusDimensionOrderRouting",
    "UpDownRouting",
    "TableRouting",
    "FaultAwareRouting",
    "channel_dependency_graph",
    "is_deadlock_free",
]
