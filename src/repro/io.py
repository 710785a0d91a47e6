"""JSON serialisation of problems (topology + streams) and results.

A *problem file* describes a network and a stream set::

    {
      "topology": {"type": "mesh", "width": 10, "height": 10},
      "streams": [
        {"id": 0, "src": [7, 3], "dst": [7, 7],
         "priority": 5, "period": 150, "length": 4, "deadline": 150}
      ]
    }

Topology types: ``mesh`` (width/height), ``torus`` (dims), ``hypercube``
(dimension). Node references may be coordinate lists (meshes/tori:
``[x, y, ...]``) or plain integer node ids. The legacy key ``mesh`` is
accepted as an alias for a mesh topology (the original CLI format).

Used by ``python -m repro check`` and by user scripts that want to keep
workloads under version control next to their measured results.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from .core.feasibility import FeasibilityReport
from .core.streams import MessageStream, StreamSet
from .errors import ReproError
from .topology import (
    ECubeRouting,
    Hypercube,
    Mesh2D,
    RoutingAlgorithm,
    Topology,
    Torus,
    TorusDimensionOrderRouting,
    UpDownRouting,
    XYRouting,
)

__all__ = [
    "topology_from_spec",
    "load_problem",
    "stream_from_spec",
    "stream_to_spec",
    "streams_to_spec",
    "report_to_spec",
]


def topology_from_spec(
    spec: Dict[str, Any]
) -> Tuple[Topology, RoutingAlgorithm]:
    """Build a topology and its routing function from a JSON spec.

    The routing defaults to the topology's canonical algorithm (X-Y on
    meshes, dateline dimension-order on tori, e-cube on hypercubes). A
    ``"routing"`` key in the spec — or, when the spec names none, the
    ``REPRO_ROUTING`` environment variable — overrides it:
    ``"default"`` keeps the canonical algorithm, ``"updown"`` selects
    BFS-rooted up*/down* routing (deadlock-free on every topology,
    including irregular ones, at the cost of longer routes). Specs that
    pin ``"routing"`` explicitly are immune to the environment override,
    which is how tests asserting exact canonical-routing bounds stay
    stable under a suite-wide ``REPRO_ROUTING=updown`` run.
    """
    kind = spec.get("type", "mesh")
    if kind == "mesh":
        topology: Topology = Mesh2D(
            int(spec.get("width", 10)),
            int(spec.get("height", spec.get("width", 10))))
        routing: RoutingAlgorithm = XYRouting(topology)
    elif kind == "torus":
        dims = spec.get("dims")
        if not dims:
            raise ReproError("torus spec needs 'dims'")
        topology = Torus(tuple(int(d) for d in dims))
        routing = TorusDimensionOrderRouting(topology)
    elif kind == "hypercube":
        topology = Hypercube(int(spec.get("dimension", 4)))
        routing = ECubeRouting(topology)
    else:
        raise ReproError(f"unknown topology type {kind!r}")
    choice = spec.get("routing")
    if choice is None:
        choice = os.environ.get("REPRO_ROUTING") or "default"
    if choice == "updown":
        routing = UpDownRouting(topology)
    elif choice != "default":
        raise ReproError(
            f"unknown routing {choice!r} (known: default, updown)"
        )
    return topology, routing


def _node(topology: Topology, ref: Union[int, list]) -> int:
    if isinstance(ref, list):
        return topology.node_at(ref)
    return topology.validate_node(int(ref))


def stream_from_spec(
    topology: Topology,
    entry: Dict[str, Any],
    *,
    stream_id: Optional[int] = None,
) -> MessageStream:
    """Build one :class:`MessageStream` from a problem-file stream entry.

    ``src``/``dst`` may be coordinate lists (``[x, y, ...]``) or plain
    integer node ids. ``stream_id`` overrides the entry's ``id`` key (the
    broker service uses this to assign server-side ids); exactly one of
    the two must be present.
    """
    if stream_id is None:
        if "id" not in entry:
            raise ReproError("stream entry needs an 'id' key")
        stream_id = int(entry["id"])
    missing = [k for k in ("src", "dst", "priority", "period", "length",
                           "deadline") if k not in entry]
    if missing:
        raise ReproError(f"stream entry misses key(s) {missing}")
    return MessageStream(
        stream_id=stream_id,
        src=_node(topology, entry["src"]),
        dst=_node(topology, entry["dst"]),
        priority=int(entry["priority"]),
        period=int(entry["period"]),
        length=int(entry["length"]),
        deadline=int(entry["deadline"]),
        latency=(int(entry["latency"])
                 if entry.get("latency") is not None else None),
    )


def stream_to_spec(stream: MessageStream) -> Dict[str, Any]:
    """Serialise one stream to the problem-file entry form."""
    entry = {
        "id": stream.stream_id,
        "src": stream.src,
        "dst": stream.dst,
        "priority": stream.priority,
        "period": stream.period,
        "length": stream.length,
        "deadline": stream.deadline,
    }
    if stream.latency is not None:
        entry["latency"] = stream.latency
    return entry


def load_problem(
    path: Union[str, Path]
) -> Tuple[Topology, RoutingAlgorithm, StreamSet]:
    """Load a problem file: (topology, routing, streams)."""
    with open(path) as f:
        spec = json.load(f)
    topo_spec = spec.get("topology") or spec.get("mesh")
    if topo_spec is None:
        raise ReproError("problem file needs a 'topology' (or 'mesh') key")
    if "type" not in topo_spec and "width" in topo_spec:
        topo_spec = {"type": "mesh", **topo_spec}
    topology, routing = topology_from_spec(topo_spec)
    if "streams" not in spec:
        raise ReproError("problem file needs a 'streams' list")
    streams = StreamSet()
    for entry in spec["streams"]:
        streams.add(stream_from_spec(topology, entry))
    return topology, routing, streams


def streams_to_spec(streams: StreamSet) -> list:
    """Serialise a stream set to the problem-file stream list."""
    return [stream_to_spec(s) for s in streams]


def report_to_spec(report: FeasibilityReport) -> Dict[str, Any]:
    """Serialise a feasibility report (bounds, verdicts, success)."""
    return {
        "success": report.success,
        "streams": {
            str(sid): {
                "upper_bound": v.upper_bound,
                "deadline": v.stream.deadline,
                "feasible": v.feasible,
                "slack": v.slack,
                "analysis": v.backend,
            }
            for sid, v in sorted(report.verdicts.items())
        },
    }
