"""repro — reproduction of Kim, Kim, Hong & Lee, *A Real-Time Communication
Method for Wormhole Switching Networks* (ICPP 1998).

The package provides:

* :mod:`repro.topology` — meshes, tori, hypercubes and deterministic
  deadlock-free routing (X-Y, dimension-order, e-cube);
* :mod:`repro.core` — the paper's contribution: HP sets, blocking dependency
  graphs, worst-case timing diagrams, the ``Cal_U`` / ``Determine-Feasibility``
  delay-upper-bound analysis;
* :mod:`repro.sim` — a cycle-accurate flit-level wormhole simulator with
  per-priority virtual channels and preemptive priority arbitration (the
  paper's priority-handling substrate), plus the paper's periodic workload
  generator;
* :mod:`repro.baselines` — classical non-preemptive wormhole arbitration
  (priority-inversion demonstration) and a rate-monotonic utilization test;
* :mod:`repro.analysis` — the evaluation harness regenerating the paper's
  Tables 1-5 and figures.

Quickstart::

    from repro import Mesh2D, XYRouting, MessageStream, StreamSet
    from repro import FeasibilityAnalyzer

    mesh = Mesh2D(10, 10)
    routing = XYRouting(mesh)
    streams = StreamSet([
        MessageStream(0, mesh.node_xy(7, 3), mesh.node_xy(7, 7),
                      priority=5, period=150, length=4, deadline=150),
        MessageStream(1, mesh.node_xy(1, 1), mesh.node_xy(5, 4),
                      priority=4, period=100, length=2, deadline=100),
    ])
    report = FeasibilityAnalyzer(streams, routing).determine_feasibility()
    print(report.success, report.upper_bounds())
"""

from ._lazy import lazy_exports
from ._version import __version__
from .core import (
    BlockingMode,
    BoundBackend,
    CellState,
    FeasibilityAnalyzer,
    FeasibilityReport,
    HPEntry,
    HPSet,
    MessageStream,
    NoLoadLatency,
    PipelinedLatency,
    StreamSet,
    StreamVerdict,
    TimingDiagram,
    backend_names,
    build_all_hp_sets,
    default_backend_name,
    get_backend,
    generate_init_diagram,
    modify_diagram,
)
from .errors import (
    AnalysisError,
    DeadlockError,
    ReproError,
    RoutingError,
    SimulationError,
    StreamError,
    TopologyError,
)
from .topology import (
    DimensionOrderRouting,
    ECubeRouting,
    Hypercube,
    Mesh,
    Mesh2D,
    RoutingAlgorithm,
    Topology,
    Torus,
    TorusDimensionOrderRouting,
    XYRouting,
    is_deadlock_free,
)

__all__ = [
    "__version__",
    # topology
    "Topology",
    "Mesh",
    "Mesh2D",
    "Torus",
    "Hypercube",
    "RoutingAlgorithm",
    "DimensionOrderRouting",
    "XYRouting",
    "ECubeRouting",
    "TorusDimensionOrderRouting",
    "is_deadlock_free",
    # core
    "MessageStream",
    "StreamSet",
    "NoLoadLatency",
    "PipelinedLatency",
    "BlockingMode",
    "HPEntry",
    "HPSet",
    "CellState",
    "TimingDiagram",
    "generate_init_diagram",
    "modify_diagram",
    "build_all_hp_sets",
    "FeasibilityAnalyzer",
    "FeasibilityReport",
    "StreamVerdict",
    "BoundBackend",
    "get_backend",
    "backend_names",
    "default_backend_name",
    "render_diagram",
    "render_hp_set",
    "render_bdg",
    # errors
    "ReproError",
    "TopologyError",
    "RoutingError",
    "StreamError",
    "AnalysisError",
    "SimulationError",
    "DeadlockError",
]

__getattr__ = lazy_exports(__name__, {
    name: (".core.render", name)
    for name in ("render_diagram", "render_hp_set", "render_bdg")
})
