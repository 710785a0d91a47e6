"""The paper's primary contribution: message-stream feasibility analysis.

Submodules follow the structure of the paper's section 4: stream model
(:mod:`.streams`, :mod:`.latency`), HP sets (:mod:`.hpset`), blocking
dependency graphs (:mod:`.bdg`), timing diagrams (:mod:`.timing_diagram`,
:mod:`.modify`), the feasibility test itself (:mod:`.feasibility`) and
figure rendering (:mod:`.render`). The host processor's admission control
is :class:`repro.service.engine.IncrementalAdmissionEngine`.

Rendering, priority assignment and the busy-window bound are offline
tools: their names resolve on first use (:mod:`repro._lazy`), so a
served interpreter never imports them.
"""

from .._lazy import lazy_exports

from .backends import (
    BoundBackend,
    default_name as default_backend_name,
    get as get_backend,
    names as backend_names,
    register as register_backend,
)
from .bdg import bfs_layers, build_bdg, indirect_processing_order
from .feasibility import FeasibilityAnalyzer, FeasibilityReport, StreamVerdict
from .hpset import (
    BlockingIndex,
    BlockingMode,
    HPEntry,
    HPSet,
    build_all_hp_sets,
    stream_channels,
)
from .latency import LatencyModel, NoLoadLatency, PipelinedLatency
from .modify import modify_diagram, releasable_instances
from .streams import MessageStream, StreamSet
from .timing_diagram import (
    CellState,
    InstanceAllocation,
    TimingDiagram,
    generate_init_diagram,
)

__all__ = [
    "MessageStream",
    "StreamSet",
    "LatencyModel",
    "NoLoadLatency",
    "PipelinedLatency",
    "BlockingIndex",
    "BlockingMode",
    "HPEntry",
    "HPSet",
    "stream_channels",
    "build_all_hp_sets",
    "build_bdg",
    "bfs_layers",
    "indirect_processing_order",
    "CellState",
    "InstanceAllocation",
    "TimingDiagram",
    "generate_init_diagram",
    "modify_diagram",
    "releasable_instances",
    "FeasibilityAnalyzer",
    "FeasibilityReport",
    "StreamVerdict",
    "BoundBackend",
    "get_backend",
    "backend_names",
    "register_backend",
    "default_backend_name",
    "BusyWindowResult",
    "busy_window_bound",
    "busy_window_bounds",
    "render_diagram",
    "render_hp_set",
    "render_bdg",
    "rate_monotonic_assignment",
    "deadline_monotonic_assignment",
    "audsley_assignment",
    "group_into_levels",
]

__getattr__ = lazy_exports(__name__, {
    "BusyWindowResult": (".busy_window", "BusyWindowResult"),
    "busy_window_bound": (".busy_window", "busy_window_bound"),
    "busy_window_bounds": (".busy_window", "busy_window_bounds"),
    "render_diagram": (".render", "render_diagram"),
    "render_hp_set": (".render", "render_hp_set"),
    "render_bdg": (".render", "render_bdg"),
    "rate_monotonic_assignment": (".assignment", "rate_monotonic_assignment"),
    "deadline_monotonic_assignment": (
        ".assignment", "deadline_monotonic_assignment"
    ),
    "audsley_assignment": (".assignment", "audsley_assignment"),
    "group_into_levels": (".assignment", "group_into_levels"),
})
