"""The paper's primary contribution: message-stream feasibility analysis.

Submodules follow the structure of the paper's section 4: stream model
(:mod:`.streams`, :mod:`.latency`), HP sets (:mod:`.hpset`), blocking
dependency graphs (:mod:`.bdg`), timing diagrams (:mod:`.timing_diagram`,
:mod:`.modify`), the feasibility test itself (:mod:`.feasibility`) and
figure rendering (:mod:`.render`). The host processor's admission control
is :class:`repro.service.engine.IncrementalAdmissionEngine`.
"""

from .backends import (
    BoundBackend,
    default_name as default_backend_name,
    get as get_backend,
    names as backend_names,
    register as register_backend,
)
from .assignment import (
    audsley_assignment,
    deadline_monotonic_assignment,
    group_into_levels,
    rate_monotonic_assignment,
)
from .bdg import bfs_layers, build_bdg, indirect_processing_order
from .busy_window import BusyWindowResult, busy_window_bound, busy_window_bounds
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
from .render import render_bdg, render_diagram, render_hp_set
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
