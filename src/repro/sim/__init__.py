"""Cycle-accurate flit-level wormhole network simulation.

The paper's evaluation substrate, rebuilt from the text: per-priority
virtual channels, flit-level preemptive priority arbitration of physical
channels, deterministic routing, periodic real-time traffic and warm-up
aware latency statistics.
"""

from .arbiter import (
    ChannelArbiter,
    FCFSArbiter,
    PriorityPreemptiveArbiter,
    RoundRobinArbiter,
)
from .engine import SimulationKernel
from .flit import Message
from .gantt import GanttRecorder, render_gantt
from .network import VC_MODES, WormholeSimulator
from .router import INJECTION_PORT, Router, VirtualChannel
from .stats import DelayStats, StatsCollector
from .trace import MessageTrace, TraceRecorder, render_mesh_utilization
from .traffic import PaperWorkload, random_phases

__all__ = [
    "SimulationKernel",
    "Message",
    "VirtualChannel",
    "Router",
    "INJECTION_PORT",
    "ChannelArbiter",
    "PriorityPreemptiveArbiter",
    "FCFSArbiter",
    "RoundRobinArbiter",
    "WormholeSimulator",
    "VC_MODES",
    "DelayStats",
    "StatsCollector",
    "PaperWorkload",
    "random_phases",
    "MessageTrace",
    "TraceRecorder",
    "render_mesh_utilization",
    "GanttRecorder",
    "render_gantt",
]
