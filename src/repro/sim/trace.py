"""Simulation instrumentation: message traces and link utilization.

Two observability tools a user of the simulator reaches for when a bound
looks surprising:

* :class:`TraceRecorder` — per-message milestones (release, first flit into
  the network, finish) with derived queueing/network split. Attach one via
  ``WormholeSimulator(..., trace=TraceRecorder())``.
* :func:`render_mesh_utilization` — an ASCII heatmap of per-channel
  utilization on a 2-D mesh, computed from the simulator's
  ``channel_transfers`` counters. Hot links show where streams contend,
  which is exactly the direct-blocking structure the HP sets encode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import SimulationError
from ..topology.base import Channel
from ..topology.mesh import Mesh2D
from .flit import Message

__all__ = ["MessageTrace", "TraceRecorder", "render_mesh_utilization"]


@dataclass
class MessageTrace:
    """Milestones of one message's lifetime (flit times)."""

    msg_id: int
    stream_id: int
    priority: int
    release: int
    #: Time the header flit first crossed the source's output channel
    #: (None while still queued).
    first_flit: Optional[int] = None
    #: Time the tail flit was absorbed at the destination.
    finish: Optional[int] = None

    @property
    def queueing_delay(self) -> Optional[int]:
        """Flit times spent at the source before transmission began."""
        if self.first_flit is None:
            return None
        return self.first_flit - 1 - self.release

    @property
    def total_delay(self) -> Optional[int]:
        """The paper's transmission delay (release to tail absorption)."""
        if self.finish is None:
            return None
        return self.finish - self.release


class TraceRecorder:
    """Collects :class:`MessageTrace` records during a simulation run."""

    def __init__(self) -> None:
        self._traces: Dict[int, MessageTrace] = {}

    # Hooks called by the simulator ------------------------------------- #

    def on_release(self, time: int, msg: Message) -> None:
        self._traces[msg.msg_id] = MessageTrace(
            msg_id=msg.msg_id,
            stream_id=msg.stream_id,
            priority=msg.priority,
            release=time,
        )

    def on_first_flit(self, time: int, msg: Message) -> None:
        trace = self._traces.get(msg.msg_id)
        if trace is not None and trace.first_flit is None:
            trace.first_flit = time

    def on_finish(self, time: int, msg: Message) -> None:
        trace = self._traces.get(msg.msg_id)
        if trace is not None:
            trace.finish = time

    # Queries ------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._traces)

    def trace(self, msg_id: int) -> MessageTrace:
        try:
            return self._traces[msg_id]
        except KeyError:
            raise SimulationError(f"no trace for message {msg_id}") from None

    def stream_traces(self, stream_id: int) -> List[MessageTrace]:
        """All traces of one stream, in release order."""
        return sorted(
            (t for t in self._traces.values() if t.stream_id == stream_id),
            key=lambda t: t.release,
        )

    def queueing_share(self, stream_id: int) -> float:
        """Fraction of a stream's total delay spent queueing at the source.

        High shares indicate self-interference (period shorter than
        service) rather than network contention.
        """
        traces = [
            t for t in self.stream_traces(stream_id) if t.finish is not None
        ]
        if not traces:
            raise SimulationError(
                f"stream {stream_id} has no finished traces"
            )
        total = sum(t.total_delay for t in traces)
        queued = sum(t.queueing_delay for t in traces)
        return queued / total if total else 0.0


def render_mesh_utilization(
    mesh: Mesh2D,
    transfers: Mapping[Channel, int],
    elapsed: int,
    *,
    digits: int = 10,
) -> str:
    """Render per-channel utilization of a 2-D mesh as an ASCII heatmap.

    Each node is drawn as ``+``; the character between two nodes is the
    utilization of the *busier direction* of that physical link, bucketed
    into ``0..9`` tenths (``.`` for an unused link). Horizontal links
    appear on node rows, vertical links on the rows between.
    """
    if elapsed <= 0:
        raise SimulationError(f"elapsed must be positive, got {elapsed}")

    def bucket(u: int, v: int) -> str:
        usage = max(transfers.get((u, v), 0), transfers.get((v, u), 0))
        if usage == 0:
            return "."
        frac = min(usage / elapsed, 0.999)
        return str(int(frac * digits))

    lines = [f"link utilization over {elapsed} flit times "
             f"(0-9 = tenths of capacity, . = unused)"]
    for y in range(mesh.height - 1, -1, -1):
        row = []
        for x in range(mesh.width):
            row.append("+")
            if x < mesh.width - 1:
                row.append(bucket(mesh.node_xy(x, y), mesh.node_xy(x + 1, y)))
        lines.append("".join(row))
        if y > 0:
            vrow = []
            for x in range(mesh.width):
                vrow.append(bucket(mesh.node_xy(x, y), mesh.node_xy(x, y - 1)))
                if x < mesh.width - 1:
                    vrow.append(" ")
            lines.append("".join(vrow))
    return "\n".join(lines)
