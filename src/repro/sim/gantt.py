"""Measured channel-occupancy Gantt charts.

The analysis predicts worst-case channel occupancy with a timing diagram;
the :class:`GanttRecorder` captures the *measured* counterpart — which
stream's flit crossed which channel at every flit time of a recording
window — and :func:`render_gantt` draws it in the same visual language as
:func:`repro.core.render.render_diagram`, one row per channel:

    (1,0)->(2,0)  000000111..000...
    (2,0)->(3,0)  .000000111..000..

Putting the measured chart next to the analytical diagram of a stream's
route is the most direct way to see the worst-case assumptions at work
(critical-instant alignment, preemption slots, compaction); the
``examples/measured_vs_predicted.py`` script does exactly that for the
paper's section 4.4 example.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..topology.base import Channel
from ..topology.mesh import Mesh2D
from .flit import Message

__all__ = ["GanttRecorder", "render_gantt"]

#: Symbols for stream ids 0..61 (digits, lower, upper); '*' beyond.
_SYMBOLS = (
    "0123456789abcdefghijklmnopqrstuvwxyz"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
)


class GanttRecorder:
    """Records (cycle, channel) -> stream id over a bounded window.

    Attach via ``WormholeSimulator(..., gantt=GanttRecorder(start, end))``.
    Recording is windowed so memory stays proportional to the window, not
    the run; one entry per committed flit transfer inside the window.
    """

    def __init__(self, start: int = 0, end: int = 1 << 30,
                 channels: Optional[Iterable[Channel]] = None):
        if end < start:
            raise SimulationError(
                f"gantt window end {end} before start {start}"
            )
        self.start = start
        self.end = end
        #: Restrict recording to these channels (None = all).
        self.channels = frozenset(channels) if channels is not None else None
        #: channel -> {cycle -> stream_id}
        self.cells: Dict[Channel, Dict[int, int]] = {}

    def on_transfer(self, now: int, channel: Channel, msg: Message) -> None:
        """Hook called by the simulator for every committed transfer."""
        if not self.start <= now <= self.end:
            return
        if self.channels is not None and channel not in self.channels:
            return
        self.cells.setdefault(channel, {})[now] = msg.stream_id

    def recorded_channels(self) -> Tuple[Channel, ...]:
        """Channels that carried at least one flit inside the window."""
        return tuple(sorted(self.cells))



def _channel_label(channel: Channel, topology=None) -> str:
    if isinstance(topology, Mesh2D):
        (ux, uy), (vx, vy) = topology.xy(channel[0]), topology.xy(channel[1])
        return f"({ux},{uy})->({vx},{vy})"
    return f"{channel[0]}->{channel[1]}"


def render_gantt(
    recorder: GanttRecorder,
    *,
    channels: Optional[Sequence[Channel]] = None,
    lo: Optional[int] = None,
    hi: Optional[int] = None,
    topology=None,
    major: int = 10,
) -> str:
    """Render the recorded occupancy as monospace text.

    One row per channel; each cell is the symbol of the stream whose flit
    crossed in that cycle (``.`` = idle). ``channels`` defaults to every
    recorded channel, ``[lo, hi]`` to the recorded extent.
    """
    chans = list(channels) if channels is not None \
        else list(recorder.recorded_channels())
    if not chans:
        return "(no transfers recorded)"
    all_times = [
        t for ch in chans for t in recorder.cells.get(ch, {})
    ]
    if not all_times:
        return "(no transfers recorded on the selected channels)"
    lo = lo if lo is not None else min(all_times)
    hi = hi if hi is not None else max(all_times)
    labels = [_channel_label(ch, topology) for ch in chans]
    width = max(len(l) for l in labels) + 2

    ruler = []
    for t in range(lo, hi + 1):
        if t % major == 0:
            ruler.append(str(t)[-1])
        elif t % 5 == 0:
            ruler.append("+")
        else:
            ruler.append("-")
    lines = [
        f"measured channel occupancy, cycles {lo}..{hi} "
        f"(symbol = stream id, . = idle)",
        " " * width + "".join(ruler),
    ]
    for ch, label in zip(chans, labels):
        cells = recorder.cells.get(ch, {})
        row = []
        for t in range(lo, hi + 1):
            sid = cells.get(t)
            if sid is None:
                row.append(".")
            elif sid < len(_SYMBOLS):
                row.append(_SYMBOLS[sid])
            else:
                row.append("*")
        lines.append(label.ljust(width) + "".join(row))
    return "\n".join(lines)
