"""Network-latency models.

The paper defines network latency as "the time taken to deliver a message
when no other traffic is present". For wormhole switching with one flit
forwarded per channel per flit time, a ``C``-flit message over ``h`` hops
pipelines as

    L = h + C - 1

(the header needs ``h`` flit times to reach the destination; the remaining
``C - 1`` flits drain one per flit time). This is exactly the model behind
the worked example of section 4.4: all five printed ``L_i`` values equal
``hops + C - 1`` under X-Y routing, which is how we recovered the OCR-garbled
constants (see DESIGN.md).

Real routers add a per-hop routing/switching delay; :class:`PipelinedLatency`
generalises to ``L = r * h + C - 1`` with ``r`` flit times per hop
(``r = 1`` reproduces the paper).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..errors import StreamError
from .streams import MessageStream

__all__ = ["LatencyModel", "PipelinedLatency", "NoLoadLatency"]


class LatencyModel(ABC):
    """Maps a stream and its hop count to a no-load network latency."""

    @abstractmethod
    def latency(self, stream: MessageStream, hops: int) -> int:
        """Return ``L_i`` for ``stream`` whose route spans ``hops`` channels."""


class PipelinedLatency(LatencyModel):
    """Wormhole pipeline latency ``L = header_hop_delay * hops + C - 1``.

    Parameters
    ----------
    header_hop_delay:
        Flit times the header spends per hop (route computation + switch +
        link traversal). The paper's unit-delay model uses ``1``.
    """

    def __init__(self, header_hop_delay: int = 1):
        if header_hop_delay < 1:
            raise StreamError(
                f"header_hop_delay must be >= 1, got {header_hop_delay}"
            )
        self.header_hop_delay = int(header_hop_delay)

    def latency(self, stream: MessageStream, hops: int) -> int:
        if hops < 1:
            raise StreamError(
                f"stream {stream.stream_id}: route must span >= 1 hop, got {hops}"
            )
        return self.header_hop_delay * hops + stream.length - 1


class NoLoadLatency(PipelinedLatency):
    """The paper's latency model: ``L = hops + C - 1`` (unit hop delay)."""

    def __init__(self) -> None:
        super().__init__(header_hop_delay=1)
