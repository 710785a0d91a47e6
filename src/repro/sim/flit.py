"""Messages and their flit-level bookkeeping.

Wormhole switching divides a message into flits; only the header carries
routing state and the rest follow in pipeline. The simulator does not
allocate one Python object per flit — flits of a message are
indistinguishable except for head/tail roles, so each
:class:`~repro.sim.router.VirtualChannel` keeps *counts* of buffered flits
and each :class:`Message` keeps progress counters. This is behaviourally
identical to per-flit objects for the paper's single-flit-time channel model
and orders of magnitude faster in Python (see the HPC guide note in
DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..errors import SimulationError

__all__ = ["Message"]


@dataclass
class Message:
    """One in-flight message instance of a stream.

    Lifetime: created at ``release`` by the periodic source; queued at the
    source node's injection virtual channel; its flits then cross the
    ``path`` channels one per flit time subject to arbitration; finished
    when the tail flit is absorbed at the destination. ``delay()`` is the
    paper's *message transmission delay* — tail absorption minus release,
    which includes source queueing.
    """

    msg_id: int
    stream_id: int
    priority: int
    src: int
    dst: int
    length: int
    release: int
    #: Node path computed at creation (deterministic routing).
    path: Tuple[int, ...]
    #: Per-hop VC class (dateline schemes); empty = all class 0.
    classes: Tuple[int, ...] = ()
    #: Flits absorbed at the destination so far.
    delivered: int = 0
    #: Simulation time the tail flit was absorbed (None while in flight).
    finish: Optional[int] = None
    #: Fast-path cache, filled at injection by the simulator: one
    #: ``(channel id, downstream target)`` pair per path position, where
    #: the id indexes the simulator's channel table and the target is the
    #: VC the hop feeds (or the port's VC pool under ``vc_mode="li"``, or
    #: ``None`` for the final absorbing hop). Derived from
    #: ``path``/``priority``/``classes``, shared by all messages of a
    #: stream, and carries no independent state.
    hop_cache: Optional[Tuple[Tuple[int, object], ...]] = field(
        default=None, repr=False, compare=False
    )
    #: Fast-path cache: the simulator's per-position VC chain for this
    #: message (also indexed by ``msg_id`` in the simulator; kept here to
    #: spare a dict lookup per transfer).
    chain: Optional[list] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise SimulationError(
                f"message {self.msg_id}: length must be positive"
            )
        if len(self.path) < 2 or self.path[0] != self.src or self.path[-1] != self.dst:
            raise SimulationError(
                f"message {self.msg_id}: path {self.path} does not join "
                f"{self.src} -> {self.dst}"
            )
        if self.classes and len(self.classes) != len(self.path) - 1:
            raise SimulationError(
                f"message {self.msg_id}: {len(self.classes)} VC classes for "
                f"{len(self.path) - 1} hops"
            )

    def vc_class(self, position: int) -> int:
        """Return the VC class of the channel leaving ``path[position]``."""
        if not self.classes:
            return 0
        return self.classes[position]

    @property
    def hops(self) -> int:
        """Number of physical channels on the route."""
        return len(self.path) - 1

    @property
    def done(self) -> bool:
        """``True`` once the tail flit has been absorbed."""
        return self.finish is not None

    def delay(self) -> int:
        """Return the measured transmission delay (requires completion)."""
        if self.finish is None:
            raise SimulationError(
                f"message {self.msg_id} has not finished"
            )
        return self.finish - self.release

    def no_load_latency(self) -> int:
        """The paper's network latency ``L = hops + C - 1`` for this message."""
        return self.hops + self.length - 1
