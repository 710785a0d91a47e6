"""Router state: virtual channels with message-granularity ownership.

Each router has one input *port* per incoming physical channel plus an
injection port for locally sourced traffic; each port carries ``num_vcs``
virtual channels. A VC buffers flits of **one message at a time**: the
header flit allocates the VC and the VC is released when the tail flit has
passed through. This ownership rule is what keeps wormhole flits of
different messages from interleaving on a channel — a message that loses
arbitration simply keeps its VCs and waits, while higher-priority traffic
flows through *other* VCs of the same physical channel (the paper's
preemption mechanism).

VC modes (selected by :class:`~repro.sim.network.WormholeSimulator`):

``per_priority``
    one VC per priority level per port; a message may only use the VC of
    its own priority (the paper's section 3 emulation of flit-level
    preemption);
``single``
    classical wormhole switching: one VC per port, so a physical channel is
    monopolised until the tail passes — exhibits the priority inversion of
    Fig. 2;
``li``
    Li & Mutka's scheme: a message of priority ``p`` may acquire any free VC
    with index ``<= p-1`` (it *requests downward*), raising the chance that
    a high-priority message finds a free VC.

Buffer capacity is per VC in flits. Injection VCs are unbounded (the source
node holds the whole message in local memory) and additionally FIFO-queue
whole messages awaiting their turn.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..errors import SimulationError
from .flit import Message

__all__ = ["VirtualChannel", "Router", "INJECTION_PORT"]

#: Port id of the local injection port (real ports use the upstream node id).
INJECTION_PORT = -1


class VirtualChannel:
    """One virtual channel: a small flit FIFO owned by at most one message."""

    __slots__ = (
        "node",
        "port",
        "index",
        "capacity",
        "is_injection",
        "owner",
        "count",
        "received",
        "sent",
        "position",
        "queue",
        "ready",
    )

    def __init__(self, node: int, port: int, index: int, capacity: Optional[int]):
        self.node = node
        self.port = port
        self.index = index
        #: Plain attribute (not a property): read on every hot-loop pass.
        self.is_injection = port == INJECTION_PORT
        #: Max buffered flits; ``None`` = unbounded (injection VCs).
        self.capacity = capacity
        self.owner: Optional[Message] = None
        #: Flits currently buffered.
        self.count = 0
        #: Owner flits that have entered this VC so far.
        self.received = 0
        #: Owner flits that have left this VC so far.
        self.sent = 0
        #: Index of ``node`` in the owner's path (route progress here).
        self.position = 0
        #: Waiting messages (injection VCs only).
        self.queue: Deque[Message] = deque()
        #: Earliest cycle each buffered flit may be forwarded (FIFO order;
        #: models router pipeline depth — empty when hop_delay is 1).
        self.ready: Deque[int] = deque()

    # ------------------------------------------------------------------ #

    @property
    def free(self) -> bool:
        """``True`` when a new header may allocate this VC."""
        return self.owner is None

    def has_space(self) -> bool:
        """``True`` when one more flit fits (pre-cycle occupancy check)."""
        return self.capacity is None or self.count < self.capacity

    # ------------------------------------------------------------------ #
    # State transitions (called by the simulator's commit phase)
    # ------------------------------------------------------------------ #

    def allocate(self, msg: Message, position: int) -> None:
        """Give the VC to ``msg`` whose path index here is ``position``."""
        if self.owner is not None:
            raise SimulationError(
                f"VC {self!r} is owned by message {self.owner.msg_id}; "
                f"cannot allocate to {msg.msg_id}"
            )
        self.owner = msg
        self.position = position
        self.count = 0
        self.received = 0
        self.sent = 0
        self.ready.clear()

    def push_flit(self, ready_at: Optional[int] = None) -> None:
        """Buffer one incoming flit of the owner.

        ``ready_at`` (router pipeline modelling) is the earliest cycle the
        flit may be forwarded; omit it for the unit-delay model.
        """
        if self.owner is None:
            raise SimulationError(f"flit pushed into unowned VC {self!r}")
        if not self.has_space():
            raise SimulationError(f"flit pushed into full VC {self!r}")
        self.count += 1
        self.received += 1
        if ready_at is not None:
            self.ready.append(ready_at)
        if self.received > self.owner.length:
            raise SimulationError(
                f"VC {self!r} received more flits than message "
                f"{self.owner.msg_id} has"
            )

    def head_ready(self, now: int) -> bool:
        """May the oldest buffered flit be forwarded in cycle ``now``?"""
        return not self.ready or self.ready[0] <= now

    def pop_flit(self) -> Message:
        """Send one buffered flit downstream; release the VC after the tail.

        Returns the owner whose flit was sent. For injection VCs, the next
        queued message is promoted immediately after release.
        """
        msg = self.owner
        if msg is None or self.count <= 0:
            raise SimulationError(f"flit popped from empty VC {self!r}")
        self.count -= 1
        self.sent += 1
        if self.ready:
            self.ready.popleft()
        if self.sent == msg.length:
            self.owner = None
            self.count = 0
            self.received = 0
            self.sent = 0
            self.ready.clear()
            if self.queue:
                self._promote()
        return msg

    def force_release(self) -> None:
        """Discard the owner and all buffered flits (preemption kill).

        Used by the ``preempt_kill`` switching mode: the victim worm's
        flits are dropped and the VC freed immediately. Unlike
        :meth:`pop_flit`'s natural release, queued injection messages are
        *not* auto-promoted — the caller decides what happens next.
        """
        self.owner = None
        self.count = 0
        self.received = 0
        self.sent = 0
        self.ready.clear()

    def promote_queued(self) -> Optional[Message]:
        """Promote the next queued injection message, if any."""
        if not self.is_injection:
            raise SimulationError(
                f"cannot promote on network VC {self!r}"
            )
        if self.owner is None and self.queue:
            self._promote()
            return self.owner
        return None

    # ------------------------------------------------------------------ #
    # Injection queue
    # ------------------------------------------------------------------ #

    def enqueue_message(self, msg: Message) -> None:
        """Queue a freshly released message at this injection VC."""
        if not self.is_injection:
            raise SimulationError(
                f"cannot enqueue a message at network VC {self!r}"
            )
        self.queue.append(msg)
        if self.owner is None:
            self._promote()

    def _promote(self) -> None:
        msg = self.queue.popleft()
        self.allocate(msg, position=0)
        # The whole message is available in source memory at once.
        self.count = msg.length
        self.received = msg.length

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        own = self.owner.msg_id if self.owner else None
        return (
            f"VC(node={self.node}, port={self.port}, idx={self.index}, "
            f"owner={own}, count={self.count})"
        )


class Router:
    """Per-node container of input ports and their virtual channels."""

    __slots__ = ("node", "num_vcs", "ports")

    def __init__(
        self,
        node: int,
        upstream_nodes: Tuple[int, ...],
        num_vcs: int,
        vc_capacity: int,
    ):
        if num_vcs < 1:
            raise SimulationError(f"num_vcs must be >= 1, got {num_vcs}")
        if vc_capacity < 1:
            raise SimulationError(
                f"vc_capacity must be >= 1, got {vc_capacity}"
            )
        self.node = node
        self.num_vcs = num_vcs
        self.ports: Dict[int, List[VirtualChannel]] = {}
        for up in upstream_nodes:
            self.ports[up] = [
                VirtualChannel(node, up, i, vc_capacity)
                for i in range(num_vcs)
            ]
        self.ports[INJECTION_PORT] = [
            VirtualChannel(node, INJECTION_PORT, i, None)
            for i in range(num_vcs)
        ]

    def vc(self, port: int, index: int) -> VirtualChannel:
        """Return the VC at ``(port, index)``."""
        try:
            return self.ports[port][index]
        except (KeyError, IndexError):
            raise SimulationError(
                f"router {self.node} has no VC (port={port}, index={index})"
            ) from None

    def free_vc_indices(self, port: int, max_index: int) -> List[int]:
        """Return free VC indices ``<= max_index`` on ``port``, descending.

        Used by the Li-style VC-allocation rule (request any VC numbered at
        or below the message priority, preferring the highest).
        """
        vcs = self.ports.get(port)
        if vcs is None:
            raise SimulationError(
                f"router {self.node} has no port {port}"
            )
        return [
            i for i in range(min(max_index, self.num_vcs - 1), -1, -1)
            if vcs[i].free
        ]
