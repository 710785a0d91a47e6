"""Event-driven store-and-forward packet network simulator.

Early multi-hop networks (the paper's section 3 opening) buffer the whole
packet at every intermediate node: a packet transmission occupies one link
for ``C`` flit times, after which the complete packet sits in the next
node's buffer and competes for the next link. Contention is therefore a
per-link *queueing* problem, which is what makes the real-time-channel
analyses compositional — and what costs store-and-forward its latency:
``h * C`` unloaded versus wormhole's ``h + C - 1``.

Unlike the flit-level wormhole simulator (cycle-driven, because every busy
channel moves every cycle), store-and-forward state only changes at packet
boundaries, so this simulator is event-driven: a heap of (packet arrival,
link free) events, O(log n) per packet-hop.

Per-link scheduling policies (non-preemptive — a started transmission
always completes):

``"priority"``
    static priority by stream priority (ties: FIFO) — the policy matched
    by :func:`repro.rtchannel.schedulability.holistic_bounds`;
``"fifo"``
    arrival order;
``"edf"``
    earliest absolute deadline (release + stream deadline) first.

Buffers are unbounded (classical store-and-forward with ample node
memory); messages and statistics reuse the wormhole simulator's types so
results are directly comparable.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from ..core.streams import MessageStream, StreamSet
from ..errors import SimulationError
from ..sim.flit import Message
from ..sim.stats import StatsCollector
from ..topology.base import Channel, Topology
from ..topology.routing import RoutingAlgorithm

__all__ = ["StoreAndForwardSimulator", "SAF_SCHEDULERS"]

#: Supported per-link scheduling policies.
SAF_SCHEDULERS = ("priority", "fifo", "edf")


class _Link:
    """One directed link: a non-preemptive server with a waiting queue."""

    __slots__ = ("channel", "busy_until", "queue")

    def __init__(self, channel: Channel):
        self.channel = channel
        self.busy_until = 0
        #: Waiting packets as (msg, position, enqueue_time, seq).
        self.queue: List[Tuple[Message, int, int, int]] = []


class StoreAndForwardSimulator:
    """Store-and-forward packet simulation over a routed topology.

    Parameters mirror :class:`~repro.sim.network.WormholeSimulator` where
    applicable; ``scheduler`` picks the per-link policy.
    """

    def __init__(
        self,
        topology: Topology,
        routing: RoutingAlgorithm,
        streams: StreamSet,
        *,
        scheduler: str = "priority",
        warmup: int = 0,
    ):
        if scheduler not in SAF_SCHEDULERS:
            raise SimulationError(
                f"unknown scheduler {scheduler!r}; expected one of "
                f"{SAF_SCHEDULERS}"
            )
        if len(streams) == 0:
            raise SimulationError("cannot simulate an empty stream set")
        self.topology = topology
        self.routing = routing
        self.streams = streams
        self.scheduler = scheduler
        self.stats = StatsCollector(warmup=warmup)
        self.now = 0
        self._links: Dict[Channel, _Link] = {}
        self._events: List[Tuple[int, int, int, object]] = []
        self._seq = 0
        self._next_msg_id = 0
        self._in_flight = 0
        #: Per-message absolute deadline (EDF key).
        self._abs_deadline: Dict[int, int] = {}
        for s in streams:
            topology.validate_node(s.src)
            topology.validate_node(s.dst)

    # ------------------------------------------------------------------ #
    # Event plumbing
    # ------------------------------------------------------------------ #

    def _push(self, time: int, kind: int, payload: object) -> None:
        heapq.heappush(self._events, (time, self._seq, kind, payload))
        self._seq += 1

    def _link(self, channel: Channel) -> _Link:
        link = self._links.get(channel)
        if link is None:
            link = _Link(channel)
            self._links[channel] = link
        return link

    # ------------------------------------------------------------------ #
    # Model
    # ------------------------------------------------------------------ #

    def release_message(self, stream: MessageStream, time: int) -> Message:
        """Schedule one packet of ``stream`` at absolute ``time``."""
        path = self.routing.route(stream.src, stream.dst)
        msg = Message(
            msg_id=self._next_msg_id,
            stream_id=stream.stream_id,
            priority=stream.priority,
            src=stream.src,
            dst=stream.dst,
            length=stream.length,
            release=time,
            path=path,
        )
        self._next_msg_id += 1
        self._abs_deadline[msg.msg_id] = time + stream.deadline
        self._in_flight += 1
        # kind 0 = packet arrival at path position (payload: (msg, pos)).
        self._push(time, 0, (msg, 0))
        return msg

    def _queue_key(self, item: Tuple[Message, int, int, int]):
        msg, _pos, enq, seq = item
        if self.scheduler == "priority":
            return (-msg.priority, enq, seq)
        if self.scheduler == "edf":
            return (self._abs_deadline[msg.msg_id], enq, seq)
        return (enq, seq)

    def _arrive(self, msg: Message, position: int, time: int) -> None:
        node = msg.path[position]
        if node == msg.dst:
            msg.delivered = msg.length
            msg.finish = time
            self.stats.record(msg)
            self._abs_deadline.pop(msg.msg_id, None)
            self._in_flight -= 1
            return
        channel = (node, msg.path[position + 1])
        link = self._link(channel)
        link.queue.append((msg, position, time, self._seq))
        self._seq += 1
        # Defer the scheduling decision to a same-timestamp event so every
        # packet arriving at this instant is in the queue before the link
        # picks — otherwise arrival processing order would leak into the
        # arbitration.
        self._push(time, 1, channel)

    def _serve(self, link: _Link, time: int) -> None:
        if link.busy_until > time or not link.queue:
            return
        item = min(link.queue, key=self._queue_key)
        link.queue.remove(item)
        msg, position, _enq, _seq = item
        done = time + msg.length
        link.busy_until = done
        self._push(done, 0, (msg, position + 1))
        # kind 1 = link becomes free (payload: channel).
        self._push(done, 1, link.channel)

    def run(self, until: int) -> None:
        """Process events up to and including time ``until``."""
        if until < self.now:
            raise SimulationError(
                f"cannot run until {until}; clock is at {self.now}"
            )
        while self._events and self._events[0][0] <= until:
            time, _seq, kind, payload = heapq.heappop(self._events)
            self.now = time
            if kind == 0:
                msg, position = payload  # type: ignore[misc]
                self._arrive(msg, position, time)
            else:
                self._serve(self._link(payload), time)  # type: ignore[arg-type]
        self.now = max(self.now, until)

    def simulate_streams(
        self,
        until: int,
        *,
        phases: Optional[Dict[int, int]] = None,
        drain: bool = True,
        drain_limit: int = 1 << 20,
    ) -> StatsCollector:
        """Release periodic traffic below ``until`` and run (plus drain)."""
        phases = phases or {}
        for s in self.streams:
            t = phases.get(s.stream_id, 0)
            if t < 0:
                raise SimulationError(
                    f"stream {s.stream_id}: negative phase {t}"
                )
            while t < until:
                self.release_message(s, t)
                t += s.period
        self.run(until)
        if drain:
            deadline = until + drain_limit
            while self._in_flight and self._events \
                    and self._events[0][0] <= deadline:
                self.run(min(self._events[0][0], deadline))
        self.stats.unfinished = self._in_flight
        return self.stats
