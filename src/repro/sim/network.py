"""The cycle-accurate flit-level wormhole network simulator.

This is the evaluation substrate the paper used but did not publish: a
network of routers (one per topology node) exchanging one flit per busy
channel per flit time, with per-priority virtual channels and a pluggable
physical-channel arbiter. The paper's priority-handling method corresponds
to ``vc_mode="per_priority"`` + :class:`~repro.sim.arbiter.PriorityPreemptiveArbiter`
(the default); classical wormhole switching is ``vc_mode="single"``.

Model rules (one *cycle* = one flit time; see DESIGN.md section 5):

1. Messages are released by periodic sources (:mod:`repro.sim.traffic`) and
   queue at the source router's injection VC of their priority class.
2. Every cycle, each directed channel ``(u, v)`` considers the VCs of router
   ``u`` holding a buffered flit whose owner's next hop is ``v`` and whose
   downstream VC at ``v`` can take a flit (free for headers, same-owner with
   space for body flits). The arbiter picks one; that VC forwards one flit.
3. A header flit allocates the downstream VC (per the VC mode); the tail
   flit releases each VC it drains from. Flits of distinct messages never
   interleave within a VC.
4. Flits arriving at their destination router are absorbed immediately
   (ejection is not a bottleneck); the absorption cycle of the tail flit is
   the message finish time. A lone ``C``-flit message over ``h`` hops
   therefore measures exactly ``h + C - 1``, the paper's network latency.

Buffer capacity defaults to 2 flits per VC: the simulator checks credits
against *pre-cycle* occupancy (no intra-cycle flow-through), so a depth of 1
would insert a bubble every other cycle and break the paper's latency model,
while depth 2 sustains full pipelining. This is a documented modelling
choice, equivalent to single-flit buffers with flow-through crediting.

Execution strategy: the simulator keeps a *movable* set — VCs whose head
flit could plausibly move this cycle — distinct from the set of VCs merely
holding flits. A header that finds its downstream VC occupied (or its
allocated VC full) is parked on a per-VC wait list and woken only when that
VC frees or pops a flit, so blocked and idle VCs cost zero per-cycle work;
per-message channel tuples and downstream VC targets are precomputed at
injection. Cycle-for-cycle results are identical to the straightforward
rescan-everything loop, which lives on as a test oracle
(``tests/reference/sim.py``) and is pinned to this one bit for bit by
``tests/test_fastpath_equivalence.py``.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.streams import MessageStream, StreamSet
from ..errors import SimulationError
from ..topology.base import Channel, Topology
from ..topology.degraded import normalize_link
from ..topology.routing import RoutingAlgorithm
from .arbiter import ChannelArbiter, PriorityPreemptiveArbiter
from .engine import SimulationKernel
from .flit import Message
from .gantt import GanttRecorder
from .router import INJECTION_PORT, Router, VirtualChannel
from .stats import StatsCollector
from .trace import TraceRecorder

__all__ = ["WormholeSimulator", "VC_MODES"]

#: Supported virtual-channel organisations.
#:
#: ``per_priority`` — the paper's scheme (one VC per priority level);
#: ``single``       — classical wormhole switching (priority inversion);
#: ``li``           — Li & Mutka's request-downward VC allocation;
#: ``preempt_kill`` — an approximation of Song et al.'s hardware
#:                    preemption with a single VC: when a higher-priority
#:                    header finds the VC held by a lower-priority worm,
#:                    the worm is killed (its in-flight flits discarded,
#:                    the message retransmitted from the source with its
#:                    original release time). High-priority arrival
#:                    behaviour approaches the per-priority scheme at the
#:                    cost of wasted low-priority work — the trade the
#:                    paper's section 3 discusses.
VC_MODES = ("per_priority", "single", "li", "preempt_kill")


class WormholeSimulator(SimulationKernel):
    """Flit-level wormhole network simulation over a routed topology.

    Parameters
    ----------
    topology, routing:
        The network substrate. Routing must be deterministic.
    streams:
        The message streams that will inject traffic. Priorities are ranked
        densely to VC indices (highest priority -> highest VC index).
    arbiter:
        Physical-channel arbitration policy; default is the paper's
        :class:`PriorityPreemptiveArbiter`.
    vc_mode:
        ``"per_priority"`` (paper), ``"single"`` (classical wormhole) or
        ``"li"`` (Li & Mutka's request-downward VC scheme).
    vc_capacity:
        Flit buffer depth per network VC (default 2; see module docstring).
    warmup:
        Messages released before this time are simulated but excluded from
        statistics (the paper discards a 2000-flit-time start-up).
    watchdog_cycles:
        Forwarded to :class:`~repro.sim.engine.SimulationKernel`.
    """

    def __init__(
        self,
        topology: Topology,
        routing: RoutingAlgorithm,
        streams: StreamSet,
        *,
        arbiter: Optional[ChannelArbiter] = None,
        vc_mode: str = "per_priority",
        vc_capacity: int = 2,
        hop_delay: int = 1,
        warmup: int = 0,
        watchdog_cycles: int = 50_000,
        trace: Optional["TraceRecorder"] = None,
        gantt: Optional["GanttRecorder"] = None,
    ):
        super().__init__(watchdog_cycles=watchdog_cycles)
        if vc_mode not in VC_MODES:
            raise SimulationError(
                f"unknown vc_mode {vc_mode!r}; expected one of {VC_MODES}"
            )
        if len(streams) == 0:
            raise SimulationError("cannot simulate an empty stream set")
        if hop_delay < 1:
            raise SimulationError(f"hop_delay must be >= 1, got {hop_delay}")
        self.topology = topology
        self.routing = routing
        self.streams = streams
        self.vc_mode = vc_mode
        self.vc_capacity = vc_capacity
        #: Router pipeline depth: flit times from a flit's arrival at a
        #: router to its earliest possible departure (1 = the paper's
        #: unit-delay model; r gives no-load latency r*h + C - 1, matching
        #: :class:`repro.core.latency.PipelinedLatency`).
        self.hop_delay = hop_delay
        self.arbiter = arbiter or PriorityPreemptiveArbiter()
        self.arbiter.reset()
        self.stats = StatsCollector(warmup=warmup)
        self.trace = trace
        self.gantt = gantt
        #: Directed channels numbered densely *in sorted order*, so that
        #: sorting by channel id and sorting by channel tuple agree (under
        #: ``vc_mode="li"`` the commit loop visits channels in this
        #: canonical order — see _step). Transfer counts live in a flat list
        #: indexed by channel id (int indexing beats tuple hashing in the
        #: hot loop); ``channel_transfers`` re-materialises the public
        #: Counter view on demand.
        self._chan_list: List[Channel] = sorted(topology.channels())
        self._chan_id: Dict[Channel, int] = {
            ch: i for i, ch in enumerate(self._chan_list)
        }
        self._transfer_counts: List[int] = [0] * len(self._chan_list)

        for s in streams:
            topology.validate_node(s.src)
            topology.validate_node(s.dst)

        # Dense priority ranking: VC index = rank of the stream's priority,
        # scaled by the routing function's VC-class count (torus datelines).
        distinct = sorted({s.priority for s in streams})
        self._prio_rank: Dict[int, int] = {p: i for i, p in enumerate(distinct)}
        self.num_vc_classes = getattr(routing, "num_vc_classes", 1)
        if self.num_vc_classes > 1 and vc_mode != "per_priority":
            raise SimulationError(
                f"routing needs {self.num_vc_classes} VC classes (dateline "
                f"scheme); only vc_mode='per_priority' supports that"
            )
        if vc_mode in ("single", "preempt_kill"):
            self.num_vcs = 1
        else:
            self.num_vcs = len(distinct) * self.num_vc_classes

        # Routers: one input port per incoming channel + injection.
        self._routers: Dict[int, Router] = {}
        upstream: Dict[int, List[int]] = {n: [] for n in topology.nodes()}
        for u, v in topology.channels():
            upstream[v].append(u)
        for n in topology.nodes():
            self._routers[n] = Router(
                n, tuple(upstream[n]), self.num_vcs, vc_capacity
            )

        #: VCs whose head flit may move this cycle.
        self._movable: Set[VirtualChannel] = set()
        #: Upstream VCs waiting for the key VC to be released (blocked
        #: headers; woken by tail pop / kill of the key VC).
        self._wait_free: Dict[VirtualChannel, List[VirtualChannel]] = {}
        #: The (unique) upstream VC waiting for the key VC to regain
        #: buffer space (woken by any flit pop from the key VC).
        self._wait_space: Dict[VirtualChannel, VirtualChannel] = {}
        #: (ready_time, seq, vc) heap of parked heads that are waiting
        #: out the router pipeline (hop_delay > 1 only).
        self._ready_heap: List[Tuple[int, int, VirtualChannel]] = []
        self._ready_seq = 0
        #: stream_id -> (path, per-position (channel id, downstream
        #: target) pairs), computed once per stream path, attached at
        #: injection. The path key guards against mid-simulation routing
        #: swaps: messages released before a swap keep their old path and
        #: must not share hop info with post-swap releases.
        self._hopinfo: Dict[
            int,
            Tuple[Tuple[int, ...], Tuple[Tuple[int, object], ...]],
        ] = {}
        #: msg_id -> per-path-position VC chain (index 0 = injection VC).
        self._chains: Dict[int, List[Optional[VirtualChannel]]] = {}
        self._next_msg_id = 0
        self._in_flight: Set[int] = set()
        #: In-flight messages by id (needed to kill and retransmit).
        self._messages: Dict[int, Message] = {}
        #: Victims selected this cycle under ``preempt_kill``.
        self._kill_pending: Set[int] = set()
        #: Messages killed and re-queued (``preempt_kill`` mode).
        self.retransmissions = 0
        #: Messages dropped because a physical link on their route was
        #: failed (in flight at :meth:`fail_link` time, or released while
        #: the link was down). Unlike ``preempt_kill`` victims they are
        #: *not* retransmitted — the stream's route is gone until the
        #: routing function is swapped (:meth:`set_routing`).
        self.link_drops = 0
        #: Failed physical links as normalised ``(min, max)`` node pairs.
        self._failed_links: Set[Tuple[int, int]] = set()
        #: Channel ids of both directions of every failed link.
        self._dead_channels: Set[int] = set()
        #: Total committed flit transfers (includes absorptions).
        self.total_transfers = 0

    # ------------------------------------------------------------------ #
    # Injection
    # ------------------------------------------------------------------ #

    def _vc_index_for(self, priority: int, vc_class: int = 0) -> int:
        if self.num_vcs == 1:
            return 0
        return self._prio_rank[priority] * self.num_vc_classes + vc_class

    def release_message(self, stream: MessageStream, time: int) -> Message:
        """Schedule one message of ``stream`` for release at ``time``.

        Returns the created message (its ``finish`` is filled in when the
        simulation absorbs its tail flit).
        """
        path = self.routing.route(stream.src, stream.dst)
        classes = (
            self.routing.route_classes(stream.src, stream.dst)
            if self.num_vc_classes > 1 else ()
        )
        msg = Message(
            msg_id=self._next_msg_id,
            stream_id=stream.stream_id,
            priority=stream.priority,
            src=stream.src,
            dst=stream.dst,
            length=stream.length,
            release=time,
            path=path,
            classes=classes,
        )
        self._next_msg_id += 1
        self.schedule(time, msg)
        if self.trace is not None:
            self.trace.on_release(time, msg)
        return msg

    def _hop_info(
        self, msg: Message
    ) -> Tuple[Tuple[int, object], ...]:
        """Per-stream hop cache: for each path position, the id of the
        channel crossed and the downstream VC it feeds (``None`` for the
        absorbing hop; the whole port VC pool under ``vc_mode="li"``,
        whose choice is dynamic)."""
        cached = self._hopinfo.get(msg.stream_id)
        path = msg.path
        if cached is not None and cached[0] == path:
            return cached[1]
        pairs: List[Tuple[int, object]] = []
        for i in range(len(path) - 1):
            u, v = path[i], path[i + 1]
            if v == msg.dst:
                tgt: object = None
            elif self.vc_mode == "li":
                tgt = self._routers[v].ports[u]
            else:
                tgt = self._routers[v].vc(
                    u,
                    self._vc_index_for(msg.priority, msg.vc_class(i)),
                )
            pairs.append((self._chan_id[(u, v)], tgt))
        info = tuple(pairs)
        self._hopinfo[msg.stream_id] = (path, info)
        return info

    def _path_dead(self, path: Sequence[int]) -> bool:
        """Does ``path`` cross any channel of a currently failed link?"""
        chan_id = self._chan_id
        dead = self._dead_channels
        for i in range(len(path) - 1):
            if chan_id[(path[i], path[i + 1])] in dead:
                return True
        return False

    def _inject(self, payloads: List[object]) -> None:
        for msg in payloads:
            assert isinstance(msg, Message)
            if self._dead_channels and self._path_dead(msg.path):
                # Released while a link on its (pre-swap) route is down:
                # the message is lost at the source, deterministically.
                self.link_drops += 1
                if self._obs is not None:
                    self._obs.emit("i", "sim.link_drop", "sim", {
                        "t": self.now, "msg": msg.msg_id,
                        "stream": msg.stream_id, "at": "inject",
                    })
                continue
            vc = self._routers[msg.src].vc(
                INJECTION_PORT, self._vc_index_for(msg.priority)
            )
            if msg.hop_cache is None:
                msg.hop_cache = self._hop_info(msg)
            vc.enqueue_message(msg)
            chain: List[Optional[VirtualChannel]] = [None] * len(msg.path)
            msg.chain = chain
            self._chains[msg.msg_id] = chain
            if vc.owner is msg:
                chain[0] = vc
                if self.hop_delay > 1:
                    # Injection pipeline: the header may not leave before
                    # release + hop_delay.
                    vc.ready.append(msg.release + self.hop_delay)
                # Newly promoted owner: the VC was free before, so it is
                # tracked nowhere and must (re)enter the movable set. If
                # another message owns the VC, its state is unaffected by
                # a queue append.
                self._movable.add(vc)
            self._in_flight.add(msg.msg_id)
            self._messages[msg.msg_id] = msg

    # ------------------------------------------------------------------ #
    # Cycle body
    # ------------------------------------------------------------------ #

    def _has_work(self) -> bool:
        return bool(self._movable)

    def _next_event_time(self) -> Optional[int]:
        """Earliest parked head-ready time (hop_delay > 1).

        Lazily drops entries whose VC was emptied by a kill since parking.
        """
        heap = self._ready_heap
        while heap:
            t, _, vc = heap[0]
            if vc.owner is None or vc.count == 0:
                heapq.heappop(heap)
                continue
            return t
        return None

    def _blocked_work(self) -> bool:
        return bool(self._in_flight)

    def _step(self) -> int:
        """Event-driven cycle body: only *movable* VCs are examined.

        Phase 1 walks the movable set, parking anything blocked — on the
        downstream VC's wait list (woken when that VC frees or pops) or on
        the head-ready heap (router pipeline). Phase 2 commits one flit per
        contended channel with the pop/push bookkeeping inlined, waking
        parked VCs as the events they wait for occur. Wait entries are
        hints, not state: phase 1 re-validates every woken VC against the
        actual pre-cycle occupancy, so spurious wakes are harmless and
        every cycle equals the rescan-everything loop's.
        """
        now = self.now
        movable = self._movable
        heap = self._ready_heap
        # Observability: park/arbitration events are buffered and emitted
        # sorted at cycle end — the movable set iterates in id() order,
        # which varies between runs, and traces must not.
        obs = self._obs
        ev = [] if obs is not None else None
        while heap and heap[0][0] <= now:
            vc = heapq.heappop(heap)[2]
            if vc.count and vc.owner is not None:
                movable.add(vc)

        wait_free = self._wait_free
        wait_space = self._wait_space
        chains = self._chains
        li = self.vc_mode == "li"
        kill = self.vc_mode == "preempt_kill"
        last_vc = self.num_vcs - 1
        hop_delay = self.hop_delay
        deep = hop_delay > 1

        # Phase 1: candidate collection against pre-cycle state. A wants
        # entry (keyed by channel id) is a bare VC until a second
        # candidate contends for the channel, at which point it becomes a
        # ``(vc, msg)`` list for the arbiter (owners are stable until the
        # channel commits, so deferred ``.owner`` reads match pre-cycle
        # state).
        wants: Dict[int, object] = {}
        for vc in list(movable):
            if vc.count == 0:
                # Emptied, drained or released since it was woken
                # (release always zeroes the count, so this covers all).
                movable.discard(vc)
                continue
            msg = vc.owner
            if deep:
                ready = vc.ready
                if ready and ready[0] > now:
                    movable.discard(vc)
                    self._ready_seq += 1
                    heapq.heappush(heap, (ready[0], self._ready_seq, vc))
                    continue
            cid, tgt = msg.hop_cache[vc.position]
            if tgt is not None:
                if li:
                    dvc = chains[msg.msg_id][vc.position + 1]
                    if dvc is not None:
                        if dvc.count >= dvc.capacity:
                            movable.discard(vc)
                            wait_space[dvc] = vc
                            if ev is not None:
                                ev.append(("sim.vc_wait", msg.msg_id, {
                                    "msg": msg.msg_id,
                                    "stream": msg.stream_id,
                                    "position": vc.position,
                                    "waiting_for": "space",
                                }))
                            continue
                    else:
                        bound = min(self._prio_rank[msg.priority], last_vc)
                        for i in range(bound, -1, -1):
                            if tgt[i].owner is None:
                                break
                        else:
                            movable.discard(vc)
                            for i in range(bound, -1, -1):
                                wait_free.setdefault(tgt[i], []).append(vc)
                            if ev is not None:
                                ev.append(("sim.vc_wait", msg.msg_id, {
                                    "msg": msg.msg_id,
                                    "stream": msg.stream_id,
                                    "position": vc.position,
                                    "waiting_for": "free",
                                }))
                            continue
                else:
                    towner = tgt.owner
                    if towner is msg:
                        if tgt.count >= tgt.capacity:
                            movable.discard(vc)
                            wait_space[tgt] = vc
                            if ev is not None:
                                ev.append(("sim.vc_wait", msg.msg_id, {
                                    "msg": msg.msg_id,
                                    "stream": msg.stream_id,
                                    "position": vc.position,
                                    "waiting_for": "space",
                                }))
                            continue
                    elif towner is not None:
                        movable.discard(vc)
                        waiters = wait_free.get(tgt)
                        if waiters is None:
                            wait_free[tgt] = [vc]
                        else:
                            waiters.append(vc)
                        if ev is not None:
                            ev.append(("sim.vc_wait", msg.msg_id, {
                                "msg": msg.msg_id,
                                "stream": msg.stream_id,
                                "position": vc.position,
                                "waiting_for": "free",
                                "holder": towner.msg_id,
                            }))
                        if kill and towner.priority < msg.priority:
                            self._kill_pending.add(towner.msg_id)
                        continue
            cur = wants.setdefault(cid, vc)
            if cur is not vc:
                if type(cur) is list:
                    cur.append((vc, msg))
                else:
                    wants[cid] = [(cur, cur.owner), (vc, msg)]

        # Phase 2: arbitrate and commit one flit per contended channel.
        # Commit order is immaterial in every mode but "li": each VC
        # appears in exactly one channel's candidates and downstream
        # targets are keyed by input port, so commits are independent.
        # Under vc_mode="li", however, the allocation re-scan reads the
        # port pool's *current* owners, so a tail release committed
        # earlier in the same cycle can change which VC index a later
        # header picks — there (and only there) channels commit in
        # canonical sorted order, pinning this loop, the rescan oracle and
        # re-runs under hash randomisation to identical results.
        # VCs that end the cycle drained (released tails, mid-worm
        # bubbles) are *not* discarded from the movable set here — the
        # count == 0 test at the top of phase 1 reclaims them next cycle,
        # which costs less than the discard/re-add churn of a streaming
        # worm whose buffer empties and refills every cycle.
        moved = 0
        tcounts = self._transfer_counts
        chan_list = self._chan_list
        trace = self.trace
        gantt = self.gantt
        select = self.arbiter.select
        record = self.stats.record
        for cid, cand in sorted(wants.items()) if li else wants.items():
            if type(cand) is list:
                vc, msg = select(chan_list[cid], cand, now)
                if ev is not None:
                    ev.append(("sim.preempt", cid, {
                        "channel": list(chan_list[cid]),
                        "winner": msg.msg_id,
                        "stream": msg.stream_id,
                        "losers": sorted(
                            m.msg_id for _, m in cand if m is not msg
                        ),
                    }))
            else:
                vc = cand
                msg = vc.owner
            pos = vc.position
            if trace is not None and vc.is_injection and vc.sent == 0:
                trace.on_first_flit(now, msg)
            # Inlined VirtualChannel.pop_flit plus wake bookkeeping.
            count = vc.count - 1
            sent = vc.sent + 1
            vc.count = count
            vc.sent = sent
            if deep and vc.ready:
                vc.ready.popleft()
            if sent == msg.length:
                # Tail left: release the VC, wake blocked headers.
                vc.owner = None
                vc.count = 0
                vc.received = 0
                vc.sent = 0
                if deep:
                    vc.ready.clear()
                if wait_free:
                    waiters = wait_free.pop(vc, None)
                    if waiters:
                        movable.update(waiters)
                if wait_space:
                    waiter = wait_space.pop(vc, None)
                    if waiter is not None:
                        movable.add(waiter)
                if vc.queue:
                    # Injection VC (only they queue): promote the next
                    # message; it re-allocates at position 0 — the same
                    # value ``pos`` read above, so the push branch below
                    # is unaffected.
                    vc._promote()
                    promoted = vc.owner
                    promoted.chain[0] = vc
                    if deep:
                        vc.ready.append(
                            max(promoted.release + hop_delay, now + 1)
                        )
                    # vc keeps its movable slot for the promoted owner.
            elif wait_space:
                waiter = wait_space.pop(vc, None)
                if waiter is not None:
                    movable.add(waiter)
            tcounts[cid] += 1
            if gantt is not None:
                gantt.on_transfer(now, chan_list[cid], msg)
            tgt = msg.hop_cache[pos][1]
            if tgt is None:
                # Absorbing hop: the flit arrived at the destination.
                msg.delivered += 1
                if msg.delivered == msg.length:
                    msg.finish = now
                    record(msg)
                    if trace is not None:
                        trace.on_finish(now, msg)
                    self._in_flight.discard(msg.msg_id)
                    self._messages.pop(msg.msg_id, None)
                    del chains[msg.msg_id]
            else:
                chain = msg.chain
                dvc = chain[pos + 1]
                if dvc is None:
                    if li:
                        bound = min(self._prio_rank[msg.priority], last_vc)
                        for i in range(bound, -1, -1):
                            if tgt[i].owner is None:
                                dvc = tgt[i]
                                break
                        if dvc is None:  # pragma: no cover - defensive
                            raise SimulationError(
                                "downstream VC vanished between phases"
                            )
                    else:
                        dvc = tgt
                    dvc.allocate(msg, pos + 1)
                    chain[pos + 1] = dvc
                # Inlined VirtualChannel.push_flit (``received`` is not
                # maintained here: nothing in the simulator reads it and
                # allocate/release reset it).
                dcount = dvc.count
                if dcount == 0:
                    movable.add(dvc)
                dvc.count = dcount + 1
                if deep:
                    dvc.ready.append(now + hop_delay)
            moved += 1
        self.total_transfers += moved
        if ev:
            # A worm can park at two positions in one cycle: the
            # position breaks the tie the message id leaves.
            ev.sort(key=lambda e: (e[0], e[1], e[2].get("position", 0)))
            for name, _, args in ev:
                obs.emit("i", name, "sim", dict(args, t=now))
        if self._kill_pending:
            for victim_id in sorted(self._kill_pending):
                self._kill_message(victim_id)
            self._kill_pending.clear()
        return moved

    def _discard_message(self, msg_id: int) -> Optional[Message]:
        """Drop an in-flight worm: free every VC it holds (or its slot in
        an injection queue), wake parked waiters, and forget it. No
        retransmission — callers decide what, if anything, happens next.
        Returns the victim, or ``None`` if it already finished.
        """
        victim = self._messages.pop(msg_id, None)
        if victim is None:
            return None
        chain = self._chains.pop(msg_id)
        if chain[0] is None:
            # Never promoted: still queued behind the injection VC's
            # current owner. Remove it from that queue.
            inj = self._routers[victim.src].vc(
                INJECTION_PORT, self._vc_index_for(victim.priority)
            )
            try:
                inj.queue.remove(victim)
            except ValueError:  # pragma: no cover - defensive
                pass
        for vc in chain:
            if vc is None or vc.owner is not victim:
                continue
            vc.force_release()
            self._movable.discard(vc)
            # The freed VC may have blocked headers parked on it — this
            # wake is exactly the preemption the kill exists for.
            waiters = self._wait_free.pop(vc, None)
            if waiters:
                self._movable.update(waiters)
            waiter = self._wait_space.pop(vc, None)
            if waiter is not None:
                self._movable.add(waiter)
            if vc.is_injection:
                promoted = vc.promote_queued()
                if promoted is not None:
                    self._chains[promoted.msg_id][0] = vc
                    if self.hop_delay > 1:
                        vc.ready.append(
                            max(promoted.release + self.hop_delay,
                                self.now + 1)
                        )
                    self._movable.add(vc)
        self._in_flight.discard(msg_id)
        return victim

    def _kill_message(self, msg_id: int) -> None:
        """Kill an in-flight worm and re-queue it from its source.

        All buffered flits are dropped, every VC the worm holds is freed,
        and a fresh copy (same stream, same *original* release time, so the
        measured delay includes the wasted attempt) joins the source's
        injection queue. Partial deliveries are discarded by the receiver.
        """
        victim = self._discard_message(msg_id)
        if victim is None:
            return  # finished in this very cycle
        if self._obs is not None:
            self._obs.emit("i", "sim.kill", "sim", {
                "t": self.now, "msg": msg_id, "stream": victim.stream_id,
            })
        self.retransmissions += 1

        clone = Message(
            msg_id=self._next_msg_id,
            stream_id=victim.stream_id,
            priority=victim.priority,
            src=victim.src,
            dst=victim.dst,
            length=victim.length,
            release=victim.release,
            path=victim.path,
            classes=victim.classes,
        )
        self._next_msg_id += 1
        if self.trace is not None:
            self.trace.on_release(victim.release, clone)
        inj = self._routers[clone.src].vc(
            INJECTION_PORT, self._vc_index_for(clone.priority)
        )
        clone.hop_cache = victim.hop_cache
        inj.enqueue_message(clone)
        chain: List[Optional[VirtualChannel]] = [None] * len(clone.path)
        clone.chain = chain
        self._chains[clone.msg_id] = chain
        if inj.owner is clone:
            chain[0] = inj
            if self.hop_delay > 1:
                inj.ready.append(self.now + self.hop_delay)
            self._movable.add(inj)
        self._in_flight.add(clone.msg_id)
        self._messages[clone.msg_id] = clone

    # ------------------------------------------------------------------ #
    # Link faults
    # ------------------------------------------------------------------ #

    @property
    def failed_links(self) -> frozenset:
        """Currently failed links as normalised ``(min, max)`` pairs."""
        return frozenset(self._failed_links)

    def fail_link(self, u: int, v: int) -> List[int]:
        """Fail the physical link between ``u`` and ``v`` (both directions).

        Every in-flight worm whose route crosses the link is dropped
        deterministically (ascending message id): its buffered flits are
        discarded, the VCs it holds are freed — waking any worms that were
        blocked behind it — and partial deliveries are abandoned by the
        receiver. Messages released while the link is down whose route
        crosses it are lost at the source (see :meth:`_inject`). Neither
        is retransmitted; ``link_drops`` counts both. Returns the dropped
        message ids.
        """
        link = normalize_link(u, v)
        a, b = link
        if (a, b) not in self._chan_id or (b, a) not in self._chan_id:
            raise SimulationError(
                f"no physical link between nodes {a} and {b}"
            )
        if link in self._failed_links:
            raise SimulationError(f"link {link} is already failed")
        self._failed_links.add(link)
        self._dead_channels.add(self._chan_id[(a, b)])
        self._dead_channels.add(self._chan_id[(b, a)])
        victims = [
            msg_id for msg_id in sorted(self._in_flight)
            if self._path_dead(self._messages[msg_id].path)
        ]
        for msg_id in victims:
            self._discard_message(msg_id)
            self.link_drops += 1
        if self._obs is not None:
            self._obs.emit("i", "sim.link_fail", "sim", {
                "t": self.now, "link": [a, b], "dropped": victims,
            })
        return victims

    def restore_link(self, u: int, v: int) -> None:
        """Restore a previously failed link.

        Worms dropped while it was down stay dropped; traffic released
        after the restore crosses the link normally again.
        """
        link = normalize_link(u, v)
        if link not in self._failed_links:
            raise SimulationError(f"link {link} is not failed")
        self._failed_links.discard(link)
        a, b = link
        self._dead_channels.discard(self._chan_id[(a, b)])
        self._dead_channels.discard(self._chan_id[(b, a)])
        if self._obs is not None:
            self._obs.emit("i", "sim.link_restore", "sim", {
                "t": self.now, "link": [a, b],
            })

    def set_routing(self, routing: RoutingAlgorithm) -> None:
        """Swap the routing function mid-simulation.

        Worms already released keep the path computed at their release
        (a worm in flight follows the route its header reserved); only
        future releases route under ``routing``. The replacement must
        need exactly the VC classes the simulator was provisioned with at
        construction — to model reroute-around-failure, construct the
        simulator with a :class:`~repro.topology.FaultAwareRouting` over
        an empty failed set so the detour class exists from the start.
        """
        needed = getattr(routing, "num_vc_classes", 1)
        if needed != self.num_vc_classes:
            raise SimulationError(
                f"replacement routing needs {needed} VC class(es); the "
                f"simulator was provisioned for {self.num_vc_classes}"
            )
        self.routing = routing
        # Per-stream hop caches key on the path they were built for, so
        # stale entries are already harmless; dropping them simply stops
        # dead paths from lingering.
        self._hopinfo.clear()

    # ------------------------------------------------------------------ #
    # Convenience driver
    # ------------------------------------------------------------------ #

    def simulate_streams(
        self,
        until: int,
        *,
        phases: Optional[Dict[int, int]] = None,
        drain: bool = True,
        drain_limit: int = 1 << 20,
    ) -> StatsCollector:
        """Release periodic traffic for every stream and run the clock.

        Parameters
        ----------
        until:
            Horizon: stream ``i`` releases messages at
            ``phase_i, phase_i + T_i, ...`` strictly below ``until``, and
            the network runs ``until`` cycles.
        phases:
            Per-stream release offsets (default 0 for all — the paper's
            synchronous start; see :mod:`repro.sim.traffic` for randomised
            phases).
        drain:
            Keep running (without new releases) until all in-flight messages
            finish, so late releases still contribute samples.
        drain_limit:
            Hard cap on drain cycles (guards saturated networks).
        """
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
            while self._in_flight and self.now < deadline:
                self.run(min(self.now + 1024, deadline))
        self.stats.unfinished = len(self._in_flight)
        return self.stats

    @property
    def channel_transfers(self) -> Counter:
        """Committed flit transfers per directed channel (for utilization).

        Built on demand from the flat per-channel-id counters; channels
        that never carried a flit are omitted (Counter semantics return 0
        for them anyway).
        """
        chan_list = self._chan_list
        return Counter(
            {chan_list[i]: n for i, n in enumerate(self._transfer_counts) if n}
        )

    def link_utilization(self) -> Dict[Channel, float]:
        """Return per-channel utilization (transfers / elapsed flit times).

        Only channels that carried at least one flit appear.
        """
        if self.now <= 0:
            raise SimulationError("no simulated time elapsed yet")
        return {
            ch: n / self.now for ch, n in self.channel_transfers.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WormholeSimulator(nodes={self.topology.num_nodes}, "
            f"streams={len(self.streams)}, vc_mode={self.vc_mode!r}, "
            f"t={self.now})"
        )
