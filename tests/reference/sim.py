"""The rescan-everything cycle loop, the oracle for the simulator's
event-driven one (:meth:`repro.sim.network.WormholeSimulator._step`).

Every cycle it looks at every virtual channel of every router that holds
a flit, asks whether its head flit can move, arbitrates per channel and
commits through the checked ``VirtualChannel.pop_flit`` / ``push_flit``
transitions — no movable set, no wait lists, no ready heap, no clock
jumps over blocked stretches. ``tests/test_fastpath_equivalence.py``
requires the two to agree on every observable, cycle for cycle. The
production bookkeeping that injection and kills maintain (``_movable``,
wait lists) is simply never read here.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.flit import Message
from repro.sim.network import WormholeSimulator
from repro.sim.router import VirtualChannel
from repro.topology.base import Channel

__all__ = ["RescanSimulator"]


class RescanSimulator(WormholeSimulator):
    """`WormholeSimulator` with the literal per-cycle rescan as `_step`."""

    def _holding(self) -> Iterator[VirtualChannel]:
        """Every VC that holds a flit, router by router, port by port."""
        for router in self._routers.values():
            for vcs in router.ports.values():
                for vc in vcs:
                    if vc.count and vc.owner is not None:
                        yield vc

    def _has_work(self) -> bool:
        return next(self._holding(), None) is not None

    def _next_event_time(self) -> Optional[int]:
        return None

    def _downstream_target(
        self, msg: Message, position: int
    ) -> Optional[VirtualChannel]:
        """The downstream VC a flit at ``position`` would enter, or
        ``None`` when none is available now (header blocked)."""
        dvc = msg.chain[position + 1]
        if dvc is not None:
            return dvc if dvc.has_space() else None
        u, v = msg.path[position], msg.path[position + 1]
        router = self._routers[v]
        if self.vc_mode == "li":
            free = router.free_vc_indices(u, self._prio_rank[msg.priority])
            return router.vc(u, free[0]) if free else None
        vc = router.vc(
            u, self._vc_index_for(msg.priority, msg.vc_class(position))
        )
        if vc.free:
            return vc
        if self.vc_mode == "preempt_kill" \
                and vc.owner.priority < msg.priority:
            # Song-style hardware preemption: the lower-priority worm is
            # killed at cycle end; the header retries once the VC frees.
            self._kill_pending.add(vc.owner.msg_id)
        return None

    def _step(self) -> int:
        now = self.now
        # Phase 1: per-channel candidates, against pre-cycle state only.
        wants: Dict[Channel, List[Tuple[VirtualChannel, Message]]] = {}
        for vc in self._holding():
            msg = vc.owner
            if not vc.head_ready(now):
                continue
            pos = vc.position
            v = msg.path[pos + 1]
            if v != msg.dst and self._downstream_target(msg, pos) is None:
                continue
            wants.setdefault((msg.path[pos], v), []).append((vc, msg))

        # Phase 2: arbitrate and commit one flit per contended channel —
        # in sorted channel order under vc_mode="li", where a tail release
        # can change which VC index a later header of the cycle picks.
        commits = (
            sorted(wants.items()) if self.vc_mode == "li" else wants.items()
        )
        for channel, candidates in commits:
            if len(candidates) == 1:
                vc, msg = candidates[0]
            else:
                vc, msg = self.arbiter.select(channel, candidates, now)
            pos = vc.position
            if self.trace is not None and vc.is_injection and vc.sent == 0:
                self.trace.on_first_flit(now, msg)
            sender = vc.pop_flit()
            assert sender is msg
            self._transfer_counts[self._chan_id[channel]] += 1
            if self.gantt is not None:
                self.gantt.on_transfer(now, channel, msg)
            if channel[1] == msg.dst:
                msg.delivered += 1
                if msg.delivered == msg.length:
                    msg.finish = now
                    self.stats.record(msg)
                    if self.trace is not None:
                        self.trace.on_finish(now, msg)
                    self._in_flight.discard(msg.msg_id)
                    self._messages.pop(msg.msg_id, None)
                    del self._chains[msg.msg_id]
            else:
                dvc = msg.chain[pos + 1]
                if dvc is None:
                    dvc = self._downstream_target(msg, pos)
                    if dvc is None:
                        raise SimulationError(
                            "downstream VC vanished between phases"
                        )
                    dvc.allocate(msg, pos + 1)
                    msg.chain[pos + 1] = dvc
                dvc.push_flit(
                    now + self.hop_delay if self.hop_delay > 1 else None
                )
            promoted = vc.owner
            if vc.is_injection and promoted is not None \
                    and promoted is not msg:
                # The tail left and the injection queue promoted the next
                # message: record its chain head and pipeline delay.
                promoted.chain[0] = vc
                if self.hop_delay > 1:
                    vc.ready.append(
                        max(promoted.release + self.hop_delay, now + 1)
                    )
        moved = len(wants)
        self.total_transfers += moved
        if self._kill_pending:
            for victim_id in sorted(self._kill_pending):
                self._kill_message(victim_id)
            self._kill_pending.clear()
        return moved
