"""Deadlock machinery end to end: an unsafe routing function must be
flagged by the dependency-cycle checker, and actually deadlock in the
simulator (caught by the watchdog) — while the paper's X-Y setup never
does.
"""

import pytest

from repro.errors import DeadlockError
from repro.sim import WormholeSimulator
from repro.topology import is_deadlock_free


class TestDeadlock:
    def test_checker_flags_the_cycle(self, ring_setup):
        mesh, routing, streams = ring_setup
        assert not is_deadlock_free(routing)

    def test_simulator_watchdog_catches_it(self, ring_setup):
        """With single-flit buffers and one VC, the four worms wedge: each
        holds the channel the next one needs. The watchdog must raise
        rather than spin forever."""
        mesh, routing, streams = ring_setup
        sim = WormholeSimulator(
            mesh, routing, streams,
            vc_mode="single", vc_capacity=1, watchdog_cycles=500,
        )
        with pytest.raises(DeadlockError):
            sim.simulate_streams(5_000)

    def test_staggered_release_avoids_the_wedge(self, ring_setup):
        """The same configuration completes when releases are staggered so
        the ring never fills — deadlock needs the simultaneous pattern."""
        mesh, routing, streams = ring_setup
        sim = WormholeSimulator(
            mesh, routing, streams,
            vc_mode="single", vc_capacity=1, watchdog_cycles=500,
        )
        stats = sim.simulate_streams(
            200, phases={0: 0, 1: 30, 2: 60, 3: 90}
        )
        assert stats.unfinished == 0

    def test_paper_setup_never_wedges(self, ring_setup):
        """Same traffic, same buffers, but X-Y routing (legal turns only):
        no deadlock regardless of the release pattern."""
        from repro.topology import XYRouting

        mesh, _, streams = ring_setup
        routing = XYRouting(mesh)
        assert is_deadlock_free(routing)
        sim = WormholeSimulator(
            mesh, routing, streams,
            vc_mode="single", vc_capacity=1, watchdog_cycles=500,
        )
        stats = sim.simulate_streams(200)
        assert stats.unfinished == 0
