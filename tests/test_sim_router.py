"""Unit tests for virtual channels and routers (repro.sim.router)."""

import pytest

from repro.errors import SimulationError
from repro.sim.flit import Message
from repro.sim.router import INJECTION_PORT, Router, VirtualChannel


def msg(msg_id=0, length=4, path=(0, 1, 2), priority=1, release=0):
    return Message(
        msg_id=msg_id, stream_id=msg_id, priority=priority,
        src=path[0], dst=path[-1], length=length, release=release, path=path,
    )


class TestMessage:
    def test_no_load_latency(self):
        m = msg(length=5, path=(0, 1, 2, 3))
        assert m.no_load_latency() == 3 + 5 - 1

    def test_delay_requires_finish(self):
        m = msg()
        with pytest.raises(SimulationError):
            m.delay()
        m.finish = 12
        assert m.delay() == 12

    def test_bad_path_rejected(self):
        with pytest.raises(SimulationError):
            Message(0, 0, 1, src=0, dst=2, length=3, release=0, path=(0, 1))

    def test_bad_length_rejected(self):
        with pytest.raises(SimulationError):
            msg(length=0)


class TestVirtualChannelLifecycle:
    def test_allocate_push_pop_release(self):
        vc = VirtualChannel(node=1, port=0, index=0, capacity=2)
        m = msg(length=2)
        vc.allocate(m, position=1)
        assert not vc.free
        vc.push_flit()
        assert vc.count == 1
        assert vc.pop_flit() is m
        vc.push_flit()
        assert vc.pop_flit() is m
        # Tail passed: VC released.
        assert vc.free and vc.count == 0

    def test_double_allocate_rejected(self):
        vc = VirtualChannel(1, 0, 0, 2)
        vc.allocate(msg(0), 1)
        with pytest.raises(SimulationError):
            vc.allocate(msg(1), 1)

    def test_push_beyond_capacity_rejected(self):
        vc = VirtualChannel(1, 0, 0, 1)
        vc.allocate(msg(length=3), 1)
        vc.push_flit()
        with pytest.raises(SimulationError):
            vc.push_flit()

    def test_push_unowned_rejected(self):
        vc = VirtualChannel(1, 0, 0, 1)
        with pytest.raises(SimulationError):
            vc.push_flit()

    def test_pop_empty_rejected(self):
        vc = VirtualChannel(1, 0, 0, 1)
        vc.allocate(msg(), 1)
        with pytest.raises(SimulationError):
            vc.pop_flit()

    def test_overfeed_rejected(self):
        vc = VirtualChannel(1, 0, 0, 4)
        vc.allocate(msg(length=1), 1)
        vc.push_flit()
        vc.pop_flit()  # releases
        vc.allocate(msg(1, length=1), 1)
        vc.push_flit()
        with pytest.raises(SimulationError):
            vc.push_flit()


class TestInjectionQueue:
    def test_enqueue_promotes_when_free(self):
        vc = VirtualChannel(0, INJECTION_PORT, 0, None)
        m = msg(length=3)
        vc.enqueue_message(m)
        assert vc.owner is m
        assert vc.count == 3  # whole message available at the source

    def test_fifo_promotion(self):
        vc = VirtualChannel(0, INJECTION_PORT, 0, None)
        a, b = msg(0, length=1), msg(1, length=2)
        vc.enqueue_message(a)
        vc.enqueue_message(b)
        assert vc.owner is a
        vc.pop_flit()  # a's tail leaves -> b promoted
        assert vc.owner is b
        assert vc.count == 2

    def test_enqueue_on_network_vc_rejected(self):
        vc = VirtualChannel(0, 5, 0, 2)
        with pytest.raises(SimulationError):
            vc.enqueue_message(msg())


class TestRouter:
    def test_ports_created(self):
        r = Router(3, upstream_nodes=(2, 4), num_vcs=3, vc_capacity=2)
        assert set(r.ports) == {2, 4, INJECTION_PORT}
        assert len(r.ports[2]) == 3
        assert all(vc.capacity == 2 for vc in r.ports[2])
        assert all(vc.capacity is None for vc in r.ports[INJECTION_PORT])

    def test_vc_lookup(self):
        r = Router(3, (2,), num_vcs=2, vc_capacity=1)
        vc = r.vc(2, 1)
        assert (vc.node, vc.port, vc.index) == (3, 2, 1)
        with pytest.raises(SimulationError):
            r.vc(9, 0)
        with pytest.raises(SimulationError):
            r.vc(2, 5)

    def test_free_vc_indices_descending(self):
        r = Router(3, (2,), num_vcs=4, vc_capacity=1)
        assert r.free_vc_indices(2, 2) == [2, 1, 0]
        r.vc(2, 1).allocate(msg(), 1)
        assert r.free_vc_indices(2, 2) == [2, 0]
        assert r.free_vc_indices(2, 0) == [0]

    def test_invalid_parameters(self):
        with pytest.raises(SimulationError):
            Router(0, (), num_vcs=0, vc_capacity=1)
        with pytest.raises(SimulationError):
            Router(0, (), num_vcs=1, vc_capacity=0)

    def test_all_vcs(self):
        r = Router(3, (2, 4), num_vcs=2, vc_capacity=1)
        assert sum(len(vcs) for vcs in r.ports.values()) == 6
