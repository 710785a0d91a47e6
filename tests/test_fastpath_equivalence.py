"""The simulator's contract: cycle-for-cycle identical to the rescan loop.

The event-driven cycle body (movable set + wait lists,
:meth:`WormholeSimulator._step`) exists purely for speed; every
observable — per-stream delay samples, per-channel transfer counts,
delivery times, retransmissions, link-drop victims, the clock itself —
must match the rescan-everything oracle
(:class:`tests.reference.RescanSimulator`) bit for bit. These tests pin
that contract across every arbiter policy, every VC mode, shallow and
deep VC buffers, pipelined routers, tracing, mid-run link faults with
reroutes, multi-class routings and a deadlock.
"""

import hashlib
import random

import pytest

from repro.core.streams import MessageStream, StreamSet
from repro.errors import DeadlockError, RoutingError
from repro.fuzz import GeneratorConfig, generate_case, stats_fingerprint
from repro.obs.trace import (
    Tracer,
    active,
    canonical_lines,
    install,
    uninstall,
)
from repro.sim.arbiter import (
    FCFSArbiter,
    PriorityPreemptiveArbiter,
    RoundRobinArbiter,
)
from repro.sim.network import WormholeSimulator
from repro.sim.trace import TraceRecorder
from repro.topology import (
    DegradedTopology,
    FaultAwareRouting,
    Torus,
    TorusDimensionOrderRouting,
    UpDownRouting,
    links,
)
from repro.topology.mesh import Mesh2D
from repro.topology.routing import XYRouting
from tests.reference import RescanSimulator

ARBITERS = {
    "preemptive": PriorityPreemptiveArbiter,
    "fcfs": FCFSArbiter,
    "rr": RoundRobinArbiter,
}

SEEDS = (0, 1, 2)
PATHS = (WormholeSimulator, RescanSimulator)


def _workload(seed: int, n: int = 24, nodes: int = 16) -> StreamSet:
    """A deterministic contended workload on 16 nodes (the 4x4 mesh)."""
    rng = random.Random(seed)
    streams = []
    for i in range(n):
        src = rng.randrange(nodes)
        dst = rng.randrange(nodes)
        while dst == src:
            dst = rng.randrange(nodes)
        period = rng.randint(40, 160)
        streams.append(MessageStream(
            stream_id=i, src=src, dst=dst,
            priority=rng.randint(1, 5), period=period,
            length=rng.randint(2, 12), deadline=period,
        ))
    return StreamSet(streams)


def _run(seed, *, sim_cls, network=None, vc_mode="per_priority",
         arbiter=None, vc_capacity=2, hop_delay=1, traced=False,
         until=4000):
    if network is None:
        mesh = Mesh2D(4, 4)
        network = (mesh, XYRouting(mesh))
    topology, routing = network
    trace = TraceRecorder() if traced else None
    sim = sim_cls(
        topology, routing, _workload(seed, nodes=topology.num_nodes),
        arbiter=(arbiter or PriorityPreemptiveArbiter)(),
        vc_mode=vc_mode, vc_capacity=vc_capacity, hop_delay=hop_delay,
        warmup=0, trace=trace,
    )
    stats = sim.simulate_streams(until)
    return sim, stats, trace


def _observables(sim, stats, trace):
    """Everything the two loops must agree on, bit for bit."""
    key = (
        tuple((sid, stats.samples(sid)) for sid in stats.stream_ids()),
        tuple(sorted(sim.channel_transfers.items())),
        sim.total_transfers,
        sim.retransmissions,
        sim.link_drops,
        stats.unfinished,
        sim.now,
    )
    if trace is not None:
        key += (tuple(
            (t.msg_id, t.stream_id, t.release, t.first_flit, t.finish)
            for _, t in sorted(trace._traces.items())
        ),)
    return key


def _assert_paths_agree(seed, **kwargs):
    production, oracle = (
        _observables(*_run(seed, sim_cls=cls, **kwargs)) for cls in PATHS
    )
    assert production == oracle


class TestArbiterPolicies:
    """All three arbiter policies, paper VC mode, three seeds."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("arb", sorted(ARBITERS))
    def test_identical(self, seed, arb):
        _assert_paths_agree(seed, arbiter=ARBITERS[arb])


class TestVcModes:
    """Every VC organisation, including the kill-and-retransmit mode."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "mode", ["per_priority", "single", "li", "preempt_kill"]
    )
    def test_identical(self, seed, mode):
        _assert_paths_agree(seed, vc_mode=mode)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_preempt_kill_retransmits_identically(self, seed):
        production, oracle = (
            _run(seed, sim_cls=cls, vc_mode="preempt_kill") for cls in PATHS
        )
        assert production[0].retransmissions == oracle[0].retransmissions > 0
        assert _observables(*production) == _observables(*oracle)


class TestBufferDepthAndPipeline:
    """VC depth 1 (bubbly) and 4 (deep), pipelined routers."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("cap", [1, 4])
    def test_vc_capacity(self, seed, cap):
        _assert_paths_agree(seed, vc_capacity=cap)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("hop_delay", [2, 3])
    def test_pipelined_routers(self, seed, hop_delay):
        _assert_paths_agree(seed, hop_delay=hop_delay)


class TestTracing:
    """Trace events (release/first-flit/finish) must line up too."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_traced_run_identical(self, seed):
        _assert_paths_agree(seed, traced=True)

    def test_traced_kill_mode_identical(self):
        _assert_paths_agree(0, traced=True, vc_mode="preempt_kill")


class TestGeneratedCases:
    """The soundness fuzzer's workloads (chains, hotspots, funnels, random
    release phases), which ``repro fuzz`` simulates on the production
    loop alone."""

    def test_fuzz_cases_identical(self):
        presets = set()
        for seed in range(40):
            case = generate_case(seed, GeneratorConfig())
            presets.add(case.preset)
            production, oracle = (
                cls(*case.build(), warmup=0) for cls in PATHS
            )
            fingerprints = [
                stats_fingerprint(sim, sim.simulate_streams(
                    case.sim_time, phases=case.phases()))
                for sim in (production, oracle)
            ]
            assert fingerprints[0] == fingerprints[1], seed
            assert production.now == oracle.now
        assert len(presets) >= 3


class TestMultiClassRoutings:
    """Routings whose deadlock freedom rests on extra VC classes."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_torus_dateline_classes(self, seed):
        torus = Torus((4, 4))
        routing = TorusDimensionOrderRouting(torus)
        assert routing.num_vc_classes == 2
        _assert_paths_agree(seed, network=(torus, routing))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("detour_class", [False, True])
    def test_degraded_mesh(self, seed, detour_class):
        """Four links down: up*/down* over the irregular graph, and X-Y
        with the broken routes detoured into a second VC class."""
        dead = [(1, 2), (5, 9), (10, 11), (6, 7)]
        mesh = Mesh2D(4, 4)
        if detour_class:
            routing = FaultAwareRouting(XYRouting(mesh), dead)
        else:
            routing = UpDownRouting(DegradedTopology(mesh, dead))
        assert routing.num_vc_classes == 1 + detour_class
        _assert_paths_agree(seed, network=(routing.topology, routing))


def _run_link_schedule(sim_cls, seed):
    """Continuous periodic traffic; every 20-80 cycles a link fails, a
    failed one is restored, or the routing is swapped to detour around
    the links down at that moment — so worms die in flight, at injection
    (released onto a dead route before the reroute) and on stale detours.
    Returns ``(sim, log of link ops incl. each failure's victims)``."""
    rng = random.Random(f"link-schedule-{seed}")
    mesh = Mesh2D(4, 4)
    base = XYRouting(mesh)
    routing = FaultAwareRouting(base, [])
    streams = _workload(seed)
    sim = sim_cls(routing.topology, routing, streams, warmup=0)
    pool = links(mesh)
    due = {s.stream_id: 0 for s in streams}
    failed, log, now = [], [], 0
    for _ in range(90):
        until = now + rng.randint(20, 80)
        for s in streams:
            # Paths are fixed at release: schedule only this epoch's.
            while due[s.stream_id] < until:
                try:
                    sim.release_message(s, due[s.stream_id])
                except RoutingError:
                    pass  # pair disconnected under the current routing
                due[s.stream_id] += s.period
        sim.run(until)
        now = until
        roll = rng.random()
        if roll < 0.4:
            sim.set_routing(FaultAwareRouting(base, sorted(failed)))
            log.append(("reroute", tuple(sorted(failed))))
        elif failed and (len(failed) >= 4 or roll < 0.6):
            link = failed.pop(rng.randrange(len(failed)))
            sim.restore_link(*link)
            log.append(("restore", link))
        else:
            link = rng.choice([l for l in pool if l not in failed])
            failed.append(link)
            log.append(("fail", link, tuple(sim.fail_link(*link))))
    sim.run(now + 2000)
    sim.stats.unfinished = len(sim._in_flight)
    return sim, log


class TestLinkFaults:
    """Kills, injection gating and reroutes in the middle of traffic."""

    @pytest.mark.parametrize("seed", (0, 1, 2, 3))
    def test_fail_restore_reroute_schedule(self, seed):
        production, log = _run_link_schedule(WormholeSimulator, seed)
        oracle, oracle_log = _run_link_schedule(RescanSimulator, seed)
        assert production.link_drops > 0
        assert any(entry[0] == "fail" and entry[2] for entry in log)
        assert log == oracle_log
        assert _observables(production, production.stats, None) == \
            _observables(oracle, oracle.stats, None)


class TestDeadlock:
    def test_watchdog_fires_at_the_same_cycle(self, ring_setup):
        """The movable-set loop fast-forwards a wedged network and the
        oracle steps through it; both must give up at the same ``now``."""
        mesh, routing, streams = ring_setup
        clocks = []
        for cls in PATHS:
            sim = cls(mesh, routing, streams, vc_mode="single",
                      vc_capacity=1, watchdog_cycles=500)
            with pytest.raises(DeadlockError):
                sim.simulate_streams(5_000)
            clocks.append((sim.now, sim.total_transfers))
        assert clocks[0] == clocks[1]


#: SHA-256 and length of the ``canonical_lines`` of `_traced_run`. The
#: oracle emits no park/preempt events, so this pins them by value: the
#: same events as on the commit before the rescan loop left ``src/``
#: (839185d), which ordered a worm's two parks of one cycle by memory
#: address; they are now ordered by position, so the bytes repeat across
#: processes and can be pinned at all.
GOLDEN_OBS_TRACE = (
    "c066895da273bde988838f5d7e31fd4f164adeefaec3d356ab8518579dfab135", 1848,
)


def _traced_run(path):
    prev = uninstall()
    tracer = Tracer(sink=path, clock="logical")
    install(tracer)
    try:
        _run(1, sim_cls=WormholeSimulator, vc_mode="preempt_kill",
             hop_delay=2, until=1500)
    finally:
        uninstall()
        tracer.close()
        if prev is not None:
            install(prev)
    assert active() is prev
    return canonical_lines(path)


def test_obs_trace_of_the_cycle_body_is_unchanged(tmp_path):
    lines = _traced_run(tmp_path / "sim.jsonl")
    names = {line.split('"name":"')[1].split('"')[0] for line in lines}
    assert {"sim.vc_wait", "sim.preempt", "sim.kill",
            "sim.clock_jump"} <= names
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (digest, len(lines)) == GOLDEN_OBS_TRACE
