"""Engine memory is bounded by the live set, not by uptime.

A verdict-memo key names every stream of the closure it was computed
for, and ids are never reused, so a key that names a released stream (or
a rejected trial's) cannot hit again; the engine sweeps such keys once
the memo has doubled since the last sweep. A key names its routing by
value, by signatures, so it holds no network: a link fault's routing,
path memo and degraded topology go with the fault. So an engine that
churns around a steady live set and keeps failing and restoring links
levels off, and hits the memo exactly as often as when the memo kept
every entry; and nothing of a dropped engine reaches the next one, so
what the next one counts does not depend on when the cyclic collector
runs.

What stays between laps is the live set's, plus what the memo holds
until its next sweep: it comes and goes from lap to lap, by up to 1.6x
(122-189 KiB over laps 2-40 of seeds 5 and 6), without a trend.
The tier-1 run compares lap 10 with lap 2 of one seed (deterministic);
the nightly sweep compares the mean of the last 50 laps of a hundred
with that of the first 50, where the engine that kept everything read
2.8x.
"""

import gc
import random
import statistics
import tracemalloc
import weakref

import pytest

from repro.obs import trace
from repro.service.host import EngineHost
from repro.topology import FaultAwareRouting, normalize_link
from tests.test_replay_settle import ask, rand_spec

SPEC = {"type": "mesh", "width": 10, "height": 10, "routing": "default"}
LIVE = 30
LAP_OPS = 60

#: Memo hits of the tier-1 schedule (seed 0, ten laps), recorded on the
#: engine that kept every entry up to a fixed cap: the sweep loses none.
HITS_SEED0 = 141

#: Retained bytes late over retained bytes early. The engine that kept
#: every memo entry and every route table read 3.9 on the tier-1 run.
GROWTH_CEILING = 1.25


def admit(host, rng):
    ask(host, {"op": "admit", "analysis": "kim98",
               "streams": [rand_spec(rng, host.topology.num_nodes,
                                     period=(300, 900), length=(1, 4))]})


def used_link(host, rng):
    """A link on the route of a live stream."""
    stream = host.engine.admitted[rng.choice(host.admitted_ids())]
    return list(normalize_link(*rng.choice(
        host.routing.route_channels(stream.src, stream.dst))))


def lap(host, rng):
    """``LAP_OPS`` ops that keep ``LIVE`` streams admitted (an admit
    below it, a release at it), then one link a live stream uses fails
    and is restored."""
    for _ in range(LAP_OPS):
        live = host.admitted_ids()
        if len(live) < LIVE:
            admit(host, rng)
        else:
            ask(host, {"op": "release", "ids": [rng.choice(live)]})
    link = used_link(host, rng)
    ask(host, {"op": "fail_link", "link": link})
    ask(host, {"op": "restore_link", "link": link})


@pytest.fixture()
def untraced():
    """The tracer's ring buffer fills with every op up to its own cap;
    these tests measure the engine, so they run without it."""
    previous = trace.uninstall()
    yield
    if previous is not None:
        trace.install(previous)


def warm_host(seed):
    """A host whose routing memoised every base route, with ``LIVE``
    streams admitted, and the schedule's random source."""
    rng = random.Random(f"memo-retention-{seed}")
    host = EngineHost(SPEC)
    nodes = host.topology.num_nodes
    for src in range(nodes):
        for dst in range(nodes):
            host.engine.routing.route(src, dst)
    while host.admitted_count() < LIVE:
        admit(host, rng)
    return host, rng


def run(seed, laps, checkpoints=()):
    """Drive ``laps`` laps on a warm host; return the bytes retained
    after each lap in ``checkpoints`` and the host."""
    host, rng = warm_host(seed)
    retained = {}
    tracemalloc.start()
    try:
        for done in range(1, laps + 1):
            lap(host, rng)
            if done in checkpoints:
                gc.collect()
                retained[done] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return retained, host


def test_retained_memory_levels_off_under_churn_and_link_faults(untraced):
    retained, host = run(0, 10, {2, 10})
    assert retained[10] <= GROWTH_CEILING * retained[2], retained
    assert host.engine.stats.verdict_memo_hits == HITS_SEED0


def test_a_restored_fault_leaves_no_network_behind(untraced):
    """A memo key names its routing by value: the keys made under a
    link fault outlive the fault, its network does not."""
    host, rng = warm_host(0)
    link = used_link(host, rng)
    before = set(host.engine._verdict_memo)
    ask(host, {"op": "fail_link", "link": link})
    fault = weakref.ref(host.engine.routing)
    assert isinstance(fault(), FaultAwareRouting)
    made = set(host.engine._verdict_memo) - before
    ask(host, {"op": "restore_link", "link": link})
    assert made & host.engine._verdict_memo.keys()
    gc.collect()
    assert fault() is None


def second_host_stats(collect):
    """The engine stats, bar timings, of a host driven after another
    host was driven and dropped, with the cyclic collector run in
    between or not at all."""
    gc.collect()
    gc.disable()
    try:
        run(5, 10)
        if collect:
            gc.collect()
        _, host = run(6, 10)
    finally:
        gc.enable()
    return {key: value for key, value in host.engine_stats().items()
            if not key.endswith("_seconds")}


def test_a_hosts_counters_do_not_depend_on_the_collector(untraced):
    """Nothing of a dropped host reaches the next one, whether or not
    the collector has reclaimed it yet."""
    assert second_host_stats(collect=False) == \
        second_host_stats(collect=True)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(1, 5))
def test_retained_memory_levels_off_over_a_hundred_laps(untraced, seed):
    retained, _ = run(seed, 100, set(range(1, 101)))
    early = statistics.mean(retained[n] for n in range(1, 51))
    late = statistics.mean(retained[n] for n in range(51, 101))
    assert late <= GROWTH_CEILING * early, (early, late)
