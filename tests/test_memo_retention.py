"""Engine memory is bounded by the live set, not by uptime.

A verdict-memo key names every stream of the closure it was computed
for, and ids are never reused, so a key that names a released stream (or
a rejected trial's) cannot hit again; the engine sweeps such keys once
the memo has doubled since the last sweep. Route tables are shared
through a weak registry: a table outlives its network only while an
engine routes on it or a memo key names it. So an engine that churns
around a steady live set and keeps failing and restoring links levels
off, and hits the memo exactly as often as when the memo kept every
entry.

What stays between laps is the live set's, plus what the memo holds
until its next sweep and the tables of earlier faults that a live key
still names (about 60 KiB each on this mesh, one to four of them at a
time): it comes and goes from lap to lap, by up to 2x, without a trend.
The tier-1 run compares lap 10 with lap 2 of one seed (deterministic);
the nightly sweep compares the mean of the last 50 laps of a hundred
with that of the first 50, where the engine that kept everything read
2.8x.
"""

import gc
import random
import statistics
import tracemalloc

import pytest

from repro.obs import trace
from repro.service.host import EngineHost
from repro.topology import normalize_link
from tests.conftest import clear_shared_route_tables
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
    stream = host.engine.admitted[rng.choice(host.admitted_ids())]
    link = list(normalize_link(*rng.choice(
        host.routing.route_channels(stream.src, stream.dst))))
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


def run(seed, laps, checkpoints):
    """Warm every base route, admit ``LIVE`` streams, drive ``laps``
    laps; return the bytes retained after each lap in ``checkpoints``
    and the memo hits."""
    clear_shared_route_tables()
    rng = random.Random(f"memo-retention-{seed}")
    host = EngineHost(SPEC)
    nodes = host.topology.num_nodes
    for src in range(nodes):
        for dst in range(nodes):
            host.engine._route_table.lookup(src, dst)
    while host.admitted_count() < LIVE:
        admit(host, rng)
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
    return retained, host.engine.stats.verdict_memo_hits


def test_retained_memory_levels_off_under_churn_and_link_faults(untraced):
    retained, hits = run(0, 10, {2, 10})
    assert retained[10] <= GROWTH_CEILING * retained[2], retained
    assert hits == HITS_SEED0


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(1, 5))
def test_retained_memory_levels_off_over_a_hundred_laps(untraced, seed):
    retained, _ = run(seed, 100, set(range(1, 101)))
    early = statistics.mean(retained[n] for n in range(1, 51))
    late = statistics.mean(retained[n] for n in range(51, 101))
    assert late <= GROWTH_CEILING * early, (early, late)
