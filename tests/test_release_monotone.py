"""A release never raises a remaining stream's bound.

The served engine never re-checks feasibility after a release:
``release`` is ``retire`` plus a settle that recomputes the verdicts
whose closure reached a removed stream, and nothing looks at the report
afterwards. That is safe only if removing a stream can neither raise
another stream's delay bound nor leave it unbounded. Bounds depend on
the order of the analysis (finding F-5), so this is not obvious: it is
checked here on random feasible sets, one release at a time, under every
registered backend, through the engine that serves it. Each released
stream is then admitted again, which must succeed and bring every bound
back, because the set is the feasible one it started from.

The served engine counts a release whose settle raises a bound anyway
(``release_raised_bound``) and the fuzz oracle checks the same property
(``release-monotonicity``): a bound patched upward trips both, and the
bench spine's three schedules, replayed through ``EngineHost``, read 0.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import backends, feasibility
from repro.core.streams import MessageStream
from repro.fuzz.generator import FuzzCase, FuzzStream
from repro.fuzz.oracle import run_case
from repro.service.engine import IncrementalAdmissionEngine
from repro.topology import Mesh2D, XYRouting
from tests.test_import_cost import child_env

ROUTING = XYRouting(Mesh2D(6, 6))

#: ``(C range, T range)`` of the two regimes: short messages at short
#: periods, and long ones at long periods (``D = T`` in both).
REGIMES = (((4, 10), (40, 100)), ((10, 20), (100, 160)))


def random_set(seed):
    """5-10 streams on 1-4 priority levels, in one regime."""
    rng = random.Random(f"release-monotone-{seed}")
    length, period = REGIMES[seed % len(REGIMES)]
    levels = rng.randint(1, 4)
    streams = []
    for sid in range(rng.randint(5, 10)):
        src, dst = rng.sample(range(ROUTING.topology.num_nodes), 2)
        t = rng.randint(*period)
        streams.append(MessageStream(sid, src, dst, rng.randint(1, levels),
                                     t, rng.randint(*length), t))
    return streams


def bounds(engine):
    return {sid: engine.verdict(sid).upper_bound
            for sid in engine.admitted.ids()}


def check_set(seed, backend):
    """Release each stream of the seed's set in turn (if the backend
    admits the set); return how many bounds were compared."""
    streams = random_set(seed)
    engine = IncrementalAdmissionEngine(ROUTING, analysis=backend)
    if not engine.try_admit(streams).admitted:
        return 0
    full = bounds(engine)
    compared = 0
    for stream in streams:
        engine.release(stream.stream_id)
        for sid, bound in bounds(engine).items():
            assert 0 <= bound <= full[sid], (
                f"seed {seed}, {backend}: releasing {stream.stream_id} "
                f"moved the bound of {sid} from {full[sid]} to {bound}")
            compared += 1
        assert engine.try_admit(stream).admitted
        assert bounds(engine) == full
    return compared


def test_a_release_never_raises_a_bound():
    compared = sum(check_set(seed, backend)
                   for seed in range(100) for backend in backends.names())
    assert compared > 10000


@pytest.mark.slow
def test_a_release_never_raises_a_bound_over_1400_sets():
    compared = sum(check_set(seed, backend)
                   for seed in range(100, 1500)
                   for backend in backends.names())
    assert compared > 150000


def convoy_case():
    """Three equal-priority streams into one node of a 4x2 mesh: each
    blocks the other two directly, so every closure holds two members,
    and one release leaves one."""
    return FuzzCase(width=4, height=2, sim_time=400, residency_margin=0,
                    streams=tuple(
                        FuzzStream(sid, (sid, 0), (3, 0), priority=1,
                                   period=100, length=4, deadline=100)
                        for sid in range(3)))


def raise_small_closures(monkeypatch):
    """Add 1000 slots to every bound computed over a closure of fewer
    than two members: a stand-in for an analysis whose bounds rise when
    a stream leaves."""
    search = feasibility.search_bound

    def raised(plan, limit, **kwargs):
        u, removed = search(plan, limit, **kwargs)
        return (u + 1000 if u > 0 and len(plan.rows) < 2 else u), removed

    monkeypatch.setattr(feasibility, "search_bound", raised)


def test_a_raised_bound_fires_the_counter_and_the_oracle(monkeypatch):
    case = convoy_case()
    _, routing, streams = case.build()
    engine = IncrementalAdmissionEngine(routing, analysis="kim98")
    assert engine.try_admit(list(streams)).admitted
    assert run_case(case).kinds() == ()
    raise_small_closures(monkeypatch)
    engine.release(0)
    assert engine.stats.release_raised_bound == 2
    assert engine.stats.to_dict()["release_raised_bound"] == 2
    violations = [v for v in run_case(case).violations
                  if v.kind == "release-monotonicity"]
    # Three releases under each registered backend, two raised each.
    assert len(violations) == 6 * len(backends.names())
    assert {v.backend for v in violations} == set(backends.names())


#: Replays each workload's schedule at seed 0 (preload, both laps)
#: through bare hosts and prints every host's counter.
SPINE_REPLAY = """
import json, sys
sys.path[:0] = [sys.argv[1]]
import workloads as wl
from repro.service.host import EngineHost
out = {}
for name in ("broker_sparse", "broker_dense", "gateway_trace"):
    plan = wl.build_schedule(wl.WORKLOADS[name], 0, 1.0)
    hosts = [EngineHost(plan.topology) for _ in range(plan.tenants)]
    for op in plan.all_ops():
        hosts[op.conn].handle_request(op.request())
    out[name] = [h.engine_stats()["release_raised_bound"] for h in hosts]
print(json.dumps(out))
"""


def test_the_spine_schedules_raise_no_bound():
    spine = Path(__file__).resolve().parents[1] / "benchmarks" / "spine"
    done = subprocess.run(
        [sys.executable, "-c", SPINE_REPLAY, str(spine)], env=child_env(),
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "broker_sparse": [0], "broker_dense": [0], "gateway_trace": [0, 0]}
