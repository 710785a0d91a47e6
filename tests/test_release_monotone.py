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
"""

import random

import pytest

from repro.core import backends
from repro.core.streams import MessageStream
from repro.service.engine import IncrementalAdmissionEngine
from repro.topology import Mesh2D, XYRouting

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
