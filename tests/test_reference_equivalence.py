"""Equivalence of the vectorised timing-diagram against the paper's
literal pseudocode (tests/reference/diagram.py), over hypothesis-generated inputs.

This is the strongest internal check of the reproduction's core data
structure: two independently written implementations — one transcribed
cell by cell from the paper's ``Generate_Init_Diagram``, one vectorised
with cumulative-sum ranking — must produce bit-identical grids for every
stream set, horizon, and removed-instance set.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.streams import MessageStream
from repro.core.timing_diagram import generate_init_diagram
from tests.reference import generate_init_diagram_reference


@st.composite
def diagram_cases(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    rows = []
    for i in range(n):
        rows.append(MessageStream(
            stream_id=i, src=0, dst=1,
            priority=n - i,  # strictly decreasing
            period=draw(st.integers(2, 30)),
            length=draw(st.integers(1, 12)),
            deadline=100,
        ))
    dtime = draw(st.integers(1, 150))
    removed = {}
    for s in rows:
        if draw(st.booleans()):
            max_inst = dtime // s.period + 1
            removed[s.stream_id] = set(draw(st.lists(
                st.integers(0, max_inst), max_size=3
            )))
    return tuple(rows), dtime, removed


class TestEquivalence:
    @given(case=diagram_cases())
    @settings(max_examples=200, deadline=None)
    def test_grids_identical(self, case):
        rows, dtime, removed = case
        fast = generate_init_diagram(99, rows, dtime, removed=removed)
        slow = generate_init_diagram_reference(rows, dtime, removed)
        assert np.array_equal(fast.to_grid(), slow)

    def test_paper_fig4_grid(self):
        """Spot check on the Fig. 4 streams."""
        rows = (
            MessageStream(1, 0, 1, priority=3, period=10, length=2,
                          deadline=10),
            MessageStream(2, 0, 1, priority=2, period=15, length=3,
                          deadline=15),
            MessageStream(3, 0, 1, priority=1, period=13, length=4,
                          deadline=13),
        )
        fast = generate_init_diagram(4, rows, 40)
        slow = generate_init_diagram_reference(rows, 40)
        assert np.array_equal(fast.to_grid(), slow)

    @given(case=diagram_cases())
    @settings(max_examples=100, deadline=None)
    def test_instance_records_match_grid(self, case):
        """Instance records must restate exactly the grid's ALLOCATED and
        WAITING cells of their row."""
        rows, dtime, removed = case
        d = generate_init_diagram(99, rows, dtime, removed=removed)
        for row, stream in enumerate(d.row_streams):
            alloc = set()
            wait = set()
            for inst in d.instances[stream.stream_id]:
                alloc.update(inst.allocated)
                wait.update(inst.waiting)
            assert alloc == set(np.flatnonzero(d.allocated[row]).tolist())
            assert wait == set(np.flatnonzero(d.waiting[row]).tolist())


@st.composite
def modify_cases(draw):
    """Random stream sets with synthetic channel structure rich enough to
    produce indirect blocking chains."""
    from repro.core.hpset import build_all_hp_sets, direct_blockers
    from repro.core.streams import StreamSet

    n = draw(st.integers(min_value=2, max_value=6))
    streams = StreamSet()
    channels = {}
    n_links = draw(st.integers(1, 5))
    for i in range(n):
        streams.add(MessageStream(
            stream_id=i, src=0, dst=1,
            priority=draw(st.integers(1, 4)),
            period=draw(st.integers(5, 40)),
            length=draw(st.integers(1, 8)),
            deadline=draw(st.integers(20, 120)),
        ))
        links = draw(st.sets(st.integers(0, n_links - 1), min_size=1,
                             max_size=n_links))
        channels[i] = frozenset(("l", x) for x in links)
    blockers = direct_blockers(streams, channels)
    hps = build_all_hp_sets(streams, channels=channels)
    return streams, blockers, hps


class TestModifyEquivalence:
    @given(case=modify_cases())
    @settings(max_examples=120, deadline=None)
    def test_modify_matches_reference(self, case):
        from repro.core.modify import modify_diagram
        from tests.reference.diagram import (
            _grid_upper_bound,
            modify_diagram_reference,
        )

        streams, blockers, hps = case
        for owner in streams:
            hp = hps[owner.stream_id]
            if not hp.indirect_ids():
                continue
            dtime = owner.deadline
            fast_diag, fast_removed = modify_diagram(
                owner, hp, streams, blockers, dtime
            )
            slow_grid, slow_removed = modify_diagram_reference(
                owner, hp, streams, blockers, dtime
            )
            assert fast_removed == slow_removed
            assert np.array_equal(fast_diag.to_grid(), slow_grid)
            assert owner.latency is None or fast_diag.upper_bound(
                owner.latency
            ) == _grid_upper_bound(slow_grid, owner.latency, dtime)
