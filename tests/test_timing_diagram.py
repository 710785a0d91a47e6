"""Unit tests for timing diagrams (repro.core.timing_diagram).

The central fixture is the paper's Fig. 4 example: three higher-priority
streams M1 (T=10, C=2), M2 (T=15, C=3), M3 (T=13, C=4) all directly blocking
a stream whose network latency is 6; the paper reads U = 26 off the diagram.
"""

import numpy as np
import pytest

from repro.core.streams import MessageStream
from repro.core.timing_diagram import (
    CellState,
    TimingDiagram,
    generate_init_diagram,
)
from repro.errors import AnalysisError
from tests.reference import cell_state


def _slots(bits):
    """Ascending slot indices of a row bitset."""
    return [t for t in range(bits.bit_length()) if bits >> t & 1]


def ms(i, priority, period, length, src=0, dst=1):
    return MessageStream(i, src, dst, priority=priority, period=period,
                         length=length, deadline=period)


@pytest.fixture()
def fig4_rows():
    return (
        ms(1, priority=3, period=10, length=2),
        ms(2, priority=2, period=15, length=3),
        ms(3, priority=1, period=13, length=4),
    )


class TestFig4Diagram:
    def test_paper_u26(self, fig4_rows):
        d = generate_init_diagram(4, fig4_rows, dtime=40)
        assert d.upper_bound(6) == 26

    def test_allocations_match_hand_execution(self, fig4_rows):
        d = generate_init_diagram(4, fig4_rows, dtime=40)
        alloc = {
            sid: tuple(
                t for inst in insts for t in inst.allocated
            )
            for sid, insts in d.instances.items()
        }
        assert alloc[1] == (1, 2, 11, 12, 21, 22, 31, 32)
        assert alloc[2] == (3, 4, 5, 16, 17, 18, 33, 34, 35)
        # M3's second instance is split around M2's: 14,15 then 19,20. Its
        # fourth instance (released at 39) is truncated by the horizon and
        # only grabs slot 40.
        assert alloc[3] == (6, 7, 8, 9, 14, 15, 19, 20, 27, 28, 29, 30, 40)
        assert not d.instances[3][3].satisfied

    def test_free_slots(self, fig4_rows):
        d = generate_init_diagram(4, fig4_rows, dtime=30)
        assert _slots(d.free_bits()) == [10, 13, 23, 24, 25, 26]

    def test_waiting_marks(self, fig4_rows):
        d = generate_init_diagram(4, fig4_rows, dtime=30)
        # M2 is preempted by M1 during slots 1-2 of its first instance.
        assert cell_state(d, d.row_of(2), 1) is CellState.WAITING
        assert cell_state(d, d.row_of(2), 2) is CellState.WAITING
        assert cell_state(d, d.row_of(2), 3) is CellState.ALLOCATED
        # M3 waits through slots 1-5 before allocating 6-9.
        r3 = d.row_of(3)
        for t in range(1, 6):
            assert cell_state(d, r3, t) is CellState.WAITING
        assert cell_state(d, r3, 6) is CellState.ALLOCATED

    def test_result_row_states(self, fig4_rows):
        d = generate_init_diagram(4, fig4_rows, dtime=30)
        res = d.num_rows
        assert cell_state(d, res, 10) is CellState.FREE
        assert cell_state(d, res, 1) is CellState.BUSY
        assert cell_state(d, res, 6) is CellState.BUSY


class TestDiagramBasics:
    def test_empty_rows_all_free(self):
        d = generate_init_diagram(0, (), dtime=20)
        assert d.num_free_slots() == 20
        assert d.upper_bound(5) == 5
        assert d.upper_bound(20) == 20
        assert d.upper_bound(21) == -1

    def test_single_row_periodic_pattern(self):
        d = generate_init_diagram(9, (ms(0, 1, period=10, length=3),), dtime=25)
        alloc = d.instances[0]
        assert [inst.allocated for inst in alloc] == [
            (1, 2, 3), (11, 12, 13), (21, 22, 23),
        ]
        assert all(inst.satisfied for inst in alloc)
        assert _slots(d.free_bits()) == [4, 5, 6, 7, 8, 9, 10,
                                        14, 15, 16, 17, 18, 19, 20, 24, 25]

    def test_unsatisfied_instance_detected(self):
        # Higher-priority stream saturates the window: C=8 every T=10 leaves
        # only 2 free slots per window for a C=5 lower stream.
        rows = (ms(0, 2, period=10, length=8), ms(1, 1, period=10, length=5))
        d = generate_init_diagram(9, rows, dtime=20)
        unsat = [inst for lst in d.instances.values() for inst in lst
                 if not inst.satisfied]
        assert {u.stream_id for u in unsat} == {1}
        assert all(not u.satisfied for u in unsat)

    def test_removed_instances_skipped(self):
        rows = (ms(0, 1, period=10, length=3),)
        d = generate_init_diagram(9, rows, dtime=30, removed={0: {1}})
        releases = [inst.index for inst in d.instances[0]]
        assert releases == [0, 2]
        # Slots 11-13 stay free.
        assert cell_state(d, d.num_rows, 11) is CellState.FREE

    def test_window_confinement(self):
        """An instance may not spill past its own period window even when
        earlier slots are all busy."""
        rows = (ms(0, 2, period=6, length=5), ms(1, 1, period=6, length=4))
        d = generate_init_diagram(9, rows, dtime=12)
        first = d.instances[1][0]
        # Only slot 6 is free inside window (0, 6] for stream 1.
        assert first.allocated == (6,)
        assert not first.satisfied

    def test_upper_bound_latency_validation(self):
        d = generate_init_diagram(0, (), dtime=5)
        with pytest.raises(AnalysisError):
            d.upper_bound(0)

    def test_bad_dtime(self):
        with pytest.raises(AnalysisError):
            generate_init_diagram(0, (), dtime=0)

    def test_rows_must_be_priority_sorted(self):
        rows = (ms(0, 1, period=10, length=2), ms(1, 2, period=10, length=2))
        with pytest.raises(AnalysisError):
            generate_init_diagram(9, rows, dtime=10)

    def test_tie_rows_sorted_by_id(self):
        ok = (ms(0, 2, period=10, length=2), ms(1, 2, period=10, length=2))
        generate_init_diagram(9, ok, dtime=10)
        bad = (ms(1, 2, period=10, length=2), ms(0, 2, period=10, length=2))
        with pytest.raises(AnalysisError):
            generate_init_diagram(9, bad, dtime=10)

    def test_duplicate_rows_rejected(self):
        rows = (ms(0, 1, period=10, length=2), ms(0, 1, period=10, length=2))
        with pytest.raises(AnalysisError):
            generate_init_diagram(9, rows, dtime=10)

    def test_state_bounds_checked(self):
        d = generate_init_diagram(9, (ms(0, 1, period=5, length=1),), dtime=10)
        with pytest.raises(AnalysisError):
            cell_state(d, 0, 0)
        with pytest.raises(AnalysisError):
            cell_state(d, 0, 11)
        with pytest.raises(AnalysisError):
            cell_state(d, 5, 3)

    def test_row_of_unknown_stream(self):
        d = generate_init_diagram(9, (ms(0, 1, period=5, length=1),), dtime=10)
        with pytest.raises(AnalysisError):
            d.row_of(42)


class TestToGrid:
    def test_grid_matches_state(self, fig4_rows):
        d = generate_init_diagram(4, fig4_rows, dtime=30)
        grid = d.to_grid()
        assert grid.shape == (4, 31)
        for row in range(d.num_rows + 1):
            for t in range(1, 31):
                assert grid[row, t] == cell_state(d, row, t)

    def test_grid_dtype_compact(self, fig4_rows):
        d = generate_init_diagram(4, fig4_rows, dtime=30)
        assert d.to_grid().dtype == np.int8


class TestCriticalInstantProperties:
    def test_result_busy_is_union_of_allocations(self, fig4_rows):
        d = generate_init_diagram(4, fig4_rows, dtime=40)
        union = np.zeros(41, dtype=bool)
        for row in range(d.num_rows):
            union |= d.allocated[row]
        assert _slots(d.busy_bits()) == list(np.flatnonzero(union))

    def test_rows_never_allocate_same_slot(self, fig4_rows):
        d = generate_init_diagram(4, fig4_rows, dtime=40)
        total = d.allocated[:, 1:].sum(axis=0)
        assert total.max() <= 1

    def test_satisfied_instances_allocate_exactly_c(self, fig4_rows):
        d = generate_init_diagram(4, fig4_rows, dtime=40)
        for s in fig4_rows:
            for inst in d.instances[s.stream_id]:
                if inst.satisfied:
                    assert len(inst.allocated) == s.length
                window_lo = inst.release + 1
                window_hi = min(inst.release + s.period, 40)
                for t in inst.occupied():
                    assert window_lo <= t <= window_hi
