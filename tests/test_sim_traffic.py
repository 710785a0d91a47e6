"""Unit tests for workload generation (repro.sim.traffic)."""

import pytest

from repro.errors import SimulationError
from repro.sim.traffic import PaperWorkload, random_phases
from repro.topology import Mesh2D


@pytest.fixture(scope="module")
def mesh():
    return Mesh2D(10, 10)


class TestPaperWorkload:
    def test_paper_defaults(self, mesh):
        wl = PaperWorkload(num_streams=20, priority_levels=4, seed=0)
        streams = wl.generate(mesh)
        assert len(streams) == 20
        for s in streams:
            assert 10 <= s.length <= 40
            assert 400 <= s.period <= 900
            assert 1 <= s.priority <= 4
            assert s.deadline == s.period
            assert s.src != s.dst

    def test_sources_distinct(self, mesh):
        wl = PaperWorkload(num_streams=60, priority_levels=15, seed=1)
        streams = wl.generate(mesh)
        sources = [s.src for s in streams]
        assert len(set(sources)) == 60

    def test_too_many_streams_rejected(self, mesh):
        wl = PaperWorkload(num_streams=101, priority_levels=1)
        with pytest.raises(SimulationError):
            wl.generate(mesh)

    def test_seed_reproducible(self, mesh):
        a = PaperWorkload(20, 4, seed=7).generate(mesh)
        b = PaperWorkload(20, 4, seed=7).generate(mesh)
        assert list(a) == list(b)

    def test_different_seeds_differ(self, mesh):
        a = PaperWorkload(20, 4, seed=7).generate(mesh)
        b = PaperWorkload(20, 4, seed=8).generate(mesh)
        assert list(a) != list(b)

    def test_all_priority_levels_reachable(self, mesh):
        wl = PaperWorkload(num_streams=100, priority_levels=5, seed=3)
        streams = wl.generate(mesh)
        assert {s.priority for s in streams} == {1, 2, 3, 4, 5}

    def test_custom_ranges(self, mesh):
        wl = PaperWorkload(
            num_streams=10, priority_levels=2,
            length_range=(3, 3), period_range=(50, 60),
            deadline_factor=2.0, seed=0,
        )
        for s in wl.generate(mesh):
            assert s.length == 3
            assert 50 <= s.period <= 60
            assert s.deadline == 2 * s.period

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_streams": 0, "priority_levels": 1},
            {"num_streams": 5, "priority_levels": 0},
            {"num_streams": 5, "priority_levels": 1, "length_range": (0, 5)},
            {"num_streams": 5, "priority_levels": 1, "length_range": (5, 2)},
            {"num_streams": 5, "priority_levels": 1, "period_range": (9, 3)},
            {"num_streams": 5, "priority_levels": 1, "deadline_factor": 0},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(SimulationError):
            PaperWorkload(**kwargs)


class TestPhases:
    def test_random_phases_within_period(self, mesh):
        streams = PaperWorkload(20, 1, seed=0).generate(mesh)
        phases = random_phases(streams, seed=5)
        for s in streams:
            assert 0 <= phases[s.stream_id] < s.period

    def test_random_phases_reproducible(self, mesh):
        streams = PaperWorkload(20, 1, seed=0).generate(mesh)
        assert random_phases(streams, seed=5) == random_phases(streams, seed=5)
