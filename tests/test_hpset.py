"""Unit tests for HP-set construction (repro.core.hpset)."""

import pytest

from repro.core.hpset import (
    BlockingMode,
    HPEntry,
    HPSet,
    build_all_hp_sets,
    stream_channels,
)
from repro.core.streams import MessageStream, StreamSet
from repro.errors import AnalysisError
from tests.reference.hpset import direct_blockers


def ms(i, priority, src=0, dst=1, period=100, length=10):
    return MessageStream(i, src, dst, priority=priority, period=period,
                         length=length, deadline=period)


class TestHPEntry:
    def test_direct_entry(self):
        e = HPEntry.direct(3)
        assert e.is_direct and not e.is_indirect
        assert e.intermediates == frozenset()

    def test_indirect_entry(self):
        e = HPEntry.indirect(3, [1, 2])
        assert e.is_indirect
        assert e.intermediates == frozenset({1, 2})

    def test_direct_with_intermediates_rejected(self):
        with pytest.raises(AnalysisError):
            HPEntry(3, BlockingMode.DIRECT, frozenset({1}))

    def test_indirect_without_intermediates_rejected(self):
        with pytest.raises(AnalysisError):
            HPEntry(3, BlockingMode.INDIRECT, frozenset())


class TestHPSet:
    def test_membership_and_order(self):
        hp = HPSet(9, [HPEntry.direct(5), HPEntry.direct(2)])
        assert [e.stream_id for e in hp] == [2, 5]
        assert 5 in hp and 7 not in hp
        assert hp.ids() == (2, 5)

    def test_duplicate_rejected(self):
        hp = HPSet(9, [HPEntry.direct(5)])
        with pytest.raises(AnalysisError):
            hp.add(HPEntry.direct(5))

    def test_missing_lookup(self):
        hp = HPSet(9)
        with pytest.raises(AnalysisError):
            hp[1]

    def test_direct_indirect_split(self):
        hp = HPSet(9, [HPEntry.direct(5), HPEntry.indirect(2, [5])])
        assert hp.direct_ids() == (5,)
        assert hp.indirect_ids() == (2,)

    def test_without_self(self):
        hp = HPSet(9, [HPEntry.direct(9), HPEntry.direct(5)])
        stripped = hp.without_self()
        assert stripped.ids() == (5,)
        assert hp.ids() == (5, 9)  # original untouched

    def test_equality(self):
        a = HPSet(1, [HPEntry.direct(2)])
        b = HPSet(1, [HPEntry.direct(2)])
        c = HPSet(1, [HPEntry.direct(3)])
        assert a == b and a != c


class TestDirectBlockers:
    def test_overlap_and_priority(self):
        # channel sets: 0 and 1 overlap; 2 is disjoint.
        streams = StreamSet([ms(0, priority=1), ms(1, priority=2),
                             ms(2, priority=3)])
        channels = {
            0: frozenset({(0, 1), (1, 2)}),
            1: frozenset({(1, 2), (2, 3)}),
            2: frozenset({(8, 9)}),
        }
        b = direct_blockers(streams, channels)
        assert b[0] == (1,)   # higher priority, overlapping
        assert b[1] == ()     # stream 0 is lower priority
        assert b[2] == ()

    def test_equal_priority_mutual(self):
        streams = StreamSet([ms(0, priority=2), ms(1, priority=2)])
        channels = {0: frozenset({(0, 1)}), 1: frozenset({(0, 1)})}
        b = direct_blockers(streams, channels)
        assert b[0] == (1,) and b[1] == (0,)

    def test_no_self_blocking(self):
        streams = StreamSet([ms(0, priority=1)])
        b = direct_blockers(streams, {0: frozenset({(0, 1)})})
        assert b[0] == ()


class TestFig3Example:
    """The paper's Fig. 3: A (P1), B and C (P2, mutually influential),
    D (P3) blocking both B and C; D reaches A only indirectly."""

    @pytest.fixture()
    def fig3(self):
        streams = StreamSet([
            ms(0, priority=1),   # A
            ms(1, priority=2),   # B
            ms(2, priority=2),   # C
            ms(3, priority=3),   # D
        ])
        channels = {
            0: frozenset({("a", 1), ("a", 2)}),   # A overlaps B and C
            1: frozenset({("a", 1), ("bc", 0), ("d", 1)}),
            2: frozenset({("a", 2), ("bc", 0), ("d", 2)}),
            3: frozenset({("d", 1), ("d", 2)}),   # D overlaps B and C only
        }
        return build_all_hp_sets(streams, channels=channels)

    def test_hp_d_empty(self, fig3):
        assert len(fig3[3]) == 0

    def test_b_and_c_mutual_plus_d(self, fig3):
        assert fig3[1].ids() == (2, 3)
        assert fig3[1][2].is_direct and fig3[1][3].is_direct
        assert fig3[2].ids() == (1, 3)

    def test_a_has_indirect_d_via_b_and_c(self, fig3):
        hp_a = fig3[0]
        assert hp_a.direct_ids() == (1, 2)
        assert hp_a.indirect_ids() == (3,)
        assert hp_a[3].intermediates == frozenset({1, 2})


class TestPaperExampleHPSets:
    def test_computed_hp_sets(self, paper_streams, xy10):
        hps = build_all_hp_sets(paper_streams, xy10)
        assert hps[0].ids() == ()
        assert hps[1].ids() == ()
        assert hps[2].ids() == (0, 1)
        assert hps[2].direct_ids() == (0, 1)
        # Known paper inconsistency: the printed coordinates make M2's route
        # overlap M3's, so the overlap rule adds M2 (and M0 indirectly via
        # it) to HP_3, while the paper prints HP_3 = {M1}.
        assert hps[3].direct_ids() == (1, 2)
        assert hps[3].indirect_ids() == (0,)
        assert hps[3][0].intermediates == frozenset({2})
        assert hps[4].direct_ids() == (2, 3)
        assert hps[4].indirect_ids() == (0, 1)
        assert hps[4][1].intermediates == frozenset({2, 3})

    def test_stream_channels_match_routes(self, paper_streams, xy10):
        chans = stream_channels(paper_streams, xy10)
        for s in paper_streams:
            assert chans[s.stream_id] == frozenset(
                xy10.route_channels(s.src, s.dst)
            )
            assert len(chans[s.stream_id]) == xy10.hop_count(s.src, s.dst)


class TestBuildAllValidation:
    def test_requires_exactly_one_source(self, paper_streams, xy10):
        with pytest.raises(AnalysisError):
            build_all_hp_sets(paper_streams)
        with pytest.raises(AnalysisError):
            build_all_hp_sets(paper_streams, xy10, channels={})

    def test_missing_channel_set(self):
        streams = StreamSet([ms(0, priority=1), ms(1, priority=2)])
        with pytest.raises(AnalysisError):
            build_all_hp_sets(streams, channels={0: frozenset({(0, 1)})})

    def test_chain_of_three(self):
        """j <- a <- b <- k: k is indirect with both a and b intermediate."""
        streams = StreamSet([ms(0, priority=1), ms(1, priority=2),
                             ms(2, priority=3), ms(3, priority=4)])
        channels = {
            0: frozenset({("l", 0)}),
            1: frozenset({("l", 0), ("l", 1)}),
            2: frozenset({("l", 1), ("l", 2)}),
            3: frozenset({("l", 2)}),
        }
        hps = build_all_hp_sets(streams, channels=channels)
        hp0 = hps[0]
        assert hp0.direct_ids() == (1,)
        assert hp0.indirect_ids() == (2, 3)
        assert hp0[2].intermediates == frozenset({1})
        assert hp0[3].intermediates == frozenset({1, 2})
