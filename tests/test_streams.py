"""Unit tests for message streams and stream sets (repro.core.streams)."""

import pytest

from repro.core.streams import MessageStream, StreamSet
from repro.errors import StreamError


def ms(i, priority=1, period=100, length=10, deadline=100, src=0, dst=1,
       latency=None):
    return MessageStream(
        stream_id=i, src=src, dst=dst, priority=priority, period=period,
        length=length, deadline=deadline, latency=latency,
    )


class TestMessageStream:
    def test_valid_stream(self):
        s = ms(0, latency=12)
        assert s.priority == 1 and s.latency == 12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"period": 0},
            {"period": -5},
            {"length": 0},
            {"deadline": 0},
            {"latency": 0},
            {"src": -1},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(StreamError):
            ms(0, **kwargs)

    def test_src_equals_dst_rejected(self):
        with pytest.raises(StreamError):
            ms(0, src=3, dst=3)

    def test_negative_id_rejected(self):
        with pytest.raises(StreamError):
            ms(-1)

    def test_with_latency_is_copy(self):
        s = ms(0)
        s2 = s.with_latency(20)
        assert s.latency is None and s2.latency == 20
        assert s2.stream_id == s.stream_id

    def test_with_period(self):
        s = ms(0, period=100)
        assert s.with_period(250).period == 250

    def test_utilization(self):
        assert ms(0, period=100, length=25).utilization() == 0.25

    def test_frozen(self):
        s = ms(0)
        with pytest.raises(AttributeError):
            s.period = 7


class TestStreamSet:
    def test_add_and_lookup(self):
        ss = StreamSet([ms(0), ms(1)])
        assert len(ss) == 2
        assert ss[1].stream_id == 1
        assert 0 in ss and 2 not in ss

    def test_duplicate_id_rejected(self):
        ss = StreamSet([ms(0)])
        with pytest.raises(StreamError):
            ss.add(ms(0))

    def test_missing_lookup(self):
        ss = StreamSet()
        with pytest.raises(StreamError):
            ss[3]

    def test_iteration_preserves_insertion_order(self):
        ss = StreamSet([ms(5), ms(2), ms(9)])
        assert [s.stream_id for s in ss] == [5, 2, 9]
        assert ss.ids() == (5, 2, 9)

    def test_remove(self):
        ss = StreamSet([ms(0), ms(1)])
        removed = ss.remove(0)
        assert removed.stream_id == 0
        assert len(ss) == 1 and 0 not in ss
        with pytest.raises(StreamError):
            ss.remove(0)

    def test_replace(self):
        ss = StreamSet([ms(0, period=100)])
        ss.replace(ms(0, period=300))
        assert ss[0].period == 300
        with pytest.raises(StreamError):
            ss.replace(ms(7))

    def test_sorted_by_priority_ties_by_id(self):
        ss = StreamSet([ms(3, priority=1), ms(1, priority=3),
                        ms(2, priority=3), ms(0, priority=2)])
        assert [s.stream_id for s in ss.sorted_by_priority()] == [1, 2, 0, 3]

    def test_total_utilization(self):
        ss = StreamSet([ms(0, period=100, length=10),
                        ms(1, period=200, length=10)])
        assert ss.total_utilization() == pytest.approx(0.15)
