"""Unit tests for the from-scratch admission controller, the oracle the
incremental engine is checked against (tests/reference/engine.py)."""

import pytest

from repro.core.streams import MessageStream
from repro.errors import AnalysisError, StreamError
from repro.topology import Mesh2D, XYRouting
from tests.reference import AdmissionController


@pytest.fixture()
def controller():
    mesh = Mesh2D(10, 10)
    return AdmissionController(XYRouting(mesh)), mesh


def ms(i, mesh, src, dst, priority, period=200, length=10, deadline=None):
    return MessageStream(
        i, mesh.node_xy(*src), mesh.node_xy(*dst), priority=priority,
        period=period, length=length, deadline=deadline or period,
    )


class TestAdmission:
    def test_admit_feasible_stream(self, controller):
        ctrl, mesh = controller
        d = ctrl.try_admit(ms(0, mesh, (0, 0), (5, 0), priority=1))
        assert d.admitted
        assert len(ctrl.admitted) == 1
        assert d.violations == ()

    def test_reject_infeasible_request(self, controller):
        ctrl, mesh = controller
        # Deadline below the no-load latency: impossible to guarantee.
        bad = ms(0, mesh, (0, 0), (5, 0), priority=1, length=10, deadline=5)
        d = ctrl.try_admit(bad)
        assert not d.admitted
        assert len(ctrl.admitted) == 0
        assert 0 in d.violations

    def test_rejection_protects_existing_guarantees(self, controller):
        ctrl, mesh = controller
        # Victim: low priority, tight deadline, just feasible alone.
        victim = ms(0, mesh, (0, 0), (5, 0), priority=1, length=10,
                    period=500, deadline=15)
        assert ctrl.try_admit(victim).admitted
        # Aggressor: higher priority on the same row; would break victim.
        aggressor = ms(1, mesh, (1, 0), (6, 0), priority=2, length=30,
                       period=40, deadline=200)
        d = ctrl.try_admit(aggressor)
        assert not d.admitted
        assert 0 in d.violations
        assert len(ctrl.admitted) == 1

    def test_batch_admission_all_or_nothing(self, controller):
        ctrl, mesh = controller
        good = ms(0, mesh, (0, 0), (5, 0), priority=1)
        bad = ms(1, mesh, (0, 1), (5, 1), priority=1, deadline=2)
        d = ctrl.try_admit([good, bad])
        assert not d.admitted
        assert len(ctrl.admitted) == 0

    def test_release_frees_capacity(self, controller):
        ctrl, mesh = controller
        a = ms(0, mesh, (0, 0), (5, 0), priority=2, period=40, length=30)
        assert ctrl.try_admit(a).admitted
        tight = ms(1, mesh, (1, 0), (6, 0), priority=1, length=10,
                   period=500, deadline=15)
        assert not ctrl.try_admit(tight).admitted
        ctrl.release(0)
        assert ctrl.try_admit(tight).admitted

    def test_empty_request_rejected(self, controller):
        ctrl, _ = controller
        with pytest.raises(AnalysisError):
            ctrl.try_admit([])

    def test_fresh_id_skips_admitted(self, controller):
        ctrl, mesh = controller
        ctrl.try_admit(ms(0, mesh, (0, 0), (5, 0), priority=1))
        nid = ctrl.fresh_id()
        assert nid not in ctrl.admitted
        assert ctrl.fresh_id() != nid

    def test_fresh_id_never_reuses_released(self, controller):
        ctrl, mesh = controller
        sid = ctrl.fresh_id()
        assert ctrl.try_admit(
            ms(sid, mesh, (0, 0), (5, 0), priority=1)).admitted
        ctrl.release(sid)
        assert ctrl.fresh_id() > sid
        # Explicitly requested ids advance the counter past themselves.
        ctrl.try_admit(ms(100, mesh, (0, 1), (5, 1), priority=1))
        ctrl.release(100)
        assert ctrl.fresh_id() > 100

    def test_release_unknown_id_raises(self, controller):
        ctrl, mesh = controller
        ctrl.try_admit(ms(0, mesh, (0, 0), (5, 0), priority=1))
        with pytest.raises(StreamError, match=r"\[3, 9\]"):
            ctrl.release([0, 9, 3])
        # Atomic: the known id stays admitted on a failed release.
        assert 0 in ctrl.admitted

    def test_current_report(self, controller):
        ctrl, mesh = controller
        # Empty set: trivially feasible (nothing to guarantee).
        empty = ctrl.current_report()
        assert empty.success and empty.verdicts == {}
        ctrl.try_admit(ms(0, mesh, (0, 0), (5, 0), priority=1))
        report = ctrl.current_report()
        assert report.success

    def test_admit_release_readmit_churn(self, controller):
        ctrl, mesh = controller
        for cycle in range(3):
            sid = ctrl.fresh_id()
            d = ctrl.try_admit(
                ms(sid, mesh, (0, cycle), (5, cycle), priority=1))
            assert d.admitted
            assert ctrl.current_report().success
            ctrl.release(sid)
            assert sid not in ctrl.admitted
        assert len(ctrl.admitted) == 0
        assert ctrl.current_report().success
