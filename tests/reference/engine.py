"""From-scratch admission, the oracle for the incremental engine
(:class:`repro.service.engine.IncrementalAdmissionEngine`).

:class:`AdmissionController` is the paper's host processor (Fig. 1) as
the spec states it: a request is admitted only if the admitted set plus
the request stays feasible, and every request re-runs the whole test.
:class:`ReferenceEngine` extends it and keeps nothing between requests
but the admitted set and each stream's bound backend: every decision and
every read builds a fresh analyzer per backend in use. Its HP sets, like
every closure it reports, come from the section 4.1 oracle
(:mod:`tests.reference.hpset`), never from the index the engine keeps.
:class:`ShadowedEngine` runs one beside a production engine and compares
them at every op, so any driver of an engine (a fuzz loop, an
``EngineHost`` serving requests, a journal replay) becomes an
equivalence test by swapping the engine object.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core import backends
from repro.core.feasibility import FeasibilityReport, StreamVerdict
from repro.core.hpset import stream_channels
from repro.core.latency import LatencyModel, NoLoadLatency
from repro.core.streams import MessageStream, StreamSet
from repro.errors import AnalysisError, RoutingError, StreamError
from repro.io import report_to_spec
from repro.service.engine import (
    AdmissionDecision,
    IncrementalAdmissionEngine,
    RoutingDelta,
)
from repro.topology.routing import RoutingAlgorithm

from .hpset import oracle_analyzer, oracle_hp_sets

__all__ = ["AdmissionController", "ReferenceEngine", "ShadowedEngine",
           "shadow"]


def _batch(requests) -> Tuple[MessageStream, ...]:
    if isinstance(requests, MessageStream):
        return (requests,)
    return tuple(requests)


def _ids(stream_ids) -> Tuple[int, ...]:
    if isinstance(stream_ids, int):
        return (stream_ids,)
    return tuple(stream_ids)


class AdmissionController:
    """From-scratch admission control over a routed network: every
    request re-runs ``Determine-Feasibility`` over the admitted set plus
    the request.

    Parameters
    ----------
    routing:
        Deterministic routing function of the managed network.
    latency_model:
        No-load latency model (paper default).
    """

    def __init__(
        self,
        routing: RoutingAlgorithm,
        *,
        latency_model: Optional[LatencyModel] = None,
    ):
        self.routing = routing
        self.latency_model = latency_model or NoLoadLatency()
        self._admitted = StreamSet()
        self._next_id = 0

    # ------------------------------------------------------------------ #

    @property
    def admitted(self) -> StreamSet:
        """The currently admitted stream set (a live view; do not mutate)."""
        return self._admitted

    def fresh_id(self) -> int:
        """Return a never-before-seen stream id for building request streams.

        The counter is monotonic over the controller's lifetime: an id that
        was admitted (or merely requested) and later released is **never**
        reissued, so a decision that still references it cannot be confused
        with a newer stream.
        """
        while self._next_id in self._admitted:  # explicit client-chosen ids
            self._next_id += 1
        nid = self._next_id
        self._next_id += 1
        return nid

    def _reserve_ids(self, requests: Sequence[MessageStream]) -> None:
        """Advance the id counter past every requested id (no reuse)."""
        top = max(r.stream_id for r in requests)
        if top >= self._next_id:
            self._next_id = top + 1

    def _analyze(self, streams: StreamSet) -> FeasibilityReport:
        analyzer = oracle_analyzer(
            streams, self.routing, latency_model=self.latency_model
        )
        return analyzer.determine_feasibility()

    # ------------------------------------------------------------------ #

    def try_admit(
        self, requests: MessageStream | Iterable[MessageStream]
    ) -> AdmissionDecision:
        """Test a request (stream or job batch) and admit it if feasible.

        Rejection leaves the admitted set untouched. Admission of a new
        stream can never be granted at the expense of an existing guarantee:
        the trial analysis covers the *union*, so if any already-admitted
        stream's bound breaks, the request is rejected.
        """
        if isinstance(requests, MessageStream):
            requests = (requests,)
        requests = tuple(requests)
        if not requests:
            raise AnalysisError("empty admission request")
        self._reserve_ids(requests)
        trial = StreamSet(self._admitted)
        for r in requests:
            trial.add(r)
        report = self._analyze(trial)
        violations = report.infeasible_ids()
        if report.success:
            for r in requests:
                self._admitted.add(r)
            return AdmissionDecision(True, report, ())
        return AdmissionDecision(False, report, violations)

    def release(self, stream_ids: int | Iterable[int]) -> None:
        """Remove streams (a finished job's traffic) from the admitted set.

        The whole release is validated up front: if any id is not currently
        admitted, a :class:`StreamError` naming it is raised and *nothing*
        is removed.
        """
        if isinstance(stream_ids, int):
            stream_ids = (stream_ids,)
        ids = tuple(dict.fromkeys(stream_ids))
        unknown = sorted(sid for sid in ids if sid not in self._admitted)
        if unknown:
            raise StreamError(
                f"cannot release stream id(s) {unknown}: not admitted"
            )
        for sid in ids:
            self._admitted.remove(sid)

    def current_report(self) -> FeasibilityReport:
        """Re-run the analysis over the currently admitted set.

        An empty admitted set is vacuously feasible and yields a trivial
        success report (no verdicts).
        """
        if len(self._admitted) == 0:
            return FeasibilityReport.trivial()
        return self._analyze(self._admitted)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AdmissionController(admitted={len(self._admitted)})"


class ReferenceEngine(AdmissionController):
    """The paper's host-processor admission control, plus what the
    service engine adds to it: a bound backend per stream, structural
    ``adopt`` / ``retire``, closures and reroute-and-readmit."""

    def __init__(self, routing, *, analysis: Optional[str] = None):
        super().__init__(routing)
        self.default_analysis = backends.resolve_name(analysis)
        self._analysis: Dict[int, str] = {}
        #: Backend of the streams a trial adds (they have no entry yet).
        self._trial_analysis = self.default_analysis

    def _analyze(self, streams: StreamSet) -> FeasibilityReport:
        names = {
            s.stream_id: self._analysis.get(s.stream_id, self._trial_analysis)
            for s in streams
        }
        verdicts: Dict[int, StreamVerdict] = {}
        for name in sorted(set(names.values())):
            analyzer = oracle_analyzer(
                streams, self.routing, backend=name,
                latency_model=self.latency_model,
            )
            for sid in sorted(names):
                if names[sid] == name:
                    verdicts[sid] = analyzer.cal_u(sid)
        ordered = {
            s.stream_id: verdicts[s.stream_id]
            for s in streams.sorted_by_priority()
        }
        return FeasibilityReport(
            verdicts=ordered,
            success=all(v.feasible for v in ordered.values()),
        )

    def try_admit(self, requests, *, analysis: Optional[str] = None
                  ) -> AdmissionDecision:
        requests = _batch(requests)
        self._trial_analysis = (
            self.default_analysis if analysis is None
            else backends.get(analysis).name
        )
        decision = super().try_admit(requests)
        if decision.admitted:
            for r in requests:
                self._analysis[r.stream_id] = self._trial_analysis
        return decision

    def adopt(self, requests, *, analysis: Optional[str] = None) -> None:
        """Add streams without deciding (a journal record's admit)."""
        name = (self.default_analysis if analysis is None
                else backends.get(analysis).name)
        for r in _batch(requests):
            self._admitted.add(r)
            self._analysis[r.stream_id] = name

    def release(self, stream_ids: int | Iterable[int]) -> None:
        stream_ids = _ids(stream_ids)
        super().release(stream_ids)
        for sid in stream_ids:
            self._analysis.pop(sid, None)

    retire = release

    def verdict(self, stream_id: int) -> StreamVerdict:
        if stream_id not in self._admitted:
            raise StreamError(f"no admitted stream with id {stream_id}")
        return self.current_report().verdicts[stream_id]

    def closure(self, stream_id: int) -> Tuple[int, ...]:
        if stream_id not in self._admitted:
            raise StreamError(f"no admitted stream with id {stream_id}")
        return oracle_hp_sets(
            self._admitted, stream_channels(self._admitted, self.routing)
        )[stream_id].ids()

    def apply_routing(self, new_routing) -> RoutingDelta:
        """Reroute-and-readmit, literally: drop what cannot be routed,
        then drop deadline-missers — rerouted streams first, ascending id
        within a round — until the rest is feasible from scratch."""
        rerouted: List[int] = []
        disconnected: List[int] = []
        for sid in sorted(self._admitted.ids()):
            s = self._admitted[sid]
            try:
                new = frozenset(new_routing.route_channels(s.src, s.dst))
            except RoutingError:
                disconnected.append(sid)
                continue
            if new != frozenset(self.routing.route_channels(s.src, s.dst)):
                rerouted.append(sid)
        evicted = list(disconnected)
        evicted_streams = [
            (self._admitted[sid], self._analysis[sid]) for sid in evicted
        ]
        self.release(disconnected)
        self.routing = new_routing
        rerouted_left = set(rerouted)
        while len(self._admitted):
            report = self.current_report()
            if report.success:
                break
            infeasible = set(report.infeasible_ids())
            victims = sorted(infeasible & rerouted_left) or sorted(infeasible)
            evicted.extend(victims)
            evicted_streams.extend(
                (self._admitted[sid], self._analysis[sid]) for sid in victims
            )
            rerouted_left -= set(victims)
            self.release(victims)
        return RoutingDelta(
            rerouted=tuple(s for s in rerouted if s in self._admitted),
            evicted=tuple(evicted),
            disconnected=tuple(disconnected),
            survivors=tuple(sorted(self._admitted.ids())),
            evicted_streams=tuple(evicted_streams),
        )


class ShadowedEngine:
    """A production engine with a :class:`ReferenceEngine` in lockstep.

    Mutations go to both and every answer (decision, report, verdict,
    closure, routing delta) is asserted equal before it is returned;
    everything else — ids, stats, the stale count, cache storms — is the
    production engine's alone. A replay's ``netted`` streams reach the
    reference in full: it replays per record.
    """

    def __init__(self, engine: IncrementalAdmissionEngine):
        self.engine = engine
        self.reference = ReferenceEngine(
            engine.routing, analysis=engine.default_analysis
        )
        for s in engine.admitted:
            self.reference.adopt(s, analysis=engine.analysis_of(s.stream_id))
        #: Answers compared so far (a test can require that it is > 0).
        self.compared = 0

    def __getattr__(self, name):
        return getattr(self.engine, name)

    def _same_report(self, got: FeasibilityReport, want: FeasibilityReport):
        assert got.verdicts == want.verdicts
        assert report_to_spec(got) == report_to_spec(want)
        self.compared += 1

    def try_admit(self, requests, *, analysis=None) -> AdmissionDecision:
        requests = _batch(requests)
        got = self.engine.try_admit(requests, analysis=analysis)
        want = self.reference.try_admit(requests, analysis=analysis)
        assert (got.admitted, got.violations) == \
            (want.admitted, want.violations)
        self._same_report(got.report, want.report)
        return got

    def adopt(self, requests, *, analysis=None, netted=()) -> None:
        requests = _batch(requests)
        self.engine.adopt(requests, analysis=analysis, netted=netted)
        self.reference.adopt(requests, analysis=analysis)

    def release(self, stream_ids) -> None:
        stream_ids = _ids(stream_ids)
        self.engine.release(stream_ids)
        self.reference.release(stream_ids)
        self.current_report()

    def retire(self, stream_ids) -> None:
        stream_ids = _ids(stream_ids)
        self.engine.retire(stream_ids)
        self.reference.retire(stream_ids)

    def current_report(self) -> FeasibilityReport:
        got = self.engine.current_report()
        self._same_report(got, self.reference.current_report())
        return got

    def verdict(self, stream_id: int) -> StreamVerdict:
        got = self.engine.verdict(stream_id)
        assert got == self.reference.verdict(stream_id)
        self.compared += 1
        return got

    def closure(self, stream_id: int) -> Tuple[int, ...]:
        got = self.engine.closure(stream_id)
        assert got == self.reference.closure(stream_id)
        self.compared += 1
        return got

    def apply_routing(self, new_routing) -> RoutingDelta:
        got = self.engine.apply_routing(new_routing)
        want = self.reference.apply_routing(new_routing)
        assert got.to_spec() == want.to_spec()
        assert got.evicted_streams == want.evicted_streams
        self.current_report()
        return got


def shadow(host) -> ShadowedEngine:
    """Swap ``host.engine`` (an ``EngineHost``'s, or any object's with an
    ``engine`` attribute) for a shadowed one; returns it."""
    host.engine = ShadowedEngine(host.engine)
    return host.engine
