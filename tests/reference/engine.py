"""From-scratch admission, the oracle for the incremental engine
(:class:`repro.service.engine.IncrementalAdmissionEngine`).

:class:`ReferenceEngine` keeps nothing between requests but the admitted
set and each stream's bound backend: every decision and every read builds
a fresh ``backends.get(name).analyzer(StreamSet, routing)`` per backend in
use, and HP closures come from ``build_all_hp_sets`` over the whole set.
:class:`ShadowedEngine` runs one beside a production engine and compares
them at every op, so any driver of an engine (a fuzz loop, an
``EngineHost`` serving requests, a journal replay) becomes an
equivalence test by swapping the engine object.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core import backends
from repro.core.admission import AdmissionController, AdmissionDecision
from repro.core.feasibility import FeasibilityReport, StreamVerdict
from repro.core.hpset import build_all_hp_sets
from repro.core.streams import MessageStream, StreamSet
from repro.errors import RoutingError, StreamError
from repro.io import report_to_spec
from repro.service.engine import IncrementalAdmissionEngine, RoutingDelta

__all__ = ["ReferenceEngine", "ShadowedEngine", "shadow"]


def _batch(requests) -> Tuple[MessageStream, ...]:
    if isinstance(requests, MessageStream):
        return (requests,)
    return tuple(requests)


def _ids(stream_ids) -> Tuple[int, ...]:
    if isinstance(stream_ids, int):
        return (stream_ids,)
    return tuple(stream_ids)


class ReferenceEngine(AdmissionController):
    """The paper's host-processor admission control, plus what the
    service engine adds to it: a bound backend per stream, structural
    ``adopt`` / ``retire``, closures and reroute-and-readmit."""

    def __init__(self, routing, *, analysis: Optional[str] = None,
                 use_modify: bool = True, residency_margin: int = 0):
        super().__init__(routing, use_modify=use_modify)
        self.residency_margin = residency_margin
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
            analyzer = backends.get(name).analyzer(
                StreamSet(streams), self.routing,
                latency_model=self.latency_model,
                use_modify=self.use_modify,
                residency_margin=self.residency_margin,
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
        return build_all_hp_sets(
            StreamSet(self._admitted), self.routing
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
    production engine's alone.
    """

    def __init__(self, engine: IncrementalAdmissionEngine):
        self.engine = engine
        self.reference = ReferenceEngine(
            engine.routing, analysis=engine.default_analysis,
            use_modify=engine.use_modify,
            residency_margin=engine.residency_margin,
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

    def adopt(self, requests, *, analysis=None) -> None:
        requests = _batch(requests)
        self.engine.adopt(requests, analysis=analysis)
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
