"""Feasibility testing: ``Cal_U`` and ``Determine-Feasibility``.

This is the paper's primary contribution packaged as a public API. Given a
set of periodic real-time message streams over a wormhole network with
flit-level preemptive priority arbitration, :class:`FeasibilityAnalyzer`
computes for every stream a transmission-delay upper bound ``U_i`` and
declares the set feasible iff ``U_i <= D_i`` for all streams.

Pipeline per stream (section 4):

1. construct ``HP_i`` (:mod:`repro.core.hpset`);
2. build the worst-case timing diagram for the direct interpretation
   (:mod:`repro.core.timing_diagram`);
3. if indirect elements exist, release unforwardable interference and
   re-compact (:mod:`repro.core.modify`);
4. ``U_i`` = time by which the result row's free slots accumulate to the
   no-load network latency ``L_i``.

A computed ``U_i`` of ``-1`` means the bound exceeded the analysis horizon.
``Cal_U`` is computed one way, whether or not a tracer is installed, and
by one core that both the offline analyzer and the admission engine
call: :func:`verdict_of` over a :class:`~repro.core.hpset.VerdictPlan`,
whose one horizon search (:func:`search_bound`) starts from the
busy-window estimate and doubles up to a limit — the stream's deadline
for :meth:`FeasibilityAnalyzer.cal_u`, a larger ``max_horizon`` for
:meth:`FeasibilityAnalyzer.upper_bound`, which the evaluation harness
uses because the paper's simulation study compares ``U`` against
*measured* latency even when ``U`` exceeds the deadline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional, Set, Tuple

from ..errors import AnalysisError
from ..obs.trace import active as _trace_active, span as _span
from ..topology.base import Channel
from ..topology.routing import RoutingAlgorithm
from .backends import KIM98, BoundBackend
from .hpset import BlockingIndex, HPSet, VerdictPlan, stream_channels
from .latency import LatencyModel, NoLoadLatency
from .modify import release_sweep
from .streams import MessageStream, StreamSet
from .timing_diagram import RowMemo, TimingDiagram, generate_init_diagram

__all__ = ["StreamVerdict", "FeasibilityReport", "FeasibilityAnalyzer",
           "verdict_of"]


@dataclass(frozen=True)
class StreamVerdict:
    """Per-stream outcome of the feasibility analysis."""

    stream: MessageStream
    #: Delay upper bound; ``-1`` when it exceeded the analysis horizon.
    upper_bound: int
    #: Horizon the diagram was evaluated over.
    horizon: int
    #: ``True`` iff ``0 < upper_bound <= deadline``.
    feasible: bool
    #: Instances removed by ``Modify_Diagram`` (stream id -> indices).
    removed_instances: Mapping[int, FrozenSet[int]] = field(
        default_factory=dict
    )
    #: Name of the bound backend that produced this verdict (see
    #: :mod:`repro.core.backends`).
    backend: str = "kim98"

    @property
    def slack(self) -> Optional[int]:
        """Deadline minus bound, or ``None`` when the bound is unknown."""
        if self.upper_bound < 0:
            return None
        return self.stream.deadline - self.upper_bound


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of ``Determine-Feasibility`` over a whole stream set."""

    verdicts: Mapping[int, StreamVerdict]
    success: bool

    @classmethod
    def trivial(cls) -> "FeasibilityReport":
        """Report for an empty stream set: vacuously feasible."""
        return cls(verdicts={}, success=True)

    def upper_bounds(self) -> Dict[int, int]:
        """Return ``stream_id -> U`` for every analysed stream."""
        return {i: v.upper_bound for i, v in self.verdicts.items()}

    def infeasible_ids(self) -> Tuple[int, ...]:
        """Return the ids of streams that failed the test, ascending."""
        return tuple(
            sorted(i for i, v in self.verdicts.items() if not v.feasible)
        )


def plan_diagram(
    plan: VerdictPlan, dtime: int, row_memo: Optional[RowMemo] = None,
) -> Tuple[TimingDiagram, Dict[int, Set[int]]]:
    """The final timing diagram of ``plan`` over ``dtime`` slots and the
    instances it removed (FCFS-cap seeds included)."""
    removed = plan.seeds(dtime) or {}
    if plan.release:
        return release_sweep(plan, dtime, removed,
                             row_memo=row_memo), removed
    return generate_init_diagram(plan.owner.stream_id, plan.rows, dtime,
                                 removed=removed, row_memo=row_memo), removed


def search_bound(
    plan: VerdictPlan, limit: int, *, exact: bool = False,
    row_memo: Optional[RowMemo] = None, timing_sink=None,
) -> Tuple[int, Dict[int, Set[int]]]:
    """Return ``(U, removed instances)`` as the diagram over ``limit``
    slots gives them, evaluating the smallest safe prefix.

    The diagram is prefix-stable: the greedy fill claims slots left to
    right against a busy-from-above mask that only depends on the
    prefix, so the cells in ``[1, h]`` are the same for every horizon
    ``>= h``, and a bound found at a shorter horizon is the ``limit``
    one once ``plan.guard`` slots past ``U`` fit in it (every window
    that can still disturb slots ``<= U`` closes there). The search
    starts where ``L`` free slots must exist — within ``t`` slots the
    members interfere at most ``t * util + demand``, so at ``(L +
    demand) / (1 - util)`` when ``util < 1`` — plus the guard, rounded
    up to a power of two, and doubles up to ``limit``; with ``exact``,
    ``limit`` alone is evaluated. ``removed`` covers the evaluated
    prefix. ``timing_sink``, any object with a mutable
    ``diagram_seconds`` (the engine's ``EngineStats``), accumulates the
    time spent building diagrams.
    """
    stream = plan.owner
    sid, latency, guard = stream.stream_id, stream.latency, plan.guard
    h = limit
    if not exact and plan.util < 0.999:
        est = int((latency + plan.demand) / (1.0 - plan.util)) + guard + 1
        h = min(limit, 1 << (max(latency, est, 1) - 1).bit_length())
    # Called once per stream per bound: guard the span with an explicit
    # active() check so the disabled path costs one call and None tests
    # instead of a nullcontext enter/exit.
    tr = _trace_active()
    if tr is not None:
        tr.begin("cal_u", "analysis", stream=sid, horizon=limit)
    try:
        while True:
            if timing_sink is not None:
                t0 = time.perf_counter()
            diagram, removed = plan_diagram(plan, h, row_memo)
            if timing_sink is not None:
                timing_sink.diagram_seconds += time.perf_counter() - t0
            u = diagram.upper_bound(latency)
            if h >= limit or (u > 0 and u + guard <= h):
                break
            h = min(h * 2, limit)
        if tr is not None:
            tr.instant("cal_u.result", "analysis", stream=sid, u=u)
    finally:
        if tr is not None:
            tr.end("cal_u", "analysis")
    return u, removed


def verdict_of(
    plan: VerdictPlan, horizon: Optional[int] = None, *,
    row_memo: Optional[RowMemo] = None, timing_sink=None,
) -> StreamVerdict:
    """``Cal_U`` of ``plan``'s owner (``upper_bound == -1`` past the
    horizon): over its deadline, by :func:`search_bound` on the smallest
    safe prefix, or over exactly ``horizon`` when one is given."""
    stream = plan.owner
    dtime = stream.deadline if horizon is None else int(horizon)
    u, removed = search_bound(plan, dtime, exact=horizon is not None,
                              row_memo=row_memo, timing_sink=timing_sink)
    return StreamVerdict(
        stream=stream,
        upper_bound=u,
        horizon=dtime,
        feasible=0 < u <= stream.deadline,
        removed_instances={k: frozenset(v) for k, v in removed.items()},
        backend=plan.backend.name,
    )


class FeasibilityAnalyzer:
    """Delay-upper-bound analysis for a stream set on a routed network.

    Parameters
    ----------
    streams:
        The message streams under test. Streams without an explicit
        ``latency`` get ``L_i`` from ``latency_model`` over their route.
    routing:
        Deterministic routing function (e.g. :class:`~repro.topology.routing.XYRouting`
        on the paper's mesh).
    latency_model:
        No-load latency model; defaults to the paper's ``L = hops + C - 1``.
    hp_override:
        Optional explicit HP sets (stream id -> :class:`HPSet`). Used to
        reproduce the paper's section 4.4 example verbatim, whose printed
        ``HP_3`` deviates from the path-overlap rule (see DESIGN.md), and
        generally useful for what-if analysis.
    backend:
        The :class:`~repro.core.backends.BoundBackend` declaring every
        bound rule the analysis applies (``Modify_Diagram`` sweep and
        granularity, margins, the FCFS cap); its name is stamped into
        every :class:`StreamVerdict`. Defaults to the paper's ``kim98``
        whatever ``REPRO_ANALYSIS_BACKEND`` says.

    Each stream's verdict runs on its :class:`~repro.core.hpset.VerdictPlan`,
    built on first use from the blocking index (or from its override HP
    set) exactly as the admission engine builds it.
    """

    #: Optional shared :class:`~repro.core.timing_diagram.RowMemo` (see
    #: :func:`~repro.core.timing_diagram.generate_init_diagram`) for the
    #: diagrams of this analyzer: ``None`` gives every diagram a private
    #: memo, i.e. fills every row.
    row_memo = None

    def __init__(
        self,
        streams: StreamSet,
        routing: RoutingAlgorithm,
        *,
        backend: BoundBackend = KIM98,
        latency_model: Optional[LatencyModel] = None,
        hp_override: Optional[Mapping[int, HPSet]] = None,
    ):
        latency_model = latency_model or NoLoadLatency()
        channels = stream_channels(streams, routing)
        # Resolve latencies up front so every stream carries its L_i.
        resolved = StreamSet()
        for s in streams:
            if s.latency is None:
                hops = len(channels[s.stream_id])
                resolved.add(s.with_latency(latency_model.latency(s, hops)))
            else:
                resolved.add(s)
        index = BlockingIndex.of(resolved, channels)
        hp_override = hp_override or {}
        unknown = set(hp_override) - set(resolved.ids())
        if unknown:
            raise AnalysisError(
                f"hp_override names unknown streams {sorted(unknown)}"
            )
        self._adopt(resolved, channels, index.blockers, {
            i: hp.without_self() for i, hp in hp_override.items()}, backend)
        self._index = index

    @classmethod
    def from_prepared(
        cls,
        streams: StreamSet,
        channels: Mapping[int, FrozenSet[Channel]],
        blockers: Mapping[int, Tuple[int, ...]],
        hp_sets: Mapping[int, HPSet],
        *,
        backend: BoundBackend = KIM98,
    ) -> "FeasibilityAnalyzer":
        """Build an analyzer from the resolved ``streams`` (latencies
        set), their ``channels`` and ``blockers`` and the HP sets of the
        ids whose bound will be asked for: each verdict runs on a plan
        of its given HP set. The section 4.1 oracle
        (``tests/reference/hpset.py``) analyses through this."""
        ids = set(streams.ids())
        for name, mapping in (("channels", channels), ("blockers", blockers)):
            missing = ids - set(mapping)
            if missing:
                raise AnalysisError(
                    f"from_prepared: {name} misses stream ids "
                    f"{sorted(missing)}"
                )
        unresolved = [s.stream_id for s in streams if s.latency is None]
        if unresolved:
            raise AnalysisError(
                f"from_prepared: streams {unresolved} have no resolved "
                "latency"
            )
        self = cls.__new__(cls)
        self._adopt(streams, channels, blockers, dict(hp_sets), backend)
        self._index = None
        return self

    def _adopt(self, streams, channels, blockers, given, backend) -> None:
        """Take the resolved structures, the given HP sets and the
        (already validated) declaration: both constructors end here."""
        if len(streams) == 0:
            raise AnalysisError("cannot analyse an empty stream set")
        self.streams = streams
        self.channels: Dict[int, FrozenSet[Channel]] = dict(channels)
        self.blockers: Dict[int, Tuple[int, ...]] = dict(blockers)
        self.backend = backend
        self._given = given
        self._plans: Dict[int, VerdictPlan] = {}
        self._hp_sets: Optional[Dict[int, HPSet]] = None

    @property
    def hp_sets(self) -> Dict[int, HPSet]:
        """Every stream's HP set (the paper's view of its plan), built on
        first access."""
        if self._hp_sets is None:
            index = self._index
            self._hp_sets = {} if index is None else {
                s.stream_id: index.hp_set(s.stream_id) for s in self.streams}
            self._hp_sets.update(self._given)
        return self._hp_sets

    def plan(self, stream_id: int) -> VerdictPlan:
        """The plan of one stream's verdict (built once)."""
        plan = self._plans.get(stream_id)
        if plan is None:
            streams, hp = self.streams, self._given.get(stream_id)
            if hp is None and self._index is None:
                raise AnalysisError(f"no HP set given for stream {stream_id}")
            if hp is None:
                plan = self._index.plan(streams[stream_id], [
                    streams[i] for i in sorted(self._index.reach[stream_id])
                ], self.backend)
            else:
                plan = VerdictPlan.of_hp_set(
                    streams[stream_id], hp, streams, self.blockers,
                    self.channels, {s.stream_id: s.priority for s in streams},
                    self.backend)
            self._plans[stream_id] = plan
        return plan

    # ------------------------------------------------------------------ #
    # Per-stream bound (Cal_U)
    # ------------------------------------------------------------------ #

    def diagram_for(
        self, stream_id: int, horizon: Optional[int] = None
    ) -> Tuple[TimingDiagram, Dict[int, Set[int]]]:
        """Return the (final) timing diagram and removed instances for a stream.

        ``horizon`` defaults to the stream's deadline.
        """
        dtime = (int(horizon) if horizon is not None
                 else self.streams[stream_id].deadline)
        return plan_diagram(self.plan(stream_id), dtime, self.row_memo)

    def cal_u(
        self, stream_id: int, horizon: Optional[int] = None
    ) -> StreamVerdict:
        """Compute ``U`` for one stream (the paper's ``Cal_U``): see
        :func:`verdict_of`."""
        return verdict_of(self.plan(stream_id), horizon,
                          row_memo=self.row_memo)

    def upper_bound(
        self,
        stream_id: int,
        *,
        max_horizon: int = 1 << 20,
    ) -> int:
        """Search for ``U`` beyond the deadline by horizon doubling.

        Returns ``-1`` if no bound is found within ``max_horizon`` slots
        (interference from the HP set saturates the path indefinitely).
        """
        return search_bound(self.plan(stream_id), max_horizon,
                            row_memo=self.row_memo)[0]

    # ------------------------------------------------------------------ #
    # Whole-set test (Determine-Feasibility)
    # ------------------------------------------------------------------ #

    def determine_feasibility(self) -> FeasibilityReport:
        """Run the paper's ``Determine-Feasibility`` over all streams.

        Streams are processed from the highest priority level downwards
        (the ``GList`` loop); the report is a success iff every stream's
        bound exists within its deadline.
        """
        with _span("determine_feasibility", "analysis", n=len(self.streams)):
            verdicts: Dict[int, StreamVerdict] = {}
            for stream in self.streams.sorted_by_priority():
                verdicts[stream.stream_id] = self.cal_u(stream.stream_id)
        return FeasibilityReport(
            verdicts=verdicts,
            success=all(v.feasible for v in verdicts.values()),
        )

    def all_upper_bounds(
        self, *, max_horizon: int = 1 << 20
    ) -> Dict[int, int]:
        """Return ``stream_id -> U`` searching past deadlines if needed."""
        return {
            s.stream_id: self.upper_bound(
                s.stream_id, max_horizon=max_horizon
            )
            for s in self.streams.sorted_by_priority()
        }
