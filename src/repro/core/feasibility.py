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
``Cal_U`` is computed one way, whether or not a tracer is installed: one
horizon search (:meth:`FeasibilityAnalyzer._search`) starts from the
busy-window estimate and doubles up to a limit — the stream's deadline
for :meth:`FeasibilityAnalyzer.cal_u`, a larger ``max_horizon`` for
:meth:`FeasibilityAnalyzer.upper_bound`, which the evaluation harness
uses because the paper's simulation study compares ``U`` against
*measured* latency even when ``U`` exceeds the deadline.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional, Set, Tuple

from ..errors import AnalysisError
from ..obs.trace import active as _trace_active, span as _span
from ..topology.base import Channel
from ..topology.routing import RoutingAlgorithm
from .backends import KIM98, BoundBackend
from .hpset import HPSet, index_hp_sets, stream_channels
from .latency import LatencyModel, NoLoadLatency
from .modify import modify_diagram
from .streams import MessageStream, StreamSet
from .timing_diagram import TimingDiagram, generate_init_diagram

__all__ = ["StreamVerdict", "FeasibilityReport", "FeasibilityAnalyzer"]


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
    """

    #: Optional per-phase timing sink (any object with a mutable
    #: ``diagram_seconds`` attribute, e.g. the admission engine's
    #: :class:`~repro.service.engine.EngineStats`): when set,
    #: :meth:`cal_u` accumulates the wall time spent building timing
    #: diagrams into it. Class-level default keeps the hot path to a
    #: single attribute test when unused.
    timing_sink = None
    #: Optional shared :class:`~repro.core.timing_diagram.RowMemo` (see
    #: :func:`~repro.core.timing_diagram.generate_init_diagram`): the
    #: admission engine hands its memo to the analyzers of each refresh,
    #: so their diagrams fill each distinct row once. ``None`` gives every
    #: diagram a private memo, i.e. fills every row.
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
        index, hp_sets = index_hp_sets(resolved, channels)
        if hp_override is not None:
            unknown = set(hp_override) - set(resolved.ids())
            if unknown:
                raise AnalysisError(
                    f"hp_override names unknown streams {sorted(unknown)}"
                )
            hp_sets.update(
                {i: hp.without_self() for i, hp in hp_override.items()}
            )
        self._adopt(resolved, channels, index.blockers, hp_sets, backend)

    # ------------------------------------------------------------------ #
    # Cache-friendly construction (incremental admission engine)
    # ------------------------------------------------------------------ #

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
        """Build an analyzer from precomputed per-stream structures.

        The normal constructor derives routes, the direct-blocking relation
        and every HP set from scratch — O(n^2) work that an *incremental*
        caller (the channel-broker engine in :mod:`repro.service.engine`)
        already maintains between requests. This entry point adopts those
        structures verbatim so the only remaining cost of a verdict is
        :meth:`cal_u` itself, and is guaranteed to produce bit-identical
        results to the normal constructor given equal inputs.

        ``streams`` must already carry resolved latencies (every
        ``MessageStream.latency`` set); ``channels`` and ``blockers`` must
        cover exactly the ids in ``streams``. ``hp_sets`` only needs the
        ids whose bound will be asked for: ``Cal_U(j)`` reads ``HP_j``
        alone, so a caller that re-analyses a few streams builds only
        their HP sets.
        """
        ids = set(streams.ids())
        for name, mapping in (
            ("channels", channels),
            ("blockers", blockers),
        ):
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
        self._adopt(streams, channels, blockers, hp_sets, backend)
        return self

    def _adopt(self, streams, channels, blockers, hp_sets, backend) -> None:
        """Take the resolved structures and the (already validated)
        declaration: both constructors end here."""
        if len(streams) == 0:
            raise AnalysisError("cannot analyse an empty stream set")
        self.streams = streams
        self.channels: Dict[int, FrozenSet[Channel]] = dict(channels)
        self.blockers: Dict[int, Tuple[int, ...]] = dict(blockers)
        self.hp_sets: Dict[int, HPSet] = dict(hp_sets)
        self.backend = backend

    # ------------------------------------------------------------------ #
    # Per-stream bound (Cal_U)
    # ------------------------------------------------------------------ #

    def diagram_for(
        self, stream_id: int, horizon: Optional[int] = None
    ) -> Tuple[TimingDiagram, Dict[int, Set[int]]]:
        """Return the (final) timing diagram and removed instances for a stream.

        ``horizon`` defaults to the stream's deadline.
        """
        stream = self.streams[stream_id]
        dtime = int(horizon) if horizon is not None else stream.deadline
        hp = self.hp_sets[stream_id]
        effective = self._effective_streams(stream)
        seeds = self._cap_seeds(stream, dtime)
        if self.backend.use_modify and hp.indirect_ids():
            return modify_diagram(
                stream,
                hp,
                effective,
                self.blockers,
                dtime,
                fixpoint=self.backend.modify_fixpoint,
                granularity=self.backend.modify_granularity,
                initial_removed=seeds,
                row_memo=self.row_memo,
            )
        rows = tuple(
            sorted(
                (effective[e.stream_id] for e in hp
                 if e.stream_id != stream_id),
                key=lambda s: (-s.priority, s.stream_id),
            )
        )
        return (
            generate_init_diagram(stream_id, rows, dtime, removed=seeds,
                                  row_memo=self.row_memo),
            {k: set(v) for k, v in seeds.items()} if seeds else {},
        )

    def _effective_streams(self, owner: MessageStream) -> StreamSet:
        """Return the stream set the owner's diagram is built from.

        With a positive ``residency_margin``, equal-priority members have
        their length raised by the margin — charging the extra VC-residency
        slot(s) a same-priority worm costs beyond its channel occupancy.
        A positive ``interference_margin`` (the ``buffered`` backend)
        additionally raises **every** member's length, charging the
        buffering/backpressure residency on contested channels; the two
        margins stack for equal-priority members.
        """
        residency = self.backend.residency_margin
        interference = self.backend.interference_margin
        if residency == 0 and interference == 0:
            return self.streams
        hp = self.hp_sets[owner.stream_id]
        inflate: Dict[int, int] = {}
        for e in hp:
            if e.stream_id == owner.stream_id:
                continue
            margin = interference
            if (residency
                    and self.streams[e.stream_id].priority == owner.priority):
                margin += residency
            if margin:
                inflate[e.stream_id] = margin
        if not inflate:
            return self.streams
        effective = StreamSet()
        for s in self.streams:
            margin = inflate.get(s.stream_id)
            if margin:
                effective.add(
                    dataclasses.replace(s, length=s.length + margin)
                )
            else:
                effective.add(s)
        return effective

    def _cap_seeds(
        self, owner: MessageStream, dtime: int
    ) -> Optional[Dict[int, Set[int]]]:
        """Window instances discharged by the FCFS equal-priority cap.

        For each *qualified* direct equal-priority member (no third stream
        at the owner's priority shares any of its channels), every window
        instance beyond one per shared channel is discharged: FCFS
        arbitration on release time means a later-released equal-priority
        instance cannot overtake the owner's waiting header, and closure
        feasibility rules out backlog, so at most one instance can hold
        each shared channel when the header arrives there.
        """
        if not self.backend.eqp_instance_cap:
            return None
        sid = owner.stream_id
        hp = self.hp_sets[sid]
        own_channels = self.channels[sid]
        seeds: Dict[int, Set[int]] = {}
        for e in hp:
            b = e.stream_id
            if b == sid or not e.is_direct:
                continue
            member = self.streams[b]
            if member.priority != owner.priority:
                continue
            if any(
                k != sid and self.streams[k].priority == owner.priority
                for k in self.blockers[b]
            ):
                continue  # an equal-priority convoy defeats the argument
            cap = len(own_channels & self.channels[b])
            n_windows = -(-dtime // member.period)  # ceil
            if cap < n_windows:
                seeds[b] = set(range(cap, n_windows))
        return seeds or None

    def cal_u(
        self, stream_id: int, horizon: Optional[int] = None
    ) -> StreamVerdict:
        """Compute ``U`` for one stream (the paper's ``Cal_U``). Returns a
        verdict with ``upper_bound == -1`` when the bound exceeds the
        horizon.

        Without a ``horizon`` the verdict is the deadline-horizon one,
        found by :meth:`_search` over the smallest safe prefix; with one,
        exactly that horizon is evaluated.
        """
        stream = self.streams[stream_id]
        dtime = stream.deadline if horizon is None else int(horizon)
        u, removed = self._search(stream, dtime, exact=horizon is not None)
        return StreamVerdict(
            stream=stream,
            upper_bound=u,
            horizon=dtime,
            feasible=0 < u <= stream.deadline,
            removed_instances={
                k: frozenset(v) for k, v in removed.items()
            },
            backend=self.backend.name,
        )

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
        return self._search(self.streams[stream_id], max_horizon)[0]

    def _search(
        self,
        stream: MessageStream,
        limit: int,
        *,
        exact: bool = False,
    ) -> Tuple[int, Dict[int, Set[int]]]:
        """Return ``(U, removed instances)`` as the diagram over ``limit``
        slots gives them, evaluating the smallest safe prefix.

        The diagram construction is prefix-stable: truncating the horizon
        truncates period windows on the right, and the greedy fill claims
        slots left to right against a busy-from-above mask that itself
        only depends on the prefix — so the cells in ``[1, h]`` are
        identical for every horizon ``>= h``. A bound found at a shorter
        horizon therefore equals the ``limit``-horizon bound provided
        every window that can still disturb slots ``<= U`` closes within
        the horizon: trivially true for direct-only diagrams (guard 0),
        and within the largest member period when ``Modify_Diagram``
        release decisions run. The search starts from the busy-window
        estimate — the HP set's interference within ``t`` slots is at
        most ``t * util + sum(C_k)``, so ``t = (L + sum C) / (1 - util)``
        slots contain ``L`` free ones when ``util < 1`` — rounded up to a
        power of two, and doubles up to ``limit``. ``removed`` covers the
        evaluated prefix only (no release decision past ``U + guard`` can
        exist within it). With ``exact``, ``limit`` alone is evaluated.
        """
        sid = stream.stream_id
        assert stream.latency is not None
        hp = self.hp_sets[sid]
        guard = 0
        if self.backend.use_modify and hp.indirect_ids():
            guard = max(
                (self.streams[e.stream_id].period for e in hp
                 if e.stream_id != sid),
                default=0,
            )
        h = limit
        if not exact:
            effective = self._effective_streams(stream)
            members = [effective[e.stream_id] for e in hp
                       if e.stream_id != sid]
            util = sum(m.length / m.period for m in members)
            if util < 0.999:
                total_c = sum(m.length for m in members)
                est = int(
                    (stream.latency + total_c) / (1.0 - util)
                ) + guard + 1
                est = max(stream.latency, est, 1)
                # Round up to a power of two: the slack past the estimate
                # spares most searches a second pass at a doubled horizon.
                h = min(limit, 1 << (est - 1).bit_length())
        # Called once per stream per bound: guard the span with an
        # explicit active() check so the disabled path costs one call and
        # None tests instead of a nullcontext enter/exit.
        tr = _trace_active()
        if tr is not None:
            tr.begin("cal_u", "analysis", stream=sid, horizon=limit)
        try:
            sink = self.timing_sink
            while True:
                if sink is not None:
                    t0 = time.perf_counter()
                diagram, removed = self.diagram_for(sid, h)
                if sink is not None:
                    sink.diagram_seconds += time.perf_counter() - t0
                u = diagram.upper_bound(stream.latency)
                if h >= limit or (u > 0 and u + guard <= h):
                    break
                h = min(h * 2, limit)
            if tr is not None:
                tr.instant("cal_u.result", "analysis", stream=sid, u=u)
        finally:
            if tr is not None:
                tr.end("cal_u", "analysis")
        return u, removed

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
