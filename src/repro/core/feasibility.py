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

A computed ``U_i`` of ``-1`` means the bound exceeded the analysis horizon
(the stream's deadline, by default); :meth:`FeasibilityAnalyzer.upper_bound`
can search a larger horizon by doubling, which the evaluation harness uses
because the paper's simulation study compares ``U`` against *measured*
latency even when ``U`` exceeds the deadline.
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
from .hpset import HPSet, build_all_hp_sets, direct_blockers, stream_channels
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
    #: Per-stream bound provenance (see :mod:`repro.obs.provenance`);
    #: only populated by ``determine_feasibility(explain=True)``.
    explanations: Optional[Mapping[int, object]] = None

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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        word = "success" if self.success else "fail"
        return f"FeasibilityReport({word}, U={self.upper_bounds()})"


class FeasibilityAnalyzer:
    """Delay-upper-bound analysis for a stream set on a routed network.

    Parameters
    ----------
    streams:
        The message streams under test. Streams without an explicit
        ``latency`` get ``L_i`` from ``latency_model`` over their route.
    routing:
        Deterministic routing function (e.g. :class:`~repro.topology.routing.XYRouting`
        on the paper's mesh). May be omitted when both ``channels`` and all
        stream latencies are supplied explicitly.
    latency_model:
        No-load latency model; defaults to the paper's ``L = hops + C - 1``.
    channels:
        Optional pre-computed channel sets per stream id (overrides routes).
    hp_override:
        Optional explicit HP sets (stream id -> :class:`HPSet`). Used to
        reproduce the paper's section 4.4 example verbatim, whose printed
        ``HP_3`` deviates from the path-overlap rule (see DESIGN.md), and
        generally useful for what-if analysis.
    use_modify:
        Apply ``Modify_Diagram`` for indirect elements (paper behaviour).
        ``False`` keeps the pessimistic direct-only diagram (E-AB1 ablation).
    modify_fixpoint:
        Iterate the release sweep to a fixpoint instead of the paper's
        single BFS pass.
    modify_granularity:
        ``"instance"`` (default, matches the paper's worked example) or
        ``"slot"`` (the paper's literal per-slot prose) — see
        :mod:`repro.core.modify`. Slot granularity is never looser.
    residency_margin:
        Extra slots charged per instance of every *equal-priority* HP
        member. The paper's analysis charges an interfering instance
        exactly its ``C`` channel slots, which is correct for
        higher-priority preemption (separate VCs) but not for
        equal-priority contention: equal-priority messages share one VC
        per port, and a worm owns each VC from header arrival until its
        tail drains — one slot longer than its channel occupancy. The
        reproduction observed exactly +1-slot bound violations from this
        effect (EXPERIMENTS.md, finding F-4); ``residency_margin=1``
        eliminated every observed violation. Default 0 = the paper's
        analysis, empirically unsound by one slot under equal-priority
        contention.
    interference_margin:
        Extra slots charged per instance of **every** HP member — the
        ``buffered`` backend's generalisation of ``residency_margin`` to
        all interference: router buffering and backpressure keep a worm
        resident on contested channels beyond its nominal ``C`` slots
        (the effect arXiv:1606.02942 analyses). Strictly pessimistic, so
        bounds grow monotonically with the margin. Default 0.
    eqp_instance_cap:
        Apply the ``tighter`` backend's FCFS refinement: a *direct*
        equal-priority member can block the analysed stream at most once
        per shared channel, because equal-priority arbitration is
        first-come-first-served on message release time — once the
        analysed header waits at a channel, a later-released instance
        cannot overtake it, and closure feasibility (``U <= T``) rules
        out backlogged earlier-released instances. A member only
        qualifies when no third stream at the same priority shares any
        of its channels: chain-mediated re-blocking through an
        equal-priority convoy defeats the argument otherwise. Qualified
        members have their window instances beyond the cap discharged
        from the diagram before any release decision. Default off (= the
        paper's charging).
    backend:
        Label stamped into every :class:`StreamVerdict` (reports carry it
        through the service and CLI). Purely descriptive.
    """

    #: Optional per-phase timing sink (any object with a mutable
    #: ``diagram_seconds`` attribute, e.g. the admission engine's
    #: :class:`~repro.service.engine.EngineStats`): when set,
    #: :meth:`cal_u` accumulates the wall time spent building timing
    #: diagrams into it. Class-level default keeps the hot path to a
    #: single attribute test when unused.
    timing_sink = None

    def __init__(
        self,
        streams: StreamSet,
        routing: Optional[RoutingAlgorithm] = None,
        *,
        latency_model: Optional[LatencyModel] = None,
        channels: Optional[Mapping[int, FrozenSet[Channel]]] = None,
        hp_override: Optional[Mapping[int, HPSet]] = None,
        use_modify: bool = True,
        modify_fixpoint: bool = False,
        modify_granularity: str = "instance",
        residency_margin: int = 0,
        interference_margin: int = 0,
        eqp_instance_cap: bool = False,
        backend: str = "kim98",
    ):
        if residency_margin < 0:
            raise AnalysisError(
                f"residency_margin must be >= 0, got {residency_margin}"
            )
        if interference_margin < 0:
            raise AnalysisError(
                f"interference_margin must be >= 0, got {interference_margin}"
            )
        self.residency_margin = residency_margin
        self.interference_margin = interference_margin
        self.eqp_instance_cap = eqp_instance_cap
        self.backend = backend
        if len(streams) == 0:
            raise AnalysisError("cannot analyse an empty stream set")
        if routing is None and channels is None:
            raise AnalysisError("pass 'routing' and/or 'channels'")
        self.routing = routing
        self.latency_model = latency_model or NoLoadLatency()
        self.use_modify = use_modify
        self.modify_fixpoint = modify_fixpoint
        self.modify_granularity = modify_granularity

        if channels is None:
            assert routing is not None
            channels = stream_channels(streams, routing)
        self.channels: Mapping[int, FrozenSet[Channel]] = dict(channels)

        # Resolve latencies up front so every stream carries its L_i.
        resolved = StreamSet()
        for s in streams:
            if s.latency is None:
                hops = len(self.channels[s.stream_id])
                resolved.add(s.with_latency(self.latency_model.latency(s, hops)))
            else:
                resolved.add(s)
        self.streams = resolved

        self.blockers = direct_blockers(self.streams, self.channels)
        if hp_override is not None:
            unknown = set(hp_override) - set(self.streams.ids())
            if unknown:
                raise AnalysisError(
                    f"hp_override names unknown streams {sorted(unknown)}"
                )
            base = build_all_hp_sets(self.streams, channels=self.channels)
            base.update(
                {i: hp.without_self() for i, hp in hp_override.items()}
            )
            self.hp_sets: Dict[int, HPSet] = base
        else:
            self.hp_sets = build_all_hp_sets(
                self.streams, channels=self.channels
            )

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
        routing: Optional[RoutingAlgorithm] = None,
        latency_model: Optional[LatencyModel] = None,
        use_modify: bool = True,
        modify_fixpoint: bool = False,
        modify_granularity: str = "instance",
        residency_margin: int = 0,
        interference_margin: int = 0,
        eqp_instance_cap: bool = False,
        backend: str = "kim98",
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
        ``MessageStream.latency`` set); ``channels``, ``blockers`` and
        ``hp_sets`` must cover exactly the ids in ``streams``.
        """
        if len(streams) == 0:
            raise AnalysisError("cannot analyse an empty stream set")
        ids = set(streams.ids())
        for name, mapping in (
            ("channels", channels),
            ("blockers", blockers),
            ("hp_sets", hp_sets),
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
        if residency_margin < 0:
            raise AnalysisError(
                f"residency_margin must be >= 0, got {residency_margin}"
            )
        if interference_margin < 0:
            raise AnalysisError(
                f"interference_margin must be >= 0, got {interference_margin}"
            )
        self = cls.__new__(cls)
        self.residency_margin = residency_margin
        self.interference_margin = interference_margin
        self.eqp_instance_cap = eqp_instance_cap
        self.backend = backend
        self.routing = routing
        self.latency_model = latency_model or NoLoadLatency()
        self.use_modify = use_modify
        self.modify_fixpoint = modify_fixpoint
        self.modify_granularity = modify_granularity
        self.channels = dict(channels)
        self.streams = streams
        self.blockers = dict(blockers)
        self.hp_sets = dict(hp_sets)
        return self

    # ------------------------------------------------------------------ #
    # Per-stream bound (Cal_U)
    # ------------------------------------------------------------------ #

    def diagram_for(
        self,
        stream_id: int,
        horizon: Optional[int] = None,
        *,
        apply_modify: Optional[bool] = None,
    ) -> Tuple[TimingDiagram, Dict[int, Set[int]]]:
        """Return the (final) timing diagram and removed instances for a stream.

        ``horizon`` defaults to the stream's deadline; ``apply_modify``
        defaults to the analyzer-wide setting.
        """
        stream = self.streams[stream_id]
        dtime = int(horizon) if horizon is not None else stream.deadline
        hp = self.hp_sets[stream_id]
        if apply_modify is None:
            apply_modify = self.use_modify
        effective = self._effective_streams(stream)
        seeds = self._cap_seeds(stream, dtime)
        if apply_modify and hp.indirect_ids():
            return modify_diagram(
                stream,
                hp,
                effective,
                self.blockers,
                dtime,
                fixpoint=self.modify_fixpoint,
                granularity=self.modify_granularity,
                initial_removed=seeds,
            )
        rows = tuple(
            sorted(
                (effective[e.stream_id] for e in hp
                 if e.stream_id != stream_id),
                key=lambda s: (-s.priority, s.stream_id),
            )
        )
        return (
            generate_init_diagram(stream_id, rows, dtime, removed=seeds),
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
        if self.residency_margin == 0 and self.interference_margin == 0:
            return self.streams
        hp = self.hp_sets[owner.stream_id]
        inflate: Dict[int, int] = {}
        for e in hp:
            if e.stream_id == owner.stream_id:
                continue
            margin = self.interference_margin
            if (self.residency_margin
                    and self.streams[e.stream_id].priority == owner.priority):
                margin += self.residency_margin
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
        if not self.eqp_instance_cap:
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
        """Compute ``U`` for one stream over one horizon (the paper's
        ``Cal_U``). Returns a verdict with ``upper_bound == -1`` when the
        bound exceeds the horizon."""
        stream = self.streams[stream_id]
        # Called once per stream per horizon: guard the span with an
        # explicit active() check so the disabled path costs one call and
        # a None test instead of a nullcontext enter/exit.
        tr = _trace_active()
        if horizon is None and tr is None:
            return self._cal_u_adaptive(stream)
        dtime = int(horizon) if horizon is not None else stream.deadline
        if tr is not None:
            tr.begin("cal_u", "analysis", stream=stream_id, horizon=dtime)
        try:
            sink = self.timing_sink
            if sink is not None:
                t0 = time.perf_counter()
            diagram, removed = self.diagram_for(stream_id, dtime)
            if sink is not None:
                sink.diagram_seconds += time.perf_counter() - t0
            assert stream.latency is not None
            u = diagram.upper_bound(stream.latency)
            if tr is not None:
                tr.instant("cal_u.result", "analysis", stream=stream_id, u=u)
        finally:
            if tr is not None:
                tr.end("cal_u", "analysis")
        return StreamVerdict(
            stream=stream,
            upper_bound=u,
            horizon=dtime,
            feasible=0 < u <= stream.deadline,
            removed_instances={
                k: frozenset(v) for k, v in removed.items()
            },
            backend=self.backend,
        )

    def _cal_u_adaptive(self, stream: MessageStream) -> StreamVerdict:
        """Deadline-horizon verdict computed over the smallest safe prefix.

        The diagram construction is prefix-stable: truncating the horizon
        truncates period windows on the right, and the greedy fill claims
        slots left to right against a busy-from-above mask that itself
        only depends on the prefix — so the cells in ``[1, h]`` are
        identical for every horizon ``>= h``. A bound found at a shorter
        horizon therefore equals the deadline-horizon bound provided
        every window that can still disturb slots ``<= U`` closes within
        the horizon: trivially true for direct-only HP sets (guard 0),
        and within the max member period for ``Modify_Diagram`` release
        decisions (the same guard :meth:`upper_bound` applies). Since
        deadlines routinely dwarf the bound, starting from the
        busy-window estimate instead of the deadline cuts the dominant
        admission-path cost; the returned verdict is bit-identical to
        the plain run except that ``removed_instances`` only covers the
        evaluated prefix (no release decision past ``U + guard`` can
        exist within it anyway).
        """
        sid = stream.stream_id
        deadline = stream.deadline
        hp = self.hp_sets[sid]
        assert stream.latency is not None
        guard = 0
        if self.use_modify and hp.indirect_ids():
            guard = max(
                (self.streams[e.stream_id].period for e in hp
                 if e.stream_id != sid),
                default=0,
            )
        effective = self._effective_streams(stream)
        members = [effective[e.stream_id] for e in hp
                   if e.stream_id != sid]
        util = sum(m.length / m.period for m in members)
        h = deadline
        if util < 0.999:
            total_c = sum(m.length for m in members)
            est = int(
                (stream.latency + total_c) / (1.0 - util)
            ) + guard + 1
            est = max(stream.latency, est, 1)
            # Round up to a power of two: the slack past the estimate
            # spares most verdicts a second pass at a doubled horizon.
            h = min(deadline, 1 << (est - 1).bit_length())
        sink = self.timing_sink
        while True:
            if sink is not None:
                t0 = time.perf_counter()
            diagram, removed = self.diagram_for(sid, h)
            if sink is not None:
                sink.diagram_seconds += time.perf_counter() - t0
            u = diagram.upper_bound(stream.latency)
            if h >= deadline or (u > 0 and u + guard <= h):
                break
            h = min(max(h * 2, h + guard), deadline)
        return StreamVerdict(
            stream=stream,
            upper_bound=u,
            horizon=deadline,
            feasible=0 < u <= deadline,
            removed_instances={
                k: frozenset(v) for k, v in removed.items()
            },
            backend=self.backend,
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
        stream = self.streams[stream_id]
        assert stream.latency is not None
        hp = self.hp_sets[stream_id]
        # Instances whose window straddles the horizon are truncated, which
        # can perturb Modify_Diagram release decisions near the boundary.
        # Truncation effects only propagate forward in time, so a bound is
        # horizon-independent once every window containing a slot <= U closes
        # before the horizon: require U + max member period <= horizon.
        guard = max(
            (self.streams[e.stream_id].period for e in hp
             if e.stream_id != stream_id),
            default=0,
        )
        # Busy-window estimate: the interference of the HP set within t is
        # at most sum(ceil(t/T_k) * C_k) <= t * util + sum(C_k), so
        # t = (L + sum C) / (1 - util) slots always contain L free slots
        # when util < 1. Starting there (plus the guard) makes the search
        # single-shot for every non-saturated stream instead of doubling
        # its way up from the deadline.
        effective = self._effective_streams(stream)
        members = [effective[e.stream_id] for e in hp
                   if e.stream_id != stream_id]
        util = sum(m.length / m.period for m in members)
        total_c = sum(m.length for m in members)
        assert stream.latency is not None
        if util < 0.999:
            estimate = int((stream.latency + total_c) / (1.0 - util)) + guard + 1
        else:
            estimate = max_horizon
        horizon = min(
            max(stream.deadline, stream.latency, estimate, 1), max_horizon
        )
        while True:
            verdict = self.cal_u(stream_id, horizon)
            u = verdict.upper_bound
            if u > 0 and (u + guard <= horizon or horizon >= max_horizon):
                return u
            if horizon >= max_horizon:
                return -1
            horizon = min(horizon * 2, max_horizon)

    # ------------------------------------------------------------------ #
    # Whole-set test (Determine-Feasibility)
    # ------------------------------------------------------------------ #

    def determine_feasibility(
        self, *, explain: bool = False
    ) -> FeasibilityReport:
        """Run the paper's ``Determine-Feasibility`` over all streams.

        Streams are processed from the highest priority level downwards
        (the ``GList`` loop); the report is a success iff every stream's
        bound exists within its deadline. With ``explain=True`` the report
        additionally carries full per-stream bound provenance (see
        :mod:`repro.obs.provenance`) — an offline/debug path that roughly
        doubles the analysis cost.
        """
        with _span(
            "determine_feasibility", "analysis", n=len(self.streams),
            explain=explain,
        ):
            verdicts: Dict[int, StreamVerdict] = {}
            for stream in self.streams.sorted_by_priority():
                verdicts[stream.stream_id] = self.cal_u(stream.stream_id)
            success = all(v.feasible for v in verdicts.values())
            explanations = None
            if explain:
                # Local import: provenance depends on this module.
                from ..obs.provenance import explain_report

                explanations = explain_report(self)
        return FeasibilityReport(
            verdicts=verdicts, success=success, explanations=explanations
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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FeasibilityAnalyzer(n_streams={len(self.streams)}, "
            f"use_modify={self.use_modify})"
        )
