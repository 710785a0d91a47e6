"""The differential oracle: run one case through analysis and simulation
and check the reproduction's standing invariants.

Every registered bound backend (:mod:`repro.core.backends`) runs on every
case — the oracle is *cross-backend*: soundness is checked per backend
against the same simulation, refinement relations are checked between
backends, and each backend's verdict digest is pinned for determinism.

For a :class:`~repro.fuzz.generator.FuzzCase` the oracle checks:

``nondeterminism``
    Two independently constructed analyzers must produce identical bounds
    — per backend (the analysis is a pure function of the stream set and
    the backend's configuration). Each backend's canonical verdict digest
    (sha256 over the sorted ``stream id -> U`` map) must be identical
    across constructions.
``monotonicity``
    A backend that declares ``refines="X"`` (e.g. ``tighter`` refines
    ``kim98``) must never be looser than ``X``: per stream its bound is
    ``<=`` X's whenever X's is finite, and its admitted set is a superset
    of X's — the tighter analysis never rejects a stream set the
    reference admits.
``soundness``
    For every stream a backend *admits*, no simulated transmission
    delay may exceed that backend's ``U_i``. What "admits" means — ``0 <
    U_i <= min(T_i, D_i)`` for the stream and for every member of its
    transitive HP closure (finding F-7) — is stated once, with its
    reasons, in :func:`repro.analysis.observe.admitted_scope`; the
    comparison is :meth:`repro.analysis.observe.Observation.excesses`.
``release-monotonicity``
    A served release re-checks nothing, so removing any one stream from
    a set a backend admits whole must neither raise another's bound nor
    leave it unbounded (the engine counts ``release_raised_bound``).
``sim-error``
    The simulator must not raise (deadlock watchdog, internal invariant)
    on any generated workload; X-Y routing is deadlock-free, so any raise
    is a model bug.

A positive ``case.bound_delta`` weakens every admitted bound — of every
backend — to ``max(1, U_i - bound_delta)`` before the soundness
comparison: the self-test hook that proves the harness can catch, shrink
and replay a genuinely unsound analysis, regardless of which backend it
ships in.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from ..analysis.observe import admitted_scope, observe
from ..core import backends as _backends
from ..core.feasibility import FeasibilityAnalyzer
from ..core.streams import StreamSet
from ..errors import ReproError
from .generator import FuzzCase

__all__ = [
    "FuzzViolation",
    "CaseResult",
    "run_case",
    "bounds_digest",
]


@dataclass(frozen=True)
class FuzzViolation:
    """One invariant violation observed while running a case."""

    # "soundness" | "nondeterminism" | "sim-error" | "monotonicity"
    # | "release-monotonicity"
    kind: str
    detail: str
    stream_id: Optional[int] = None
    observed: Optional[int] = None
    bound: Optional[int] = None
    #: Bound backend the violation is attributed to (``None`` for
    #: backend-independent checks such as a simulator error).
    backend: Optional[str] = None

    def to_spec(self) -> Dict[str, object]:
        out: Dict[str, object] = {"kind": self.kind, "detail": self.detail}
        if self.stream_id is not None:
            out["stream_id"] = self.stream_id
        if self.observed is not None:
            out["observed"] = self.observed
        if self.bound is not None:
            out["bound"] = self.bound
        if self.backend is not None:
            out["backend"] = self.backend
        return out


@dataclass(frozen=True)
class CaseResult:
    """Everything the oracle learned about one case."""

    case: FuzzCase
    #: Streams the reference (kim98) analysis admits
    #: (:func:`repro.analysis.observe.admitted_scope`).
    admitted: Tuple[int, ...]
    #: Maximum observed delay per stream that produced samples.
    max_observed: Dict[int, int]
    violations: Tuple[FuzzViolation, ...]
    #: Raw bounds per registered backend (``backend name -> sid -> U``).
    backend_bounds: Dict[str, Dict[int, int]] = field(default_factory=dict)
    #: Admitted set per registered backend.
    backend_admitted: Dict[str, Tuple[int, ...]] = field(
        default_factory=dict
    )
    #: Canonical verdict digest per backend (sha256 hex).
    digests: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> Tuple[str, ...]:
        """Distinct violation kinds, sorted."""
        return tuple(sorted({v.kind for v in self.violations}))


def bounds_digest(bounds: Dict[int, int]) -> str:
    """Canonical sha256 digest of one backend's verdict map."""
    canonical = json.dumps(
        {str(sid): bounds[sid] for sid in sorted(bounds)},
        separators=(",", ":"), sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _analysis_bounds(
    case: FuzzCase,
    backend: str = "kim98",
) -> Tuple[Dict[int, int], Dict[int, Tuple[int, ...]]]:
    """One fresh analysis pass under ``backend``.

    Returns ``(stream id -> upper bound over the deadline horizon,
    stream id -> HP-set member ids)``. The HP sets are backend
    *independent* (they derive from routes and priorities alone); only
    the bounds differ between backends.
    """
    _, routing, streams = case.build()
    analyzer = FeasibilityAnalyzer(streams, routing, backend=replace(
        _backends.get(backend), residency_margin=case.residency_margin
    ))
    bounds = analyzer.determine_feasibility().upper_bounds()
    hp_ids = {sid: analyzer.hp_sets[sid].ids() for sid in bounds}
    return bounds, hp_ids


def _release_raises(case: FuzzCase, backend: str, bounds: Dict[int, int],
                    hp_ids: Dict[int, Tuple[int, ...]]) -> list:
    """Release each stream of a set ``backend`` admits whole, in turn:
    a violation per remaining bound that rose or became ``-1``."""
    _, routing, streams = case.build()
    if len(streams) < 2 or not all(0 < bounds[s.stream_id] <= s.deadline
                                   for s in streams):
        return []
    declared = replace(_backends.get(backend),
                       residency_margin=case.residency_margin)
    out = []
    for x in sorted(bounds):
        hit = [sid for sid in sorted(bounds) if x in hp_ids[sid]]
        if not hit:
            continue
        analyzer = FeasibilityAnalyzer(
            StreamSet(s for s in streams if s.stream_id != x), routing,
            backend=declared)
        for sid in hit:
            u = analyzer.cal_u(sid).upper_bound
            if u < 0 or u > bounds[sid]:
                out.append(FuzzViolation(
                    "release-monotonicity", f"[{backend}] releasing stream "
                    f"{x} moved the bound of stream {sid} from "
                    f"{bounds[sid]} to {u}", sid, None, u, backend))
    return out


def run_case(
    case: FuzzCase,
    *,
    analysis_repeats: int = 2,
) -> CaseResult:
    """Run the full differential pipeline on one case."""
    violations = []

    # --- analysis: every registered backend (+ determinism) ------------ #
    names = _backends.names()
    backend_bounds: Dict[str, Dict[int, int]] = {}
    digests: Dict[str, str] = {}
    hp_ids: Dict[int, Tuple[int, ...]] = {}
    for name in names:
        bounds, hp = _analysis_bounds(case, name)
        backend_bounds[name] = bounds
        digests[name] = bounds_digest(bounds)
        if not hp_ids:
            hp_ids = hp
    for _ in range(max(0, analysis_repeats - 1)):
        for name in names:
            again, _ = _analysis_bounds(case, name)
            if bounds_digest(again) != digests[name]:
                first = backend_bounds[name]
                diff = sorted(
                    sid for sid in first if again.get(sid) != first[sid]
                )
                violations.append(FuzzViolation(
                    kind="nondeterminism",
                    detail=(
                        f"repeated {name} analysis disagrees on streams "
                        f"{diff}: {[first[i] for i in diff]} vs "
                        f"{[again.get(i) for i in diff]}"
                    ),
                    backend=name,
                ))
        if any(v.kind == "nondeterminism" for v in violations):
            break

    backend_admitted = {
        name: admitted_scope(case.streams, backend_bounds[name], hp_ids)
        for name in names
    }

    # --- refinement monotonicity --------------------------------------- #
    for name in names:
        ref = _backends.get(name).refines
        if ref is None or ref not in backend_bounds:
            continue
        ref_bounds, own_bounds = backend_bounds[ref], backend_bounds[name]
        for sid in sorted(ref_bounds):
            u_ref, u_own = ref_bounds[sid], own_bounds.get(sid)
            if u_ref > 0 and u_own is not None and (
                u_own < 0 or u_own > u_ref
            ):
                violations.append(FuzzViolation(
                    kind="monotonicity",
                    detail=(
                        f"{name} bound {u_own} for stream {sid} is looser "
                        f"than {ref} bound {u_ref}"
                    ),
                    stream_id=sid,
                    bound=u_own,
                    backend=name,
                ))
        lost = sorted(
            set(backend_admitted[ref]) - set(backend_admitted[name])
        )
        if lost:
            violations.append(FuzzViolation(
                kind="monotonicity",
                detail=(
                    f"{name} rejects streams {lost} that {ref} admits "
                    f"(admitted sets: {ref}={backend_admitted[ref]}, "
                    f"{name}={backend_admitted[name]})"
                ),
                backend=name,
            ))

    for name in names:
        violations += _release_raises(case, name, backend_bounds[name],
                                      hp_ids)

    # --- simulation, then soundness: admitted bounds dominate it ------- #
    _, routing, streams = case.build()
    max_observed: Dict[int, int] = {}
    try:
        obs = observe(
            routing, streams, sim_time=case.sim_time,
            bounds=backend_bounds, hp_ids=hp_ids, phases=case.phases(),
        )
    except ReproError as exc:
        violations.append(FuzzViolation(
            kind="sim-error",
            detail=f"simulator raised {type(exc).__name__}: {exc}",
        ))
    else:
        max_observed = obs.max_observed
        for name in names:
            for sid, observed, u in obs.excesses(
                name, bound_delta=case.bound_delta
            ):
                violations.append(FuzzViolation(
                    kind="soundness",
                    detail=(
                        f"[{name}] stream {sid} (P{streams[sid].priority}) "
                        f"observed delay {observed} exceeds bound {u}"
                        + (f" (U={backend_bounds[name][sid]} perturbed by "
                           f"-{case.bound_delta})"
                           if case.bound_delta else "")
                    ),
                    stream_id=sid,
                    observed=observed,
                    bound=u,
                    backend=name,
                ))

    return CaseResult(
        case=case,
        admitted=backend_admitted.get("kim98", backend_admitted[names[0]]),
        max_observed=max_observed,
        violations=tuple(violations),
        backend_bounds=backend_bounds,
        backend_admitted=backend_admitted,
        digests=digests,
    )
