"""Pluggable bound backends: named configurations of the feasibility analysis.

Every admission verdict in this repo is ultimately a delay upper bound ``U``
compared against ``min(T, D)``. The paper's analysis (Kim98) is one way to
compute ``U``; the successor literature bounds the *same* workloads with
different tightness — Nikolić/Indrusiak's tighter priority-preemptive
analysis (arXiv:1605.07888) and Indrusiak/Burns's buffering-effects analysis
(arXiv:1606.02942). A :class:`BoundBackend` names one such analysis as a
frozen set of :class:`~repro.core.feasibility.FeasibilityAnalyzer` keyword
arguments, so callers (engine, CLI, fuzz oracle, benchmarks) select an
analysis by name instead of by knob soup.

Registered backends
-------------------
``kim98``
    The paper's analysis verbatim — worst-case timing diagram plus the
    instance-granular ``Modify_Diagram`` single sweep. The reference point:
    every other backend is differential-tested against it.
``tighter``
    Kim98 plus (i) the ``Modify_Diagram`` fixpoint sweep and (ii) an FCFS
    equal-priority instance cap in the spirit of arXiv:1605.07888's
    interference refinements: a *direct* equal-priority HP member whose
    channels are shared with no third stream at the owner's priority can
    block the owner's header at most once per shared channel under the
    simulator's FCFS arbitration, so the diagram charges it at most
    ``|channels(member) ∩ channels(owner)|`` instances; later windows are
    discharged before the diagram is built. Declares ``refines="kim98"``:
    its bound never exceeds Kim98's on the same prepared inputs, which the
    cross-backend fuzz oracle enforces (bounds ≤, admitted ⊇).
``buffered``
    Kim98 with every HP member's charged length inflated by one flit slot
    (``interference_margin=1``), modelling the per-hop buffering /
    backpressure residency that arXiv:1606.02942 shows real routers add on
    top of the idealised wormhole model. Strictly pessimistic, hence sound
    by construction; useful as the conservative end of the differential
    spread.

Use :func:`get` / :func:`names` / :func:`default_name` for lookup. The
process-wide default honours the ``REPRO_ANALYSIS_BACKEND`` environment
variable (validated — an unknown name raises at first use rather than
silently meaning kim98).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from ..errors import AnalysisError
from .feasibility import FeasibilityAnalyzer
from .streams import StreamSet

__all__ = [
    "BoundBackend",
    "register",
    "get",
    "names",
    "default_name",
    "resolve_name",
    "ENV_VAR",
]

#: Environment variable naming the process-wide default backend.
ENV_VAR = "REPRO_ANALYSIS_BACKEND"


@dataclass(frozen=True)
class BoundBackend:
    """A named, frozen configuration of the feasibility analysis.

    Attributes
    ----------
    name:
        Registry key; also what the service persists in reports/journals.
    summary:
        One-line human description (surfaced by ``hello`` and the CLI).
    citation:
        Where the analysis comes from (paper section or arXiv id).
    refines:
        Name of a backend this one is a *refinement* of: on identical
        prepared inputs this backend's bound is never larger, so its
        admitted set is a superset. ``None`` when no such relation is
        claimed. The cross-backend fuzz oracle enforces declared
        refinements.
    analyzer_kwargs:
        Extra keyword arguments applied on top of the caller's when
        constructing a :class:`FeasibilityAnalyzer`.
    """

    name: str
    summary: str
    citation: str
    refines: Optional[str] = None
    analyzer_kwargs: Mapping[str, Any] = field(default_factory=dict)

    def analyzer(
        self,
        streams: StreamSet,
        routing,
        **kwargs: Any,
    ) -> FeasibilityAnalyzer:
        """Construct an analyzer for ``streams`` under this backend.

        ``kwargs`` are the caller's extras (latency model, residency
        margin...); the backend's own kwargs win on
        conflict so a backend cannot be accidentally un-configured.
        """
        merged = {**kwargs, **self.analyzer_kwargs, "backend": self.name}
        return FeasibilityAnalyzer(streams, routing, **merged)

    def analyzer_from_prepared(
        self,
        streams: StreamSet,
        channels,
        blockers,
        hp_sets,
        **kwargs: Any,
    ) -> FeasibilityAnalyzer:
        """`from_prepared` twin of :meth:`analyzer` (engine hot path)."""
        merged = {**kwargs, **self.analyzer_kwargs, "backend": self.name}
        return FeasibilityAnalyzer.from_prepared(
            streams, channels, blockers, hp_sets, **merged
        )


_REGISTRY: Dict[str, BoundBackend] = {}


def register(backend: BoundBackend, *, replace: bool = False) -> BoundBackend:
    """Add ``backend`` to the registry and return it.

    Re-registering an existing name is an error unless ``replace=True``
    (typo-guard: two modules silently fighting over a name would make
    verdicts depend on import order).
    """
    if not replace and backend.name in _REGISTRY:
        raise AnalysisError(
            f"backend {backend.name!r} is already registered"
        )
    if backend.refines is not None and backend.refines not in _REGISTRY:
        raise AnalysisError(
            f"backend {backend.name!r} refines unknown backend "
            f"{backend.refines!r}"
        )
    _REGISTRY[backend.name] = backend
    return backend


def get(name: str) -> BoundBackend:
    """Look up a backend by name; unknown names raise ``AnalysisError``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise AnalysisError(
            f"unknown analysis backend {name!r}; registered: "
            f"{', '.join(names())}"
        ) from None


def names() -> Tuple[str, ...]:
    """Registered backend names, registration order."""
    return tuple(_REGISTRY)


def resolve_name(name: Optional[str]) -> str:
    """Map an optional caller-supplied name to a validated backend name.

    ``None`` means "use the process default" (:func:`default_name`);
    anything else must be registered.
    """
    if name is None:
        return default_name()
    return get(name).name


def default_name() -> str:
    """The process-wide default backend name.

    Honours ``REPRO_ANALYSIS_BACKEND`` when set (and validates it — a
    typo'd override must fail loudly, not silently mean kim98);
    otherwise ``"kim98"``.
    """
    env = os.environ.get(ENV_VAR)
    if env:
        return get(env).name
    return "kim98"


register(BoundBackend(
    name="kim98",
    summary="the paper's timing-diagram analysis (single Modify sweep)",
    citation="Kim, Kim, Hong & Lee, ICPP 1998",
))

register(BoundBackend(
    name="tighter",
    summary=("Kim98 + Modify fixpoint + FCFS equal-priority instance cap "
             "(never looser than kim98)"),
    citation="arXiv:1605.07888 (Nikolić & Indrusiak)",
    refines="kim98",
    analyzer_kwargs={"modify_fixpoint": True, "eqp_instance_cap": True},
))

register(BoundBackend(
    name="buffered",
    summary=("Kim98 with one extra flit slot of per-member buffering "
             "residency (strictly pessimistic)"),
    citation="arXiv:1606.02942 (Indrusiak, Burns & Nikolić)",
    analyzer_kwargs={"interference_margin": 1},
))
