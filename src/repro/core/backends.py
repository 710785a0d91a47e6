"""Bound backends: the one declaration of a feasibility analysis.

Every admission verdict in this repo is ultimately a delay upper bound ``U``
compared against ``min(T, D)``. The paper's analysis (Kim98) is one way to
compute ``U``; the successor literature bounds the *same* workloads with
different tightness — Nikolić/Indrusiak's tighter priority-preemptive
analysis (arXiv:1605.07888) and Indrusiak/Burns's buffering-effects analysis
(arXiv:1606.02942). A :class:`BoundBackend` declares one such analysis —
every rule :class:`~repro.core.feasibility.FeasibilityAnalyzer` applies,
as typed frozen fields validated once at construction — and the analyzer
takes it as its one ``backend`` argument. The engine, the hosts, the
server and the CLI select an analysis by registered name only; an
offline variant (an ablation, the fuzz oracle's residency margin) is a
:func:`dataclasses.replace` of a registered declaration, which keeps its
name.

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
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import AnalysisError

__all__ = [
    "BoundBackend",
    "KIM98",
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
    """A named, frozen declaration of the feasibility analysis.

    Attributes
    ----------
    name:
        Registry key; also what the service persists in reports/journals
        and what every :class:`~repro.core.feasibility.StreamVerdict`
        carries.
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
        from the diagram before any release decision, so the cap needs
        instance granularity. Default off (= the paper's charging).
    """

    name: str
    summary: str
    citation: str
    refines: Optional[str] = None
    use_modify: bool = True
    modify_fixpoint: bool = False
    modify_granularity: str = "instance"
    residency_margin: int = 0
    interference_margin: int = 0
    eqp_instance_cap: bool = False

    def __post_init__(self) -> None:
        for rule in ("residency_margin", "interference_margin"):
            margin = getattr(self, rule)
            if margin < 0:
                raise AnalysisError(f"{rule} must be >= 0, got {margin}")
        if self.modify_granularity not in ("instance", "slot"):
            raise AnalysisError(
                "modify_granularity must be 'instance' or 'slot', got "
                f"{self.modify_granularity!r}"
            )
        if self.eqp_instance_cap and self.modify_granularity != "instance":
            raise AnalysisError(
                "eqp_instance_cap requires instance granularity (its "
                "discharged windows are whole instances)"
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


#: The paper's analysis: the analyzer's default, whatever
#: ``REPRO_ANALYSIS_BACKEND`` says.
KIM98 = register(BoundBackend(
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
    modify_fixpoint=True,
    eqp_instance_cap=True,
))

register(BoundBackend(
    name="buffered",
    summary=("Kim98 with one extra flit slot of per-member buffering "
             "residency (strictly pessimistic)"),
    citation="arXiv:1606.02942 (Indrusiak, Burns & Nikolić)",
    interference_margin=1,
))
