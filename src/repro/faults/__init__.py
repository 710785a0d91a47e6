"""Deterministic fault injection for the channel broker (``repro chaos``).

Layout:

:mod:`repro.faults.plane`
    The fault plane: seeded one-shot faults armed at named sites, the
    four-layer taxonomy (persistence / protocol / engine / link) and the
    :class:`InjectedCrash` simulated-process-death signal.
:mod:`repro.faults.campaign`
    The chaos campaign driver, written once: seeded op schedules, a
    fault-free oracle per tenant, the faulted run with its retries, and
    the end-state bit-identity + zero-acked-lost invariants — plus the
    three deployments it targets (broker in process, broker over a
    socket, sharded fleet).

Only the plane is imported eagerly: :mod:`repro.service.persistence`
depends on it, while the campaign depends on the whole service and fleet
layers — importing the campaign here would be circular. Campaign symbols
are loaded on first attribute access instead.
"""

from .plane import (
    ENGINE_FAULTS,
    LAYER_OF,
    LINK_FAULTS,
    PERSISTENCE_FAULTS,
    PROTOCOL_FAULTS,
    SITE_JOURNAL_APPEND,
    FaultPlane,
    FaultSpec,
    InjectedCrash,
)

__all__ = [
    "ENGINE_FAULTS",
    "LAYER_OF",
    "LINK_FAULTS",
    "PERSISTENCE_FAULTS",
    "PROTOCOL_FAULTS",
    "SITE_JOURNAL_APPEND",
    "ChaosConfig",
    "ChaosReport",
    "FaultPlane",
    "FaultSpec",
    "InjectedCrash",
    "run_chaos_campaign",
]

_CAMPAIGN_EXPORTS = ("ChaosConfig", "ChaosReport", "run_chaos_campaign")


def __getattr__(name: str):
    if name in _CAMPAIGN_EXPORTS:
        from . import campaign

        return getattr(campaign, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
