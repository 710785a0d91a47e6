"""Deterministic fault plane: seeded injection at named fault sites.

The plane is the single source of truth for *which* faults fire *where*
during a chaos run (:mod:`repro.faults.campaign`). It is deliberately
dumb: it holds one-shot :class:`FaultSpec`\\ s armed per site, pops them
when the site is visited, and counts everything that fired. All
randomness (which op gets a fault, torn-write cut points) comes from a
single seeded :class:`random.Random`, so a campaign is reproducible from
its printed seed.

Four layers of faults are modelled:

persistence (fired inside :meth:`repro.service.persistence.BrokerState.append`)
    ``torn_write``
        A strict prefix of the journal record reaches the disk, then the
        process dies (:class:`InjectedCrash`). Recovery must skip the
        partial record.
    ``crash_after_append``
        The record is fully written and fsynced, then the process dies
        before the client is acknowledged. The op is durable but the ack
        is lost — the client's retry must be deduplicated by request id.
    ``fsync_error``
        The record is written but ``fsync`` raises ``OSError``. The
        broker must repair (truncate the uncertain record), roll the
        engine back, and degrade to read-only.
    ``disk_full``
        The write itself raises ``ENOSPC`` before any byte lands.
        Same degradation path, nothing to repair.

protocol (executed client-side by the campaign driver)
    ``drop_before_send``
        The connection is torn down before the request leaves.
    ``drop_after_send``
        The request is sent, then the connection is torn down before the
        response is read — the ack may be lost after the server applied
        the op (the idempotency scenario over the wire).
    ``garbage_bytes``
        A line of non-JSON bytes precedes the request.
    ``half_open``
        A second connection pipelines requests and half-closes its write
        side; every queued response must still arrive.
    ``slow_client``
        The request bytes dribble in over several writes (exercises the
        server's partial-line buffering and drain path).

engine (executed by the campaign driver between ops)
    ``cache_storm``
        :meth:`IncrementalAdmissionEngine.invalidate_caches` — every
        derived cache is dropped and rebuilt; verdicts must stay
        bit-identical.

link (executed by the campaign driver as schedule slots)
    ``link_fail``
        A topology link is killed mid-campaign (``fail_link``): affected
        streams are rerouted or evicted, and the failed-link set must
        survive crashes and recovery.
    ``link_restore``
        A previously killed link comes back (``restore_link``); the
        surviving streams are re-analysed under the healed topology.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "ENGINE_FAULTS",
    "FaultPlane",
    "FaultSpec",
    "InjectedCrash",
    "LAYER_OF",
    "LINK_FAULTS",
    "PERSISTENCE_FAULTS",
    "PROTOCOL_FAULTS",
    "SITE_JOURNAL_APPEND",
]

PERSISTENCE_FAULTS = (
    "torn_write",
    "crash_after_append",
    "fsync_error",
    "disk_full",
)
PROTOCOL_FAULTS = (
    "drop_before_send",
    "drop_after_send",
    "garbage_bytes",
    "half_open",
    "slow_client",
)
ENGINE_FAULTS = ("cache_storm",)
LINK_FAULTS = ("link_fail", "link_restore")

#: Fault kind -> layer name.
LAYER_OF: Dict[str, str] = {
    **{k: "persistence" for k in PERSISTENCE_FAULTS},
    **{k: "protocol" for k in PROTOCOL_FAULTS},
    **{k: "engine" for k in ENGINE_FAULTS},
    **{k: "link" for k in LINK_FAULTS},
}

#: The one server-side injection site (consulted by ``BrokerState.append``).
SITE_JOURNAL_APPEND = "journal.append"


class InjectedCrash(BaseException):
    """Simulated process death raised at a fault site.

    Deliberately derives from :class:`BaseException`: the broker wraps its
    request path in ``except Exception`` guards precisely so that no real
    error can kill the service, and a simulated crash must bypass those
    guards the way SIGKILL bypasses application code. Only the chaos
    harness installs a plane, so this never escapes in production use.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault: a kind plus kind-specific payload."""

    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in LAYER_OF:
            raise ValueError(f"unknown fault kind {self.kind!r}")

    @property
    def layer(self) -> str:
        return LAYER_OF[self.kind]


class FaultPlane:
    """Seeded store of armed one-shot faults, plus fired counters.

    Server-side sites (the journal append) call :meth:`take`; whatever is
    armed there fires exactly once. Driver-side faults (protocol, engine)
    are executed by the campaign itself and recorded via :meth:`record`,
    so one object accounts for the whole campaign.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = random.Random(seed)
        self._armed: Dict[str, List[FaultSpec]] = {}
        #: kind -> times fired.
        self.fired: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Arming / firing
    # ------------------------------------------------------------------ #

    def arm(self, site: str, spec: FaultSpec) -> None:
        """Queue a fault to fire at the next visit of ``site``."""
        self._armed.setdefault(site, []).append(spec)

    def disarm(self, site: str) -> int:
        """Discard any unfired faults at ``site``; return how many."""
        return len(self._armed.pop(site, []))

    def take(self, site: str) -> Optional[FaultSpec]:
        """Pop and return the next armed fault at ``site`` (recording it
        as fired), or ``None``."""
        queue = self._armed.get(site)
        if not queue:
            return None
        spec = queue.pop(0)
        self.record(spec.kind)
        return spec

    def record(self, kind: str) -> None:
        """Count one driver-side fault as fired."""
        if kind not in LAYER_OF:
            raise ValueError(f"unknown fault kind {kind!r}")
        self.fired[kind] = self.fired.get(kind, 0) + 1

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    def total_fired(self) -> int:
        return sum(self.fired.values())

    def counts_by_layer(self) -> Dict[str, Dict[str, int]]:
        """``{layer: {kind: count}}`` over everything that fired."""
        out: Dict[str, Dict[str, int]] = {
            "persistence": {}, "protocol": {}, "engine": {}, "link": {},
        }
        for kind, n in sorted(self.fired.items()):
            out[LAYER_OF[kind]][kind] = n
        return out

    def layers_covered(self) -> int:
        """How many of the four layers fired at least one fault."""
        return sum(1 for kinds in self.counts_by_layer().values() if kinds)
