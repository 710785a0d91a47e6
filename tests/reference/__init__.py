"""Spec-level reference implementations, kept only as test oracles.

Each module is the straightforward version of something ``src/repro``
does a faster way, or a projection the tests compare runs by; the
equivalence tests require the two to agree bit for bit. Nothing under
``src/`` imports from here.

``diagram``  ``Generate_Init_Diagram`` / ``Modify_Diagram`` cell by cell;
             a from-scratch erased fill and the unshortened release scan
``kernel``   the paper's per-window row scan (vs the bitset row fill)
``sim``      the rescan-everything cycle loop (vs the movable-set one)
``engine``   from-scratch admission on every op (vs the incremental engine)
``hpset``    section 4.1 HP sets pair by pair (vs the blocking index)
``topology`` minimal hop counts (what minimal routes are checked against)
``trace``    canonical trace lines and span pairing (what determinism is)
"""

from .diagram import (
    cell_state,
    generate_init_diagram_reference,
    modify_diagram_reference,
)
from .engine import (
    AdmissionController,
    ReferenceEngine,
    ShadowedEngine,
    shadow,
)
from .kernel import fill_masks_scan
from .sim import RescanSimulator, stats_fingerprint
from .topology import hop_distance
from .trace import canonical_lines, pair_spans

__all__ = [
    "AdmissionController",
    "ReferenceEngine",
    "RescanSimulator",
    "ShadowedEngine",
    "canonical_lines",
    "cell_state",
    "fill_masks_scan",
    "generate_init_diagram_reference",
    "hop_distance",
    "modify_diagram_reference",
    "pair_spans",
    "shadow",
    "stats_fingerprint",
]
