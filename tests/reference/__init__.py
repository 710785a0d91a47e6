"""Spec-level reference implementations, kept only as test oracles.

Each module is the straightforward version of something ``src/repro``
does a faster way; the equivalence tests require the two to agree bit
for bit. Nothing under ``src/`` imports from here.

``diagram``  ``Generate_Init_Diagram`` / ``Modify_Diagram`` cell by cell
``kernel``   the paper's per-window row scan (vs the bitset row fill)
``sim``      the rescan-everything cycle loop (vs the movable-set one)
``engine``   from-scratch analysis on every op (vs the incremental engine)
"""

from .diagram import generate_init_diagram_reference, modify_diagram_reference
from .engine import ReferenceEngine, ShadowedEngine, shadow
from .kernel import fill_masks_scan
from .sim import RescanSimulator

__all__ = [
    "ReferenceEngine",
    "RescanSimulator",
    "ShadowedEngine",
    "fill_masks_scan",
    "generate_init_diagram_reference",
    "modify_diagram_reference",
    "shadow",
]
