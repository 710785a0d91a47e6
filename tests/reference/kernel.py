"""The paper's literal row scan, the oracle for the bitset row fill
(:func:`repro.core.timing_diagram._fill_row`); ``TestKernelParity`` in
``tests/test_admission_fastpath.py`` fuzzes one against the other,
converting the boolean arrays to row ints and back at the boundary."""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["fill_masks_scan"]


def fill_masks_scan(
    busy: np.ndarray,
    period: int,
    length: int,
    nwin: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Walk each window, claim the first ``C`` free slots, mark skipped
    busy slots WAITING while unsatisfied; return ``(alloc, wait)``."""
    n = busy.shape[0]
    alloc = np.zeros(n, np.bool_)
    wait = np.zeros(n, np.bool_)
    for w in range(nwin):
        lo = w * period + 1
        hi = (w + 1) * period
        if hi > n - 1:
            hi = n - 1
        got = 0
        for t in range(lo, hi + 1):
            if busy[t]:
                if got < length:
                    wait[t] = True
            elif got < length:
                alloc[t] = True
                got += 1
    return alloc, wait
