"""Row-fill kernel for the timing diagram (``_fill_row``'s inner core).

One call computes a row's ALLOCATED and WAITING masks against the
busy-from-above mask — the innermost loop of ``Generate_Init_Diagram``
and therefore of every ``Cal_U`` — by the vectorised free-rank
construction: cumulative-sum the FREE slots, subtract the count at each
window start, and a slot is allocated iff it is free with in-window rank
``1..C`` (waiting iff busy with rank ``< C``). Identical to the paper's
scan by the rank/scan equivalence argued in
:mod:`repro.core.timing_diagram`; the literal per-window scan is the
test oracle (``tests/reference/kernel.py``) the suite fuzzes this
against.

The per-``(period, dtime)`` *window arrays* — the release times
``starts`` and the clipped slot-to-window index map — are memoised
process-wide because an engine recomputes diagrams for the same streams
over the same horizons on every admission.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["fill_masks", "fill_masks_numpy", "window_arrays"]

# ---------------------------------------------------------------------- #
# Window arrays (shared by the kernel and the lazy record builder)
# ---------------------------------------------------------------------- #

_WINDOW_CACHE: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
#: starts[win] materialised per key — the per-slot window-start gather the
#: kernel would otherwise recompute on every call.
_WSTART_CACHE: Dict[Tuple[int, int], np.ndarray] = {}
_WINDOW_CACHE_CAP = 4096


def window_arrays(period: int, dtime: int) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(starts, win)`` for a period over a horizon, memoised.

    ``starts`` are the instance release times ``0, T, 2T, ...`` below
    ``dtime``; ``win[t]`` is the window index of slot ``t`` clipped to
    the last window (slot 0 maps into window 0 but is masked out by the
    kernel). Both arrays are shared and must not be mutated.
    """
    key = (period, dtime)
    cached = _WINDOW_CACHE.get(key)
    if cached is not None:
        return cached
    starts = np.arange(0, dtime, period)
    win = np.clip(
        (np.arange(dtime + 1) - 1) // period, 0, len(starts) - 1
    )
    if len(_WINDOW_CACHE) >= _WINDOW_CACHE_CAP:
        _WINDOW_CACHE.clear()
        _WSTART_CACHE.clear()
    _WINDOW_CACHE[key] = (starts, win)
    _WSTART_CACHE[key] = starts[win]
    return starts, win


# ---------------------------------------------------------------------- #
# Kernel
# ---------------------------------------------------------------------- #


def fill_masks_numpy(
    busy: np.ndarray,
    period: int,
    length: int,
    starts: np.ndarray,
    win: np.ndarray,
    wstart: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised free-rank fill: return ``(alloc, wait)`` masks.

    The rank tests are fused into one comparison: a FREE slot is taken
    iff its in-window free-rank is ``<= C`` (the rank of a free slot is
    always ``>= 1`` — the slot counts itself), and a BUSY slot waits iff
    its rank is ``< C``, i.e. rank plus the busy flag is ``<= C``.
    """
    free = ~busy
    free[0] = False
    fc = np.cumsum(free)
    if wstart is None:
        wstart = starts[win]
    taken = fc - fc[wstart] + busy <= length
    alloc = free & taken
    wait = busy & taken
    alloc[0] = wait[0] = False
    return alloc, wait


def fill_masks(
    busy: np.ndarray, period: int, length: int, dtime: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fill one row over its memoised window arrays; return
    ``(alloc, wait, starts)``."""
    starts, win = window_arrays(period, dtime)
    alloc, wait = fill_masks_numpy(
        busy, period, length, starts, win,
        _WSTART_CACHE.get((period, dtime)),
    )
    return alloc, wait, starts
