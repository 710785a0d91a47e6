"""Host-speed calibration for the bench spine.

Identical work on a shared host drifts by tens of percent in wall *and*
CPU time from one minute to the next, because the host itself speeds up
and slows down. Every timed segment of the spine is therefore bracketed
by runs of one frozen kernel, and reported in *calibrated* units::

    calibrated = raw * CAL_REF_S / mean(kernel time before, kernel time after)

The kernel does the kind of work the admission stack does (JSON encode
and decode of an admit request, dict churn, a small numpy reduction), so
a host that is 20 % slower at the stack is about 20 % slower at the
kernel. A change that alters how memory-bound the stack is breaks that
proportionality; see README.md, "when to distrust calibrated units".

FROZEN: ``kernel()`` and ``CAL_REF_S`` define the unit of every number
the spine ever reported. Editing either silently rescales the whole
history, so neither is edited after the PR that added this file.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Callable, Dict, List

import numpy as np

#: Kernel time on the host the unit was defined on, in seconds. A run on
#: a host of exactly that speed reports calibrated == raw.
CAL_REF_S = 0.004

_ITERATIONS = 160

_REQUEST = {
    "op": "admit",
    "id": 12345,
    "rid": "s0-r0-12345",
    "streams": [
        {"src": 17, "dst": 83, "priority": 7, "period": 240,
         "length": 5, "deadline": 180},
        {"src": 4, "dst": 61, "priority": 2, "period": 133,
         "length": 8, "deadline": 97},
    ],
}
_VECTOR = np.arange(4096, dtype=np.int64)


def kernel() -> float:
    """Run the frozen kernel once; return the CPU seconds it took.

    CPU time of the calling thread, not wall time: the probe also runs
    while a starting server competes for the same CPU, and being
    descheduled must not read as a slow host. (On the hosts measured the
    speed swings show up in CPU time exactly as they do in wall time.)
    """
    t0 = time.thread_time()
    table: Dict[int, int] = {}
    acc = 0
    for i in range(_ITERATIONS):
        line = json.dumps(_REQUEST, separators=(",", ":"), sort_keys=True)
        back = json.loads(line)
        acc += len(line) + back["streams"][1]["length"]
        for j in range(24):
            table[(i * 31 + j) & 1023] = i + j
        if i & 1:
            table.pop((i * 17) & 1023, None)
        acc += int((_VECTOR * (i & 7)).sum() & 0xFF)
    elapsed = time.thread_time() - t0
    if acc < 0 or not table:  # keeps the work observable
        raise AssertionError("calibration kernel produced no result")
    return elapsed


class Calibrator:
    """Records every calibration of a run and scales raw timings.

    ``probe()`` runs the kernel and remembers the sample; ``scale(a, b)``
    is the factor for a segment bracketed by samples ``a`` and ``b``
    (any number of samples: a start-up is scaled by all those taken
    while it was awaited).
    """

    def __init__(self, kernel_fn: Callable[[], float] = kernel):
        self._kernel = kernel_fn
        self.samples: List[float] = []

    def probe(self) -> float:
        sample = self._kernel()
        self.samples.append(sample)
        return sample

    @staticmethod
    def scale(*samples: float) -> float:
        return CAL_REF_S / statistics.mean(samples)

    def host_speed(self) -> Dict[str, float]:
        """min/median/max kernel time of the run, for the detail file."""
        if not self.samples:
            return {"samples": 0}
        return {
            "samples": len(self.samples),
            "min_s": min(self.samples),
            "median_s": statistics.median(self.samples),
            "max_s": max(self.samples),
            "cal_ref_s": CAL_REF_S,
        }
