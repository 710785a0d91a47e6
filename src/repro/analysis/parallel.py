"""Parallel experiment execution over workload seeds.

Every experiment in this repository is embarrassingly parallel across
workload seeds (independent draws, independent simulations), and each
seed's run is pure CPU with no shared state — the textbook case for
process-level parallelism in Python. This module fans experiment
callables out over a :class:`concurrent.futures.ProcessPoolExecutor`
while keeping results **bit-identical** to the serial path (same seeds,
same order), so parallelism is a pure wall-clock knob:

    results = map_seeds(run_one_seed, seeds=range(10), processes=4)

Notes for users:

* the callable must be picklable (a module-level function, not a lambda
  or closure) — pass per-seed parameters through ``functools.partial``;
* ``processes=None`` uses ``os.cpu_count()``; ``processes=1`` (or zero
  or one seeds) short-circuits to the serial path with zero overhead,
  which also keeps the code importable on platforms without ``fork``;
* ``chunksize=None`` picks ``max(1, len(seeds) // (4 * processes))`` —
  about four waves of tasks per worker, amortising IPC for long seed
  lists while keeping the pool load-balanced when per-seed runtimes
  vary (heavily contended workloads simulate slower than idle ones);
* workers inherit no state: anything a task needs must travel through
  its arguments (seeded RNGs make that trivial here).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

from ..errors import AnalysisError

__all__ = ["map_seeds", "shutdown_verdict_pool"]

T = TypeVar("T")


def map_seeds(
    fn: Callable[[int], T],
    seeds: Sequence[int],
    *,
    processes: Optional[int] = None,
    chunksize: Optional[int] = None,
) -> List[T]:
    """Run ``fn(seed)`` for every seed, optionally across processes.

    Results are returned in seed order regardless of completion order;
    an empty seed sequence yields an empty list (so callers can sweep
    parameter grids without special-casing degenerate corners).
    Exceptions raised by any task propagate to the caller (the pool is
    shut down first). ``chunksize=None`` picks
    ``max(1, len(seeds) // (4 * processes))``.
    """
    seeds = list(seeds)
    if not seeds:
        return []
    if processes is None:
        processes = os.cpu_count() or 1
    if processes < 1:
        raise AnalysisError(f"processes must be >= 1, got {processes}")
    processes = min(processes, len(seeds))
    if processes == 1:
        return [fn(seed) for seed in seeds]
    if chunksize is None:
        chunksize = max(1, len(seeds) // (4 * processes))
    elif chunksize < 1:
        raise AnalysisError(f"chunksize must be >= 1, got {chunksize}")
    with ProcessPoolExecutor(max_workers=processes) as pool:
        return list(pool.map(fn, seeds, chunksize=chunksize))


def shutdown_verdict_pool() -> None:
    """Do nothing: the per-admit verdict pool is gone (verdicts are
    computed in-process, see DESIGN.md section 10).

    Kept only because ``benchmarks/spine/run.py`` and
    ``benchmarks/spine/workloads.py`` import it and a PR that claims a
    gain may not edit the benchmark; the next ``benchmark`` PR drops
    those imports and this shim with them.
    """
