"""Differential soundness fuzzing: randomized workloads cross-validated
between the feasibility analysis and the flit-level simulator.

The subsystem is the repository's standing correctness gate (see
EXPERIMENTS.md, section "Soundness fuzzing"):

* :mod:`repro.fuzz.generator` — seeded random cases with adversarial
  presets (deep blocking chains, hotspots, funnels) and, on request, the
  paper's own workload inflated to ``T := U`` (``paper``);
* :mod:`repro.fuzz.oracle` — per-case invariants, run for *every*
  registered bound backend: analysis determinism (pinned per-backend
  verdict digests), per-backend ``U_i`` soundness (compared through
  :func:`repro.analysis.observe.observe`), and refinement monotonicity (a
  backend declaring ``refines`` never rejects what its reference admits);
* :mod:`repro.fuzz.shrink` — greedy counterexample minimisation;
* :mod:`repro.fuzz.corpus` — JSON persistence and deterministic replay;
* :mod:`repro.fuzz.campaign` — parallel, time-boxable campaign driver and
  the ``--self-test`` canary.

CLI entry points: ``repro fuzz`` (``--preset NAME`` for one preset),
``repro fuzz --replay``, ``repro fuzz --self-test``.
"""

from .campaign import (
    FuzzReport,
    SeedOutcome,
    run_fuzz_campaign,
    run_self_test,
)
from .corpus import ReplayResult, load_counterexample, replay, write_counterexample
from .generator import PRESETS, FuzzCase, FuzzStream, GeneratorConfig, generate_case
from .oracle import (
    CaseResult,
    FuzzViolation,
    bounds_digest,
    run_case,
    stats_fingerprint,
)
from .shrink import ShrinkResult, shrink_case

__all__ = [
    "FuzzCase",
    "FuzzStream",
    "GeneratorConfig",
    "generate_case",
    "PRESETS",
    "CaseResult",
    "FuzzViolation",
    "run_case",
    "stats_fingerprint",
    "bounds_digest",
    "ShrinkResult",
    "shrink_case",
    "ReplayResult",
    "replay",
    "load_counterexample",
    "write_counterexample",
    "FuzzReport",
    "SeedOutcome",
    "run_fuzz_campaign",
    "run_self_test",
]
