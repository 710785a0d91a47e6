"""Seeded 200-problem cross-backend fuzz regression.

Pins the differential invariants between the registered bound backends
over a fixed seed range, so a regression in any backend (or in the
shared structure-building path) fails deterministically in CI rather
than probabilistically in a nightly campaign.

Two tiers:

* the fast tier re-runs the *analysis only* (no simulation) on all 200
  seeds and asserts refinement monotonicity (``tighter`` ≤ ``kim98``
  bound-wise, admitted ⊇ set-wise), buffered pessimism, and per-backend
  digest determinism across independent analyzer constructions;
* the ``-m slow`` tier (nightly) runs the full oracle — simulation
  included — so every backend's bound is also checked against observed
  latencies (dominance) on the same 200 problems.
"""

import pytest

from repro.core import backends
from repro.fuzz import GeneratorConfig, bounds_digest, generate_case, run_case
from repro.analysis.observe import admitted_scope
from repro.fuzz.oracle import _analysis_bounds

SEEDS = range(200)
CONFIG = GeneratorConfig()


def _case_backend_bounds(case):
    out = {}
    hp_ids = None
    for name in backends.names():
        bounds, hp = _analysis_bounds(case, name)
        out[name] = bounds
        if hp_ids is None:
            hp_ids = hp
    return out, hp_ids


class TestFastTier:
    def test_200_seed_monotonicity_and_digests(self):
        checked_pairs = 0
        strictly_tighter = 0
        for seed in SEEDS:
            case = generate_case(seed, CONFIG)
            per_backend, hp_ids = _case_backend_bounds(case)

            # Digest determinism: an independent reconstruction of every
            # analyzer must reproduce the identical verdict digest.
            for name, bounds in per_backend.items():
                again, _ = _analysis_bounds(case, name)
                assert bounds_digest(again) == bounds_digest(bounds), (
                    f"seed {seed}: {name} digest not deterministic"
                )

            # Refinement monotonicity on bounds and admitted sets.
            for name in backends.names():
                ref = backends.get(name).refines
                if ref is None:
                    continue
                ref_bounds = per_backend[ref]
                own_bounds = per_backend[name]
                for sid, u_ref in ref_bounds.items():
                    if u_ref > 0:
                        checked_pairs += 1
                        assert 0 < own_bounds[sid] <= u_ref, (
                            f"seed {seed}: {name} bound "
                            f"{own_bounds[sid]} looser than {ref} "
                            f"{u_ref} for stream {sid}"
                        )
                        if own_bounds[sid] < u_ref:
                            strictly_tighter += 1
                ref_ok = admitted_scope(case.streams, ref_bounds, hp_ids)
                own_ok = admitted_scope(case.streams, own_bounds, hp_ids)
                assert set(ref_ok) <= set(own_ok), (
                    f"seed {seed}: {name} rejects a set {ref} admits"
                )

            # Buffered pessimism relative to the reference analysis.
            kim = per_backend["kim98"]
            buf = per_backend["buffered"]
            for sid, u in buf.items():
                if u > 0:
                    assert u >= kim[sid], (
                        f"seed {seed}: buffered bound {u} tighter than "
                        f"kim98 {kim[sid]} for stream {sid}"
                    )
        assert checked_pairs > 300, "campaign degenerated: too few checks"

    def test_refinement_declared(self):
        # The invariant above is only meaningful while tighter actually
        # declares the refinement the oracle enforces.
        assert backends.get("tighter").refines == "kim98"


@pytest.mark.slow
class TestNightlyTier:
    def test_200_seed_full_oracle(self):
        """Full differential pipeline per seed: per-backend soundness
        against the simulator, divergence, determinism, monotonicity."""
        bad = []
        for seed in SEEDS:
            result = run_case(generate_case(seed, CONFIG))
            if not result.ok:
                bad.append((seed, result.kinds(),
                            [v.detail for v in result.violations][:3]))
        assert not bad, bad
