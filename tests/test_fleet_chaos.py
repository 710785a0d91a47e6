"""Fleet chaos campaign tests (``repro.faults.campaign``, fleet target).

Same split as ``test_chaos.py``: the unmarked tests run a small
campaign with boosted fault/kill rates so every mechanism fires inside
the tier-1 budget; the ``chaos``-marked tests run default-size
campaigns across several seeds (CI's chaos job and nightly runs).
"""

from dataclasses import replace

import pytest

from repro.faults.campaign import (
    FleetChaosConfig,
    generate_schedule,
    run_chaos_campaign,
)

#: Small but hostile: kill and fault rates cranked up so the campaign
#: exercises tenant kills, deferred failover, journal faults and
#: duplicate acks even at 60 ops.
SMALL = FleetChaosConfig(
    seed=0,
    ops=60,
    tenants=2,
    width=5,
    height=5,
    target_live=8,
    persistence_rate=0.4,
    kill_rate=0.10,
)


class TestSmallFleetCampaign:
    def test_fleet_survives_and_matches_oracles(self, tmp_path):
        report = run_chaos_campaign(SMALL, state_dir=tmp_path)
        assert report.ok, report.summary()
        assert report.bit_identical
        assert report.committed == SMALL.ops
        assert report.acked_then_lost == {}
        assert report.phantom_ids == {}
        assert report.outcome_mismatches == 0
        # The hostile rates must actually produce hostility.
        assert report.faults_total > 0
        assert report.kills >= 1
        assert report.recoveries >= 1
        assert report.fleet_restarts >= 1

    def test_campaign_is_reproducible(self):
        first = run_chaos_campaign(SMALL).to_dict()
        second = run_chaos_campaign(SMALL).to_dict()
        first.pop("seconds"), second.pop("seconds")
        assert first == second

    def test_link_slots_ride_the_fleet_campaign(self, tmp_path):
        """The link layer on the fleet target: per-tenant link state,
        tenants recovered from snapshots with failed links, refused
        admits — same two invariants."""
        linky = replace(SMALL, link_rate=0.15)
        report = run_chaos_campaign(linky, state_dir=tmp_path)
        assert report.ok, report.summary()
        assert report.committed == linky.ops
        assert report.faults_by_layer["link"].get("link_fail", 0) > 0
        assert report.kills >= 1 and report.fleet_restarts >= 1
        first, second = report.to_dict(), run_chaos_campaign(linky).to_dict()
        first.pop("seconds"), second.pop("seconds")
        assert first == second

    def test_schedule_is_deterministic_and_interleaved(self):
        sched = generate_schedule(SMALL)
        assert len(sched) == SMALL.ops
        assert sched == generate_schedule(SMALL)
        tenants = {entry.tenant for entry in sched}
        assert len(tenants) == SMALL.tenants
        rids = [entry.rid for entry in sched]
        assert len(set(rids)) == len(rids)

    def test_report_dict_shape(self, tmp_path):
        report = run_chaos_campaign(SMALL, state_dir=tmp_path)
        d = report.to_dict()
        assert "shards" not in d
        for key in ("seed", "ops", "tenants", "kills",
                    "recoveries", "oracle_shas", "live_shas",
                    "recovered_shas", "bit_identical", "ok"):
            assert key in d
        assert set(d["oracle_shas"]) == {"tenant-0", "tenant-1"}
        assert "fleet chaos seed=0" in report.summary()


#: Worker mode, small but hostile: real SIGKILLs of worker processes
#: (half between ops, half armed to fire mid-RPC) on top of the tenant
#: kills. Persistence faults are off by construction — injection cannot
#: cross the process boundary.
WORKER_SMALL = FleetChaosConfig(
    seed=1,
    ops=48,
    tenants=2,
    width=5,
    height=5,
    target_live=8,
    kill_rate=0.06,
    workers=2,
    worker_kill_rate=0.20,
)


class TestWorkerFleetCampaign:
    def test_worker_campaign_survives_real_sigkills(self, tmp_path):
        report = run_chaos_campaign(WORKER_SMALL, state_dir=tmp_path)
        assert report.ok, report.summary()
        assert report.bit_identical
        assert report.committed == WORKER_SMALL.ops
        assert report.acked_then_lost == {}
        assert report.phantom_ids == {}
        assert report.outcome_mismatches == 0
        # The hostile rates must actually produce hostility: real
        # SIGKILLs, real restarts, and ops retried through them.
        assert report.workers == 2
        assert report.worker_kills >= 1
        assert report.worker_restarts >= 1
        assert report.worker_retries >= 1

    def test_worker_campaign_outcome_is_reproducible(self):
        """The *verdict* is seed-deterministic even though the race a
        mid-RPC SIGKILL creates is not: whether the victim committed
        before dying varies run to run, but rid idempotency forces both
        runs to the same final state. Timing-raced counters (retries,
        restarts, duplicate acks) are the only fields allowed to
        differ."""
        first = run_chaos_campaign(WORKER_SMALL).to_dict()
        second = run_chaos_campaign(WORKER_SMALL).to_dict()
        for raced in ("seconds", "worker_retries", "worker_restarts",
                      "duplicate_acks"):
            first.pop(raced), second.pop(raced)
        assert first == second

    def test_worker_report_dict_shape(self, tmp_path):
        report = run_chaos_campaign(WORKER_SMALL, state_dir=tmp_path)
        d = report.to_dict()
        for key in ("workers", "worker_kills", "worker_retries",
                    "worker_restarts"):
            assert key in d
        assert "worker SIGKILLs" in report.summary()


@pytest.mark.chaos
class TestFullFleetCampaign:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_default_size_campaign(self, seed, tmp_path):
        report = run_chaos_campaign(
            FleetChaosConfig(seed=seed), state_dir=tmp_path
        )
        assert report.ok, report.summary()
        assert report.kills >= 1
        assert report.recoveries >= 1

    def test_default_size_campaign_with_links(self, tmp_path):
        report = run_chaos_campaign(
            FleetChaosConfig(seed=4, link_rate=0.15), state_dir=tmp_path
        )
        assert report.ok, report.summary()
        assert report.faults_by_layer["link"].get("link_fail", 0) > 0
        assert report.kills >= 1


@pytest.mark.chaos
class TestFullWorkerCampaign:
    @pytest.mark.parametrize("seed", [3, 5])
    def test_default_size_worker_campaign(self, seed, tmp_path):
        report = run_chaos_campaign(
            FleetChaosConfig(seed=seed, workers=2, worker_kill_rate=0.12),
            state_dir=tmp_path,
        )
        assert report.ok, report.summary()
        assert report.worker_kills >= 3
        assert report.worker_restarts >= 1
        assert report.bit_identical

    def test_default_size_worker_campaign_with_links(self, tmp_path):
        report = run_chaos_campaign(
            FleetChaosConfig(seed=7, workers=2, worker_kill_rate=0.12,
                             link_rate=0.15),
            state_dir=tmp_path,
        )
        assert report.ok, report.summary()
        assert report.faults_by_layer["link"].get("link_fail", 0) > 0
        assert report.worker_kills >= 3
