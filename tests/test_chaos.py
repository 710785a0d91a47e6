"""End-to-end chaos campaign tests (``repro.faults.campaign``).

The unmarked tests keep a small two-stage campaign and the
crash-recovery property in the tier-1 run. The ``chaos``-marked tests
(full-size campaigns, a real SIGKILL against a ``repro serve``
subprocess) are excluded by default — select them with ``pytest -m
chaos`` (CI's chaos-smoke job and the nightly long campaign).
"""

import itertools
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.faults.campaign import (
    ChaosConfig,
    build_request,
    generate_schedule,
    run_chaos_campaign,
    run_oracle,
)
from repro.faults.plane import (
    SITE_JOURNAL_APPEND,
    FaultPlane,
    FaultSpec,
    InjectedCrash,
)
from repro.service.loadgen import BrokerClient
from repro.service.server import BrokerServer

#: Small but fully two-staged: high fault rates so every layer fires
#: even at this size (the default-size campaigns are chaos-marked).
SMALL = ChaosConfig(
    seed=3,
    ops=48,
    target_live=8,
    persistence_rate=0.5,
    protocol_rate=0.8,
    engine_rate=0.4,
    restart_rate=0.15,
    socket_fraction=0.25,
)


class TestSmallCampaign:
    def test_recovery_is_bit_identical(self, tmp_path):
        report = run_chaos_campaign(SMALL, state_dir=tmp_path / "state")
        assert report.ok, report.summary()
        assert report.bit_identical
        assert report.recovered_sha == report.oracle_sha
        assert report.acked_then_lost == []
        assert report.phantom_ids == []
        assert report.outcome_mismatches == 0
        assert report.committed == SMALL.ops
        assert report.layers_covered == 3
        assert report.faults_total > 0
        assert report.restarts > 0

    def test_campaign_is_reproducible(self):
        first = run_chaos_campaign(SMALL).to_dict()
        second = run_chaos_campaign(SMALL).to_dict()
        first.pop("seconds"), second.pop("seconds")
        assert first == second

    def test_different_seed_different_schedule(self):
        a = generate_schedule(ChaosConfig(seed=1, ops=10))
        b = generate_schedule(ChaosConfig(seed=2, ops=10))
        assert a != b
        assert [e.rid for e in a] == [f"c1-{i}" for i in range(10)]

    def test_report_serialises(self):
        report = run_chaos_campaign(
            ChaosConfig(seed=4, ops=12, socket_fraction=0.0)
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is True
        assert payload["faults"]["total"] == report.faults_total
        assert "bit-identical" in report.summary()


class TestCrashRecoveryProperty:
    """Kill the broker around every ``kill_every``-th mutation, snapshot
    every ``snap_every`` ops, and demand recovery always lands on the
    fault-free oracle's exact state."""

    @pytest.mark.parametrize("kill_every,snap_every", [
        (1, 0),   # crash on every mutation, never snapshot
        (2, 3),
        (3, 5),
        (5, 2),   # frequent snapshots, rare crashes
    ])
    def test_recovery_matches_oracle(self, tmp_path, kill_every,
                                     snap_every):
        cfg = ChaosConfig(seed=9, ops=24, target_live=6,
                          socket_fraction=0.0)
        schedule = generate_schedule(cfg)
        oracle_sha = run_oracle(cfg, schedule)[0][None]

        state = tmp_path / f"state-{kill_every}-{snap_every}"
        plane = FaultPlane(seed=cfg.seed)
        kinds = itertools.cycle(("torn_write", "crash_after_append"))
        server = BrokerServer(cfg.topology_spec(), state_dir=state,
                              fault_plane=plane)
        live, restarts = [], 0
        for i, entry in enumerate(schedule):
            if snap_every and i and i % snap_every == 0:
                assert server.handle_request({"op": "snapshot"})["ok"]
            if i % kill_every == 0:
                plane.arm(SITE_JOURNAL_APPEND, FaultSpec(next(kinds)))
            request = build_request(entry, live,
                                    target_live=cfg.target_live)
            response = None
            for _ in range(8):
                try:
                    response = server.handle_request(request)
                except InjectedCrash:
                    restarts += 1
                    server.state.close()
                    server = BrokerServer(cfg.topology_spec(),
                                          state_dir=state,
                                          fault_plane=plane)
                    continue
                break
            assert response is not None and response["ok"], response
            plane.disarm(SITE_JOURNAL_APPEND)
            if request["op"] == "admit":
                if response.get("admitted"):
                    live.extend(response["ids"])
            else:
                for sid in request["ids"]:
                    live.remove(sid)
        server.state.close()
        assert restarts > 0  # the parametrisation must actually kill

        recovered = BrokerServer(cfg.topology_spec(), state_dir=state)
        sha, spec = recovered.fingerprint()
        next_id = recovered.engine.next_id
        recovered.state.close()
        assert sha == oracle_sha
        assert sorted(int(s) for s in spec["streams"]) == sorted(live)

        # Recovery is deterministic: the first recovery above compacted,
        # so two further recoveries replay the same snapshot and must
        # agree on the state hash, the next_id high-water mark and every
        # engine gauge.
        def counters(server):
            # Phase timings (*_seconds) are wall-clock measurements, not
            # deterministic gauges — strip them before comparing.
            return {
                k: v for k, v in server.engine.stats.to_dict().items()
                if not k.endswith("_seconds")
            }

        again = BrokerServer(cfg.topology_spec(), state_dir=state)
        gauges = counters(again)
        assert again.engine.next_id == next_id
        assert again.fingerprint()[0] == oracle_sha
        again.state.close()
        third = BrokerServer(cfg.topology_spec(), state_dir=state)
        assert counters(third) == gauges
        assert third.engine.next_id == next_id
        third.state.close()


@pytest.mark.chaos
class TestFullCampaigns:
    """Default-size campaigns: >= 50 faults over all three layers."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_default_campaign(self, seed):
        report = run_chaos_campaign(ChaosConfig(seed=seed))
        assert report.ok, report.summary()
        assert report.faults_total >= 50
        assert report.layers_covered == 3
        assert report.duplicate_acks > 0
        assert report.degraded_recoveries > 0
        assert report.restarts > 0


@pytest.mark.chaos
class TestSubprocessSigkill:
    """The one non-simulated kill: SIGKILL a real ``repro serve``
    process mid-session and recover its successor from disk."""

    def _serve(self, sock, state):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", str(sock),
             "--mesh", "6x6", "--state-dir", str(state)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + 30
        while not Path(sock).exists():
            if proc.poll() is not None or time.monotonic() > deadline:
                out = proc.stdout.read().decode(errors="replace")
                raise AssertionError(f"serve did not come up: {out}")
            time.sleep(0.05)
        return proc

    def test_sigkill_recovery_and_retry_dedupe(self, tmp_path):
        sock = tmp_path / "broker.sock"
        state = tmp_path / "state"
        proc = self._serve(sock, state)
        try:
            with BrokerClient.wait_for_unix(sock) as client:
                for i in range(5):
                    resp = client.check(
                        "admit", rid=f"kill-{i}",
                        streams=[{"src": i, "dst": i + 12, "priority": 1,
                                  "period": 200, "length": 3,
                                  "deadline": 200}],
                    )
                    assert resp["admitted"]
                before = client.check("report")
        finally:
            proc.kill()
            proc.wait(timeout=30)

        proc = self._serve(sock, state)
        try:
            with BrokerClient.wait_for_unix(sock) as client:
                after = client.check("report")
                assert after["report"] == before["report"]
                assert after["admitted"] == 5
                # The lost-ack retry of the final admit deduplicates.
                dup = client.check(
                    "admit", rid="kill-4",
                    streams=[{"src": 4, "dst": 16, "priority": 1,
                              "period": 200, "length": 3,
                              "deadline": 200}],
                )
                assert dup["duplicate"] and dup["ids"] == [4]
                client.check("shutdown")
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.wait(timeout=30)
