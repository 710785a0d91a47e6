"""Link-fault survival: reroute-and-readmit vs from-scratch analysis.

The contract under test (ISSUE 10): after any fuzzed schedule of link
failures and restorations interleaved with admit/release churn, the
engine's incremental reroute-and-readmit state is **bit-identical** to a
from-scratch analysis of the surviving streams on the degraded topology
— across bound backends and seeds — and the simulator confirms that the
surviving streams actually meet their recomputed bounds. On top of the
engine, the broker host must persist the failed-link set, replay it on
recovery, and deduplicate link ops by request id.
"""

import hashlib
import json
import random

import pytest

from repro.analysis import observe
from repro.core import backends
from repro.core.streams import MessageStream, StreamSet
from repro.errors import RoutingError, SimulationError
from repro.io import report_to_spec
from repro.service.engine import IncrementalAdmissionEngine
from repro.service.host import EngineHost
from repro.sim import WormholeSimulator
from repro.topology import (
    FaultAwareRouting,
    Mesh2D,
    XYRouting,
    links,
)


def report_sha(report) -> str:
    spec = report_to_spec(report)
    return hashlib.sha256(
        json.dumps(spec, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def rand_stream(rng, sid, nodes=25, levels=8):
    src = rng.randrange(nodes)
    dst = rng.randrange(nodes)
    while dst == src:
        dst = rng.randrange(nodes)
    period = rng.randint(60, 240)
    return MessageStream(
        sid, src, dst, priority=rng.randint(1, levels), period=period,
        length=rng.randint(1, 5), deadline=rng.randint(period // 2, period),
    )


class TestEngineDifferential:
    """Fuzzed fail/restore schedules, engine vs from-scratch."""

    @pytest.mark.parametrize("backend", ["kim98", "tighter"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reroute_matches_from_scratch(self, seed, backend):
        rng = random.Random(seed)
        mesh = Mesh2D(5, 5)
        base = XYRouting(mesh)
        pool = links(mesh)
        eng = IncrementalAdmissionEngine(base, analysis=backend)
        failed = []
        link_events = 0

        def check_against_scratch():
            if not len(eng.admitted):
                return
            streams = StreamSet(sorted(
                eng.admitted, key=lambda s: s.stream_id
            ))
            scratch = backends.get(backend).analyzer(
                streams, eng.routing
            ).determine_feasibility()
            assert report_sha(eng.current_report()) == report_sha(scratch)

        for _ in range(60):
            roll = rng.random()
            if roll < 0.18:
                if failed and (len(failed) >= 3 or rng.random() < 0.4):
                    failed.pop(rng.randrange(len(failed)))
                else:
                    up = [l for l in pool if l not in failed]
                    failed.append(up[rng.randrange(len(up))])
                routing = (FaultAwareRouting(base, sorted(failed))
                           if failed else base)
                delta = eng.apply_routing(routing)
                link_events += 1
                # Every evicted id really left; every survivor stayed.
                admitted_ids = {s.stream_id for s in eng.admitted}
                assert admitted_ids == set(delta.survivors)
                assert not admitted_ids & set(delta.evicted)
                check_against_scratch()
            elif roll < 0.70 or not len(eng.admitted):
                stream = rand_stream(rng, eng.fresh_id())
                try:
                    eng.try_admit(stream)
                except RoutingError:
                    # Pair disconnected by the current failed set.
                    assert failed
            else:
                ids = sorted(s.stream_id for s in eng.admitted)
                eng.release(ids[rng.randrange(len(ids))])
        assert link_events >= 3, "schedule never exercised a link op"
        check_against_scratch()

        # The surviving streams must meet their recomputed bounds on the
        # *degraded* network, not just on paper: simulate and compare.
        report = eng.current_report()
        survivors = sorted(eng.admitted, key=lambda s: s.stream_id)
        if not report.success or not survivors:
            return
        streams = StreamSet(survivors)
        hp_sets = backends.get(backend).analyzer(streams, eng.routing).hp_sets
        obs = observe(
            eng.routing, streams, sim_time=2000,
            bounds={backend: report.upper_bounds()},
            hp_ids={sid: hp.ids() for sid, hp in hp_sets.items()},
        )
        assert obs.admitted[backend] == tuple(s.stream_id for s in survivors)
        assert obs.excesses(backend) == ()


class TestHostLinkOps:
    """Broker-level fail/restore: protocol, persistence, idempotency."""

    SPEC = {"type": "mesh", "width": 4, "height": 4}

    @staticmethod
    def _admit(host, specs):
        response = host.handle_request({"op": "admit", "streams": specs})
        assert response["ok"] and response["admitted"], response
        return response["ids"]

    def test_fail_link_reroutes_and_reports_delta(self):
        host = EngineHost(self.SPEC)
        # 0 -> 3 crosses links (0,1), (1,2), (2,3) under X-Y routing.
        (sid,) = self._admit(
            host,
            [{"src": 0, "dst": 3, "priority": 1, "period": 100,
              "length": 2, "deadline": 100}],
        )
        response = host.handle_request(
            {"op": "fail_link", "link": [1, 2]}
        )
        assert response["ok"]
        assert response["failed_links"] == [[1, 2]]
        assert sid in response["rerouted"] + response["evicted"]
        links = host.handle_request({"op": "links"})
        assert links["ok"] and links["failed_links"] == [[1, 2]]
        assert links["routing"] == "FaultAwareRouting"

        restore = host.handle_request(
            {"op": "restore_link", "link": [2, 1]}
        )
        assert restore["ok"] and restore["failed_links"] == []
        assert host.handle_request({"op": "links"})["routing"] != \
            "FaultAwareRouting"

    def test_validation_errors(self):
        host = EngineHost(self.SPEC)
        bad = host.handle_request({"op": "fail_link", "link": [0, 5]})
        assert not bad["ok"] and "no physical link" in bad["error"]
        assert host.handle_request(
            {"op": "fail_link", "link": [0]}
        )["ok"] is False
        ok = host.handle_request({"op": "fail_link", "link": [0, 1]})
        assert ok["ok"]
        dup = host.handle_request({"op": "fail_link", "link": [1, 0]})
        assert not dup["ok"] and "already failed" in dup["error"]
        missing = host.handle_request(
            {"op": "restore_link", "link": [2, 3]}
        )
        assert not missing["ok"] and "not failed" in missing["error"]

    def test_rid_dedupe_returns_recorded_outcome(self):
        host = EngineHost(self.SPEC)
        first = host.handle_request(
            {"op": "fail_link", "link": [0, 1], "rid": "r1"}
        )
        assert first["ok"] and not first.get("duplicate")
        again = host.handle_request(
            {"op": "fail_link", "link": [0, 1], "rid": "r1"}
        )
        assert again["ok"] and again.get("duplicate")
        assert again["link"] == first["link"]
        assert again["evicted"] == first["evicted"]
        # A *different* rid for the same link is a genuine second fail.
        other = host.handle_request(
            {"op": "fail_link", "link": [0, 1], "rid": "r2"}
        )
        assert not other["ok"] and "already failed" in other["error"]

    def test_failed_links_survive_recovery(self, tmp_path):
        host = EngineHost(self.SPEC, state_dir=tmp_path)
        self._admit(host, [
            {"src": 0, "dst": 15, "priority": 2, "period": 200,
             "length": 3, "deadline": 200},
            {"src": 12, "dst": 3, "priority": 1, "period": 150,
             "length": 2, "deadline": 150},
        ])
        assert host.handle_request(
            {"op": "fail_link", "link": [5, 6]}
        )["ok"]
        assert host.handle_request(
            {"op": "fail_link", "link": [9, 10]}
        )["ok"]
        assert host.handle_request(
            {"op": "restore_link", "link": [5, 6]}
        )["ok"]
        sha, spec = host.fingerprint()
        assert spec["failed_links"] == [[9, 10]]
        host.state.close()

        recovered = EngineHost(self.SPEC, state_dir=tmp_path)
        assert recovered.links_spec() == [[9, 10]]
        assert recovered.fingerprint()[0] == sha
        recovered.state.close()

    def test_recovery_after_snapshot_compaction(self, tmp_path):
        host = EngineHost(self.SPEC, state_dir=tmp_path)
        assert host.handle_request(
            {"op": "fail_link", "link": [0, 4]}
        )["ok"]
        assert host.handle_request({"op": "snapshot"})["ok"]
        assert host.handle_request(
            {"op": "fail_link", "link": [8, 9]}
        )["ok"]
        sha = host.fingerprint()[0]
        host.state.close()
        recovered = EngineHost(self.SPEC, state_dir=tmp_path)
        assert recovered.links_spec() == [[0, 4], [8, 9]]
        assert recovered.fingerprint()[0] == sha
        recovered.state.close()


    def test_refused_admit_holds_no_id_across_restart(self, tmp_path):
        """Two failures isolate corner 0; an admit from it is refused
        (no route) and must leave the fresh-id mark where it was — the
        burned id would live in memory only, so a restarted host would
        hand out different ids than one that never restarted."""
        stream = {"src": 0, "dst": 5, "priority": 1, "period": 150,
                  "length": 2, "deadline": 150}
        other = dict(stream, src=10, dst=15)
        steady = EngineHost(self.SPEC)
        host = EngineHost(self.SPEC, state_dir=tmp_path)
        for h in (steady, host):
            self._admit(h, [other])
            for link in ([0, 1], [0, 4]):
                assert h.handle_request(
                    {"op": "fail_link", "link": link}
                )["ok"]
            refused = h.handle_request({"op": "admit", "streams": [stream]})
            assert not refused["ok"] and "disconnect" in refused["error"]
        host.state.close()
        restarted = EngineHost(self.SPEC, state_dir=tmp_path)
        again = dict(other, src=15, dst=10)
        assert (self._admit(restarted, [again])
                == self._admit(steady, [again]) == [1])
        assert restarted.fingerprint() == steady.fingerprint()
        restarted.state.close()


class TestSimulatorLinkFaults:
    """Flit-level behaviour: dead links kill crossing worms."""

    @staticmethod
    def _sim(streams, failed=()):
        mesh = Mesh2D(4, 4)
        routing = FaultAwareRouting(XYRouting(mesh), failed)
        return WormholeSimulator(
            routing.topology, routing, StreamSet(streams)
        )

    def test_fail_link_drops_crossing_worm(self):
        crossing = MessageStream(0, 0, 3, priority=1, period=1000,
                                 length=8, deadline=1000)
        clear = MessageStream(1, 12, 15, priority=1, period=1000,
                              length=8, deadline=1000)
        sim = self._sim([crossing, clear])
        sim.release_message(crossing, 0)
        sim.release_message(clear, 0)
        sim.run(3)  # both worms mid-flight
        victims = sim.fail_link(1, 2)
        assert victims == [0]
        assert sim.link_drops == 1
        assert sim.failed_links == frozenset({(1, 2)})
        sim.run(60)
        # The untouched worm finishes; the dead one never delivers.
        assert list(sim.stats._samples.get(1, ())) != []
        assert not sim.stats._samples.get(0)

    def test_injection_blocked_while_down_and_resumes_after_restore(self):
        stream = MessageStream(0, 0, 3, priority=1, period=50,
                               length=2, deadline=50)
        sim = self._sim([stream])
        sim.fail_link(2, 3)
        sim.release_message(stream, 0)
        sim.run(30)
        assert sim.link_drops == 1
        assert not sim.stats._samples.get(0)
        sim.restore_link(2, 3)
        assert sim.failed_links == frozenset()
        sim.release_message(stream, 50)
        sim.run(100)
        assert list(sim.stats._samples.get(0, ())) != []

    def test_reroute_after_failure_delivers(self):
        stream = MessageStream(0, 0, 3, priority=1, period=100,
                               length=2, deadline=100)
        mesh = Mesh2D(4, 4)
        base = XYRouting(mesh)
        sim = self._sim([stream])
        sim.fail_link(1, 2)
        sim.set_routing(FaultAwareRouting(base, [(1, 2)]))
        sim.release_message(stream, 0)
        sim.run(100)
        assert list(sim.stats._samples.get(0, ())) != []

    def test_fail_link_validation(self):
        sim = self._sim([MessageStream(0, 0, 1, priority=1, period=100,
                                       length=1, deadline=100)])
        with pytest.raises(SimulationError):
            sim.fail_link(0, 9)  # not a physical link
        sim.fail_link(0, 1)
        with pytest.raises(SimulationError):
            sim.fail_link(1, 0)  # already failed
        with pytest.raises(SimulationError):
            sim.restore_link(2, 3)  # never failed

    def test_set_routing_rejects_vc_class_mismatch(self):
        mesh = Mesh2D(4, 4)
        sim = self._sim([MessageStream(0, 0, 1, priority=1, period=100,
                                       length=1, deadline=100)])
        with pytest.raises(SimulationError):
            sim.set_routing(XYRouting(mesh))  # 1 class vs provisioned 2
