"""Trace-driven load generation (``repro load --trace/--pattern``).

Traces are the replayable form of a load run: a seeded generator emits a
byte-identical op list forever, the runner maps trace handles onto
whatever ids a live broker assigns, and link fail/restore events ride the
same stream as admit/release churn. The CLI round-trip (generate, save,
replay from disk with ``--assert-stats``) is the golden-trace check the
CI smoke job leans on.
"""

import json
import random
import threading

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.service.loadgen import (
    generate_trace,
    load_trace,
    run_trace,
    save_trace,
)
from repro.service.server import BrokerServer
from repro.topology import Mesh2D, links


def mesh_links(width, height):
    return links(Mesh2D(width, height))


class InProcClient:
    """The slice of BrokerClient run_trace needs, minus the socket."""

    def __init__(self, server):
        self.server = server

    def request(self, op, **fields):
        return self.server.handle_request({"op": op, **fields})


class TestGenerate:
    @pytest.mark.parametrize("pattern", ["bursty", "diurnal"])
    def test_same_seed_same_bytes(self, pattern, tmp_path):
        links = mesh_links(4, 4)
        kwargs = dict(ops=150, target_live=10, links=links, link_rate=0.1)
        first = generate_trace(pattern, random.Random(42), 16, **kwargs)
        second = generate_trace(pattern, random.Random(42), 16, **kwargs)
        assert first == second
        a, b = tmp_path / "a.trace", tmp_path / "b.trace"
        save_trace(a, first)
        save_trace(b, second)
        assert a.read_bytes() == b.read_bytes()
        assert load_trace(a) == first

    def test_different_seeds_differ(self):
        a = generate_trace("bursty", random.Random(0), 16, ops=60)
        b = generate_trace("bursty", random.Random(1), 16, ops=60)
        assert a != b

    def test_unknown_pattern_raises(self):
        with pytest.raises(ReproError, match="bursty"):
            generate_trace("square-wave", random.Random(0), 16)

    def test_handles_are_sequential_and_released_once(self):
        trace = generate_trace("diurnal", random.Random(5), 16,
                               ops=200, target_live=12)
        next_handle = 0
        released = set()
        for op in trace:
            if op["op"] == "admit":
                next_handle += len(op["streams"])
            elif op["op"] == "release":
                for ref in op["refs"]:
                    assert 0 <= ref < next_handle
                    assert ref not in released
                    released.add(ref)
        assert next_handle > 0 and released

    def test_link_events_only_with_links_and_rate(self):
        quiet = generate_trace("bursty", random.Random(3), 16, ops=80)
        assert all(op["op"] in ("admit", "release") for op in quiet)
        noisy = generate_trace("bursty", random.Random(3), 16, ops=80,
                               links=mesh_links(4, 4), link_rate=0.3)
        kinds = {op["op"] for op in noisy}
        assert "fail_link" in kinds
        # Every event names a real link and fail/restore alternate legally.
        down = set()
        pool = set(mesh_links(4, 4))
        for op in noisy:
            if op["op"] == "fail_link":
                link = tuple(op["link"])
                assert link in pool and link not in down
                down.add(link)
            elif op["op"] == "restore_link":
                link = tuple(op["link"])
                assert link in down
                down.remove(link)

    def test_load_trace_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.trace"
        bad.write_text("{not json\n")
        with pytest.raises(ReproError, match="not valid JSON"):
            load_trace(bad)
        bad.write_text('{"no_op_key": 1}\n')
        with pytest.raises(ReproError, match="'op' key"):
            load_trace(bad)
        ok = tmp_path / "ok.trace"
        ok.write_text('# comment\n\n{"op":"admit","streams":[]}\n')
        assert load_trace(ok) == [{"op": "admit", "streams": []}]


class TestRunTrace:
    SPEC = {"type": "mesh", "width": 4, "height": 4}

    def _summary_core(self, summary):
        d = summary.to_dict()
        return {k: d[k] for k in ("ops", "admits_tried", "admits_accepted",
                                  "releases", "link_ops", "errors",
                                  "live_at_end")}

    def test_replay_is_deterministic_across_brokers(self):
        trace = generate_trace("bursty", random.Random(9), 16,
                               ops=100, target_live=10,
                               links=mesh_links(4, 4), link_rate=0.08)
        runs = [
            run_trace(InProcClient(BrokerServer(self.SPEC)), trace)
            for _ in range(2)
        ]
        assert self._summary_core(runs[0]) == self._summary_core(runs[1])
        assert runs[0].errors == 0
        assert (runs[0].server_stats["admitted"]
                == runs[1].server_stats["admitted"])

    def test_evicted_handles_are_skipped_by_later_releases(self):
        trace = [
            {"op": "admit", "streams": [
                {"src": 0, "dst": 3, "priority": 1, "period": 100,
                 "length": 2, "deadline": 100},
            ]},
            {"op": "fail_link", "link": [2, 3]},
            {"op": "fail_link", "link": [3, 7]},  # node 3 now cut off
            {"op": "release", "refs": [0]},       # must be skipped
        ]
        summary = run_trace(InProcClient(BrokerServer(self.SPEC)), trace)
        assert summary.errors == 0
        assert summary.admits_accepted == 1
        assert summary.link_ops == 2
        assert summary.releases == 0  # the handle was already evicted
        assert summary.live_at_end == 0

    def test_rejected_admit_leaves_dead_handles(self):
        hog = {"src": 0, "dst": 3, "priority": 1, "period": 4,
               "length": 4, "deadline": 4}
        trace = [
            {"op": "admit", "streams": [hog]},
            {"op": "admit", "streams": [hog | {"priority": 2}] * 8},
            {"op": "release", "refs": [1, 2, 3]},
        ]
        summary = run_trace(InProcClient(BrokerServer(self.SPEC)), trace)
        # Whatever the second admit decided, refs only release live ids.
        assert summary.errors == 0
        assert summary.admits_tried == 2

    def test_unknown_op_raises(self):
        with pytest.raises(ReproError, match="unknown trace op"):
            run_trace(InProcClient(BrokerServer(self.SPEC)),
                      [{"op": "explode"}])


class TestTraceCLI:
    def _serve_and_load(self, tmp_path, load_args, name="broker.sock"):
        sock = str(tmp_path / name)
        codes = {}
        server = threading.Thread(
            target=lambda: codes.update(
                serve=main(["serve", "--socket", sock, "--mesh", "5x5"])
            )
        )
        server.start()
        code = main(["load", "--socket", sock, *load_args, "--shutdown"])
        server.join(timeout=30)
        assert codes.get("serve") == 0
        return code

    def test_golden_trace_round_trip(self, tmp_path, capsys):
        golden = tmp_path / "golden.trace"
        code = self._serve_and_load(tmp_path, [
            "--pattern", "bursty", "--seed", "12", "--ops", "60",
            "--target-live", "8", "--link-rate", "0.1",
            "--save-trace", str(golden), "--assert-stats",
        ])
        assert code == 0
        out = capsys.readouterr().out
        first = json.loads(out[out.index("{"):])
        assert first["ops"] == 60 and first["errors"] == 0
        assert first["link_ops"] > 0

        # Replay the saved trace against a *fresh* broker: same workload.
        code = self._serve_and_load(
            tmp_path,
            ["--trace", str(golden), "--assert-stats"],
            name="replay.sock",
        )
        assert code == 0
        out = capsys.readouterr().out
        second = json.loads(out[out.index("{"):])
        for key in ("ops", "admits_tried", "admits_accepted", "releases",
                    "link_ops", "errors", "live_at_end"):
            assert second[key] == first[key], key

    def test_trace_and_pattern_are_mutually_exclusive(self, capsys):
        assert main(["load", "--socket", "/tmp/x.sock",
                     "--trace", "t", "--pattern", "bursty"]) == 2
        assert ("at most one of --trace and --pattern"
                in capsys.readouterr().err)
