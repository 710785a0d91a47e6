"""Tests for the broker server: protocol, ops, metrics, persistence,
the front end over a unix socket on the broker's selectors loop, and
the serve-drain-close every server shares."""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.errors import AnalysisError, ReproError, StreamError
from repro.service.host import DegradedError
from repro.service.loadgen import BrokerClient, churn_spec, run_load
from repro.obs.metrics import Histogram
from repro.service.metrics import (
    FrontEndMetrics,
    ServiceMetrics,
    latency_dict,
)
from repro.service.persistence import BrokerState
from repro.service.protocol import (
    ProtocolError,
    decode,
    encode,
    error_code,
    error_response,
)
from repro.service import server as server_module
from repro.service.server import BrokerServer, LineConnection

MESH = {"type": "mesh", "width": 6, "height": 6}


def spec(sid=None, src=0, dst=3, priority=1, period=100, length=4,
         deadline=None):
    entry = {"src": src, "dst": dst, "priority": priority,
             "period": period, "length": length,
             "deadline": deadline or period}
    if sid is not None:
        entry["id"] = sid
    return entry


class TestProtocol:
    def test_encode_decode_round_trip(self):
        line = encode({"op": "hello", "id": 3})
        assert line.endswith(b"\n")
        assert decode(line) == {"op": "hello", "id": 3}

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode(b"not json\n")
        with pytest.raises(ProtocolError):
            decode(b"[1, 2]\n")
        with pytest.raises(ProtocolError):
            decode(b'{"no": "op"}\n')
        with pytest.raises(ProtocolError):
            decode(b'{"op": "warp"}\n')

    def test_error_response_echoes_id(self):
        resp = error_response({"id": 9}, "boom", code="stream")
        assert resp == {"ok": False, "error": "boom", "code": "stream",
                        "id": 9}

    def test_error_code_by_class_and_by_stamp(self):
        for cls, code in ((DegradedError, "degraded"),
                          (ProtocolError, "protocol"),
                          (StreamError, "stream"),
                          (AnalysisError, "analysis"),
                          (ReproError, "error")):
            assert error_code(cls("boom")) == code
        # A code stamped on the instance crosses layers unchanged (the
        # fleet's "worker": retry loops key on it), an empty one does not.
        died = ReproError("worker died mid-op")
        died.code = "worker"
        assert error_code(died) == "worker"
        died.code = ""
        assert error_code(died) == "error"


class TestMetrics:
    def test_histogram_buckets_and_quantiles(self):
        h = Histogram()
        assert latency_dict(h)["p50_ms"] is None
        for us in (1, 10, 100, 1000, 10000):
            h.observe(us)
        d = latency_dict(h)
        assert d["count"] == 5
        assert d["max_ms"] == 10.0
        assert sum(d["buckets"].values()) == 5
        assert d["p50_ms"] <= d["p99_ms"]

    def test_service_metrics_dict(self):
        m = ServiceMetrics()
        m.record_op("admit", 0.001)
        m.record_op("admit", 0.002, error=True)
        d = m.to_dict()
        assert d["ops"]["admit"] == 2
        assert d["errors"]["admit"] == 1
        assert d["latency"]["admit"]["count"] == 2
        assert "batching" not in d and "connections" not in d
        front = FrontEndMetrics()
        front.record_batch(3)
        assert front.to_dict()["batching"]["max_size"] == 3


class TestServerOps:
    def test_hello_reports_topology(self):
        server = BrokerServer(MESH)
        resp = server.handle_request({"op": "hello", "id": 1})
        assert resp["ok"] and resp["id"] == 1
        assert resp["nodes"] == 36
        assert resp["topology"] == MESH
        assert "incremental" not in resp

    def test_admit_assigns_ids_and_closures(self):
        server = BrokerServer(MESH)
        resp = server.handle_request(
            {"op": "admit", "streams": [spec(), spec(src=6, dst=9)]}
        )
        assert resp["ok"] and resp["admitted"]
        assert resp["ids"] == [0, 1]
        assert set(resp["closures"]) == {"0", "1"}
        assert resp["bounds"]["0"] > 0

    def test_admit_rejection_reports_violations(self):
        server = BrokerServer(MESH)
        resp = server.handle_request(
            {"op": "admit", "streams": [spec(deadline=1, length=8)]}
        )
        assert resp["ok"] and not resp["admitted"]
        assert resp["violations"] == [0]
        assert server.handle_request({"op": "report"})["admitted"] == 0

    def test_admit_coordinate_refs(self):
        server = BrokerServer(MESH)
        entry = spec()
        entry["src"] = [0, 0]
        entry["dst"] = [3, 2]
        resp = server.handle_request({"op": "admit", "streams": [entry]})
        assert resp["ok"] and resp["admitted"]

    def test_release_and_query(self):
        server = BrokerServer(MESH)
        server.handle_request({"op": "admit", "streams": [spec()]})
        q = server.handle_request({"op": "query", "stream": 0})
        assert q["ok"] and q["feasible"] and q["closure"] == []
        assert q["stream"]["id"] == 0
        r = server.handle_request({"op": "release", "ids": [0]})
        assert r["ok"] and r["released"] == [0]
        bad = server.handle_request({"op": "release", "ids": [0]})
        assert not bad["ok"] and bad["code"] == "stream"
        assert "0" in bad["error"]

    def test_report_empty_is_trivial_success(self):
        server = BrokerServer(MESH)
        resp = server.handle_request({"op": "report"})
        assert resp["ok"] and resp["report"]["success"]
        assert resp["report"]["streams"] == {}

    def test_malformed_ops_fail_cleanly(self):
        server = BrokerServer(MESH)
        assert not server.handle_request({"op": "admit"})["ok"]
        assert not server.handle_request(
            {"op": "admit", "streams": []})["ok"]
        assert not server.handle_request(
            {"op": "admit", "streams": [{"src": 0}]})["ok"]
        assert not server.handle_request({"op": "release"})["ok"]
        assert not server.handle_request({"op": "query"})["ok"]
        assert not server.handle_request({"op": "query", "stream": 5})["ok"]
        # No state dir -> snapshot is a protocol error.
        resp = server.handle_request({"op": "snapshot"})
        assert not resp["ok"] and resp["code"] == "protocol"

    def test_bad_field_types_fail_cleanly(self):
        # Regression: non-numeric client fields used to raise ValueError
        # past handle_request and kill the worker task.
        server = BrokerServer(MESH)
        server.handle_request({"op": "admit", "streams": [spec()]})
        for request in (
            {"op": "release", "ids": ["abc"]},
            {"op": "release", "ids": [True]},
            {"op": "query", "stream": "x"},
            {"op": "query", "stream": 1.5},
            {"op": "admit", "streams": [spec(sid="abc")]},
            {"op": "admit", "streams": [spec(sid=7, priority="high")]},
        ):
            resp = server.handle_request(request)
            assert not resp["ok"] and resp["code"] == "protocol", request
        # The admitted set is untouched and the server still answers.
        assert server.handle_request({"op": "report"})["admitted"] == 1
        assert server.handle_request({"op": "ping"})["ok"]

    def test_journal_errors_degrade_not_crash(self, tmp_path, monkeypatch):
        # A journal append failure (e.g. disk full) must surface as a
        # 'degraded' error response — rolled back, read-only — never an
        # escaped exception (see tests/test_service_faults.py for the
        # full degraded-mode suite).
        server = BrokerServer(MESH, state_dir=tmp_path / "s")

        def boom(op):
            raise OSError("disk full")

        monkeypatch.setattr(server.state, "append", boom)
        resp = server.handle_request({"op": "admit", "streams": [spec()]})
        assert not resp["ok"] and resp["code"] == "degraded"
        assert server.handle_request({"op": "ping"})["ok"]
        # The failed admit was rolled back: memory matches the journal.
        assert server.handle_request({"op": "report"})["admitted"] == 0

    def test_internal_errors_become_error_responses(self, monkeypatch):
        # A non-journal escape (bug in the engine, say) must still come
        # back as an 'internal' error response, not kill the worker.
        server = BrokerServer(MESH)

        def boom(requests):
            raise RuntimeError("engine bug")

        monkeypatch.setattr(server.engine, "try_admit", boom)
        resp = server.handle_request({"op": "admit", "streams": [spec()]})
        assert not resp["ok"] and resp["code"] == "internal"
        assert server.handle_request({"op": "ping"})["ok"]

    def test_stats_op(self):
        server = BrokerServer(MESH)
        server.handle_request({"op": "admit", "streams": [spec()]})
        resp = server.handle_request({"op": "stats"})
        assert resp["ok"]
        assert resp["admitted"] == 1
        assert resp["engine"]["admits"] == 1
        assert resp["service"]["ops"]["admit"] == 1


class TestPersistence:
    def test_snapshot_journal_recovery(self, tmp_path):
        state = tmp_path / "state"
        server = BrokerServer(MESH, state_dir=state)
        server.handle_request({"op": "admit", "streams": [spec()]})
        server.handle_request(
            {"op": "admit", "streams": [spec(src=6, dst=9)]})
        server.handle_request({"op": "release", "ids": [0]})
        # Journal-only recovery (no snapshot op was issued).
        recovered = BrokerServer(MESH, state_dir=state)
        assert recovered.engine.admitted.ids() == (1,)
        # Recovery compacts: a third server recovers from snapshot alone.
        assert json.loads(
            (state / "snapshot.json").read_text())["streams"]
        assert (state / "journal.jsonl").read_text() == ""
        again = BrokerServer(MESH, state_dir=state)
        assert again.engine.admitted.ids() == (1,)
        for host in (server, recovered, again):
            host.close()

    def test_snapshot_op_compacts(self, tmp_path):
        server = BrokerServer(MESH, state_dir=tmp_path / "s")
        server.handle_request({"op": "admit", "streams": [spec()]})
        resp = server.handle_request({"op": "snapshot"})
        assert resp["ok"] and resp["streams"] == 1
        assert (tmp_path / "s" / "journal.jsonl").read_text() == ""
        server.close()

    def test_recovered_ids_stay_monotonic(self, tmp_path):
        state = tmp_path / "state"
        server = BrokerServer(MESH, state_dir=state)
        server.handle_request({"op": "admit", "streams": [spec()]})
        recovered = BrokerServer(MESH, state_dir=state)
        resp = recovered.handle_request(
            {"op": "admit", "streams": [spec(src=6, dst=9)]})
        assert resp["ids"] == [1]
        server.close()
        recovered.close()

    def test_released_id_not_reissued_after_restart(self, tmp_path):
        state = tmp_path / "state"
        server = BrokerServer(MESH, state_dir=state)
        server.handle_request({"op": "admit", "streams": [spec()]})
        server.handle_request(
            {"op": "admit", "streams": [spec(src=6, dst=9)]})
        server.handle_request({"op": "release", "ids": [1]})
        server.handle_request({"op": "snapshot"})
        # The compacted snapshot persists the fresh-id high-water mark...
        assert json.loads(
            (state / "snapshot.json").read_text())["next_id"] == 2
        # ...so a restarted broker never reissues the released id 1.
        recovered = BrokerServer(MESH, state_dir=state)
        resp = recovered.handle_request(
            {"op": "admit", "streams": [spec(src=12, dst=15)]})
        assert resp["ids"] == [2]
        server.close()
        recovered.close()

    def test_topology_mismatch_refused(self, tmp_path):
        state = tmp_path / "state"
        server = BrokerServer(MESH, state_dir=state)
        server.handle_request({"op": "admit", "streams": [spec()]})
        server.handle_request({"op": "snapshot"})
        with pytest.raises(ReproError, match="topology"):
            BrokerServer({"type": "mesh", "width": 8, "height": 8},
                         state_dir=state)
        server.close()

    def test_torn_journal_tail_tolerated(self, tmp_path):
        state = tmp_path / "state"
        server = BrokerServer(MESH, state_dir=state)
        server.handle_request({"op": "admit", "streams": [spec()]})
        server.state.close()
        with open(state / "journal.jsonl", "a") as fh:
            fh.write('{"op": "admit", "streams": [{"tr')  # torn tail
        recovered = BrokerServer(MESH, state_dir=state)
        assert recovered.engine.admitted.ids() == (0,)
        recovered.close()

    def test_corrupt_journal_interior_rejected(self, tmp_path):
        state = tmp_path / "state"
        BrokerState(state, MESH)
        (state / "journal.jsonl").write_text(
            'garbage\n{"op": "release", "ids": [0]}\n'
        )
        with pytest.raises(ReproError, match="journal"):
            BrokerServer(MESH, state_dir=state)


class TestAsyncFrontEnd:
    """Round-trips through the real server on a unix socket: the client
    on a thread, :meth:`BrokerServer.run` on the test's."""

    def _run(self, client_fn, tmp_path, **server_kwargs):
        sock = str(tmp_path / "broker.sock")
        result = {}
        server = BrokerServer(MESH, **server_kwargs)
        server.bind_unix(sock)
        thread = threading.Thread(
            target=lambda: result.update(client_fn(sock))
        )
        thread.start()
        # A client that fails before its shutdown must not hang the test.
        timer = threading.Timer(30, server.request_shutdown)
        timer.start()
        try:
            server.run()
        finally:
            timer.cancel()
        thread.join(timeout=10)
        assert not thread.is_alive()
        result["server"] = server
        return result

    def test_unix_round_trip_and_shutdown(self, tmp_path):
        def client(sock):
            with BrokerClient.wait_for_unix(sock) as c:
                hello = c.check("hello")
                admit = c.check("admit", streams=[spec()])
                report = c.check("report")
                c.check("shutdown")
                return {"hello": hello, "admit": admit, "report": report}

        result = self._run(client, tmp_path)
        assert result["hello"]["nodes"] == 36
        assert result["admit"]["admitted"] and result["admit"]["ids"] == [0]
        assert result["report"]["admitted"] == 1
        assert result["server"].metrics.op_counts["admit"] == 1
        assert result["server"].front.batches >= 1

    def test_malformed_line_gets_error_response(self, tmp_path):
        def client(sock):
            c = BrokerClient.wait_for_unix(sock)
            c.send_bytes(b"this is not json\n")
            c.flush()
            raw = c.recv()
            ok = c.check("ping")
            c.check("shutdown")
            c.close()
            return {"raw": raw, "ping": ok}

        result = self._run(client, tmp_path)
        assert not result["raw"]["ok"]
        assert result["raw"]["code"] == "protocol"
        assert result["ping"]["ok"]

    def test_bad_field_types_do_not_kill_worker(self, tmp_path):
        # Regression for the worker-death bug: one malformed release used
        # to raise ValueError out of the worker task, wedging the broker.
        def client(sock):
            with BrokerClient.wait_for_unix(sock) as c:
                bad = c.request("release", ids=["abc"])
                ping = c.check("ping")
                c.check("shutdown")
                return {"bad": bad, "ping": ping}

        result = self._run(client, tmp_path)
        assert not result["bad"]["ok"]
        assert result["bad"]["code"] == "protocol"
        assert result["ping"]["ok"]

    def test_half_close_still_gets_responses(self, tmp_path):
        # A client that pipelines requests and then shuts down its write
        # side must still receive every response before EOF.
        def client(sock):
            c = BrokerClient.wait_for_unix(sock)
            for op in ("hello", "report", "shutdown"):
                c.send_bytes(json.dumps({"op": op}).encode() + b"\n")
            c.half_close()
            lines = [c.recv() for _ in range(3)]
            c.send_bytes(b"")  # one more read: nothing more is owed
            with pytest.raises(ReproError, match="closed the connection"):
                c.recv()
            c.close()
            return {"lines": lines}

        result = self._run(client, tmp_path)
        lines = result["lines"]
        assert len(lines) == 3
        assert all(resp["ok"] for resp in lines)
        assert lines[0]["nodes"] == 36
        assert lines[2]["stopping"]

    def test_metrics_scrape_during_shutdown(self, tmp_path):
        # Shutdown-race regression: a stats scrape already queued behind
        # the shutdown op must be answered (the worker drains the queue
        # before stopping), not dropped or hung on.
        def client(sock):
            c = BrokerClient.wait_for_unix(sock)
            for payload in ({"op": "stats", "format": "prometheus"},
                            {"op": "shutdown"},
                            {"op": "stats", "format": "prometheus"}):
                c.send_bytes(json.dumps(payload).encode() + b"\n")
            c.flush()
            lines = [c.recv() for _ in range(3)]
            c.close()
            return {"lines": lines}

        result = self._run(client, tmp_path)
        lines = result["lines"]
        assert all(resp["ok"] for resp in lines)
        assert lines[1]["stopping"]
        assert "repro_broker_degraded 0" in lines[2]["prometheus"]

    def test_one_sendall_answers_in_order_like_a_serial_client(
        self, tmp_path
    ):
        # The line framing's twin of the gateway test of the same name
        # (tests/test_gateway_batching.py): a batch changes how many
        # wake-ups and writes the answers cost, never the answers.
        lines = [json.dumps(r).encode() + b"\n" for r in (
            {"op": "admit", "id": 1, "streams": [spec()]},
            {"op": "admit", "id": 2, "streams": [spec(src=6, dst=9)]},
            {"op": "query", "id": 3, "stream": 0},
            {"op": "admit", "id": 4, "streams": [
                spec(priority=0, period=5, length=8)]},
            {"op": "release", "id": 5, "ids": [99]},
        )] + [b"not json\n", b"\n"] + [
            json.dumps(r).encode() + b"\n" for r in (
                {"op": "release", "id": 7, "ids": [0]},
                {"op": "report", "id": 8},
            )
        ]
        owed = len(lines) - 1       # the blank line is not a request

        def piped(sock):
            with BrokerClient.wait_for_unix(sock) as c:
                c.send_bytes(b"".join(lines), responses=owed)
                c.flush()
                answers = [c.recv() for _ in range(owed)]
                c.check("shutdown")
                return {"answers": answers}

        def serial(sock):
            with BrokerClient.wait_for_unix(sock) as c:
                answers = []
                for line in lines:
                    if line.strip():
                        c.send_bytes(line)
                        c.flush()
                        answers.append(c.recv())
                c.check("shutdown")
                return {"answers": answers}

        for name in ("piped", "serial"):
            (tmp_path / name).mkdir()
        batched = self._run(piped, tmp_path / "piped")
        one_by_one = self._run(serial, tmp_path / "serial")
        answers = batched["answers"]
        assert answers == one_by_one["answers"]
        assert [a.get("id") for a in answers] == [1, 2, 3, 4, 5, None, 7, 8]
        assert answers[0]["admitted"] and not answers[3]["admitted"]
        assert not answers[4]["ok"] and answers[5]["code"] == "protocol"
        assert batched["server"].front.max_batch == owed
        assert one_by_one["server"].front.max_batch == 1

    def test_serial_requests_are_answered_without_a_task(self, tmp_path):
        # A request is answered in the reader's callback: serving a
        # serial client schedules nothing on the loop — no callback per
        # request, not even one per connection.
        sock = str(tmp_path / "broker.sock")
        handled = []
        scheduled = []

        class Counting(BrokerServer):
            def handle_request(self, request):
                handled.append(request["op"])
                return super().handle_request(request)

        def client():
            with BrokerClient.wait_for_unix(sock) as c:
                c.check("admit", streams=[spec()])
                for _ in range(98):
                    c.check("query", stream=0)
                c.check("shutdown")

        server = Counting(MESH)
        server.bind_unix(sock)
        loop = server._loop
        call_soon = loop.call_soon
        loop.call_soon = lambda *args: (
            scheduled.append(handled[-1] if handled else None),
            call_soon(*args),
        )
        thread = threading.Thread(target=client)
        thread.start()
        server.run()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(handled) == 100
        # Only the shutdown schedules: its connection's drain and close.
        assert set(scheduled) <= {"shutdown"}, scheduled

    def test_one_sendall_is_one_batch(self, tmp_path):
        lines = b"".join(json.dumps({"op": "ping", "id": i}).encode()
                         + b"\n" for i in range(8))

        def client(sock):
            with BrokerClient.wait_for_unix(sock) as c:
                c.send_bytes(lines, responses=8)
                c.flush()
                answers = [c.recv() for _ in range(8)]
                batching = c.check("stats")["service"]["batching"]
                c.check("shutdown")
                return {"answers": answers, "batching": batching}

        result = self._run(client, tmp_path)
        assert [a["id"] for a in result["answers"]] == list(range(8))
        assert result["batching"]["batches"] == 1
        assert result["batching"]["mean_size"] == 8

    def test_stalled_writes_stop_the_reader(self, tmp_path):
        # A client that pipelines without reading: once the answers
        # fill the socket and the transport's buffer, the connection
        # stops answering and, its read-ahead full, stops reading —
        # then serves everything, in order, once the client reads.
        count = 2000
        streams = [spec(src=i % 36, dst=(i * 7 + 3) % 36, priority=i % 10,
                        period=4000, length=2) for i in range(50)]

        def client(sock):
            with BrokerClient.wait_for_unix(sock) as c:
                assert len(c.check("admit", streams=streams)["ids"]) == 50
                raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                raw.settimeout(30)
                raw.connect(sock)
                raw.sendall(b"".join(
                    json.dumps({"op": "report", "id": i}).encode() + b"\n"
                    for i in range(count)
                ))
                time.sleep(1.0)
                stalled = c.check("stats")["service"]["batching"]
                with raw, raw.makefile("rb") as reader:
                    ids = [json.loads(reader.readline())["id"]
                           for _ in range(count)]
                c.check("shutdown")
                return {"stalled": stalled, "ids": ids}

        result = self._run(client, tmp_path)
        assert result["stalled"]["readahead_full"] > 0
        assert result["stalled"]["requests"] < count
        assert result["ids"] == list(range(count))

    def test_over_limit_line_is_answered_then_the_connection_closed(
        self, tmp_path
    ):
        # One constant bounds a request on every framing: a line of
        # exactly _MAX_BODY bytes is served; one byte more is refused
        # with a protocol error — after everything before it was
        # answered — and only that connection is closed.
        limit = server_module._MAX_BODY
        at_limit = json.dumps({"op": "ping", "id": 2, "padding": ""})
        at_limit = at_limit.replace(
            '""', '"' + "x" * (limit - len(at_limit)) + '"'
        ).encode()
        assert len(at_limit) == limit

        def client(sock):
            other = BrokerClient.wait_for_unix(sock)
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.settimeout(30)
            raw.connect(sock)
            try:
                raw.sendall(b'{"op": "ping", "id": 1}\n' + at_limit + b"\n"
                            + b"y" * (limit + 1) + b"\n")
            except OSError:
                pass    # refused while still being written
            reader = raw.makefile("rb")
            answers = [json.loads(reader.readline()) for _ in range(3)]
            try:
                rest = reader.read()
            except ConnectionResetError:    # closed with input unread
                rest = b""
            raw.close()
            ping = other.check("ping")
            other.check("shutdown")
            other.close()
            return {"answers": answers, "rest": rest, "ping": ping}

        result = self._run(client, tmp_path)
        first, second, refused = result["answers"]
        assert first["ok"] and first["id"] == 1
        assert second["ok"] and second["id"] == 2
        assert not refused["ok"] and refused["code"] == "protocol"
        assert result["rest"] == b""
        assert result["ping"]["ok"]

    def test_pipelined_disconnect_retry_no_duplicates(self, tmp_path):
        # A client that pipelines two rid-carrying admits and vanishes
        # after the first response must be able to retry both rids from
        # a fresh connection without any double-apply.
        def client(sock):
            c = BrokerClient.wait_for_unix(sock)
            for i in range(2):
                c.send_bytes(json.dumps(
                    {"op": "admit", "rid": f"p{i}",
                     "streams": [spec(src=6 * i, dst=6 * i + 3)]}
                ).encode() + b"\n")
            c.flush()
            first = c.recv()
            c.close()  # drop mid-batch: the second ack is lost
            r = BrokerClient.wait_for_unix(sock)
            retries = [
                r.check("admit", rid=f"p{i}",
                        streams=[spec(src=6 * i, dst=6 * i + 3)])
                for i in range(2)
            ]
            report = r.check("report")
            r.check("shutdown")
            r.close()
            return {"first": first, "retries": retries, "report": report}

        result = self._run(client, tmp_path,
                           state_dir=tmp_path / "state")
        assert result["first"]["ok"] and result["first"]["admitted"]
        assert all(r["duplicate"] for r in result["retries"])
        assert result["report"]["admitted"] == 2
        assert result["server"].metrics.duplicates == 2

    def test_retry_client_survives_server_restart(self, tmp_path):
        # request_with_retry across a dropped connection: close the
        # socket under the client, retry the same rid, expect a dedupe.
        def client(sock):
            c = BrokerClient.wait_for_unix(sock)
            first = c.check("admit", rid="rr", streams=[spec()])
            c._sock.close()  # simulate the connection dying under us
            retry = c.request_with_retry(
                "admit", rid="rr", streams=[spec()],
                backoff_base=0.001, backoff_cap=0.01,
            )
            c.check("shutdown")
            c.close()
            return {"first": first, "retry": retry}

        result = self._run(client, tmp_path)
        assert result["first"]["admitted"]
        assert result["retry"]["duplicate"]
        assert result["retry"]["ids"] == result["first"]["ids"]

    def test_load_generator_against_live_server(self, tmp_path):
        def client(sock):
            with BrokerClient.wait_for_unix(sock) as c:
                summary = run_load(c, ops=60, seed=2, target_live=10)
                c.check("shutdown")
                return {"summary": summary}

        result = self._run(client, tmp_path,
                           state_dir=tmp_path / "state")
        summary = result["summary"]
        assert summary.ops == 60 and summary.errors == 0
        assert summary.admits_accepted > 0
        assert summary.server_stats["engine"]["ops"] > 0
        # The committed churn is recoverable.
        recovered = BrokerServer(MESH, state_dir=tmp_path / "state")
        assert len(recovered.engine.admitted) == summary.live_at_end
        recovered.close()

    def test_pipelined_load_generator(self, tmp_path):
        # Eight requests in flight: the workload must stay well-formed
        # (no errors, only confirmed ids released) and the client must
        # drain its window so the final live count matches the server's.
        def client(sock):
            with BrokerClient.wait_for_unix(sock) as c:
                summary = run_load(c, ops=80, seed=4, target_live=10,
                                   pipeline=8)
                report = c.check("report")
                c.check("shutdown")
                return {"summary": summary, "report": report}

        result = self._run(client, tmp_path)
        summary = result["summary"]
        assert summary.pipeline == 8
        assert summary.ops == 80 and summary.errors == 0
        assert summary.admits_accepted > 0 and summary.releases > 0
        assert result["report"]["admitted"] == summary.live_at_end


class TestAsyncAdapters:
    def test_served_from_asyncio_and_stopped_from_its_loop(self, tmp_path):
        """The bench spine's embedding: ``start_unix`` and
        ``serve_forever`` under ``asyncio.run`` on a thread, stopped
        with ``call_soon_threadsafe(server.request_shutdown)`` — from a
        thread that is neither the test's nor the one serving."""
        sock = tmp_path / "broker.sock"
        server = BrokerServer(MESH)
        box = {}
        ready = threading.Event()

        async def main():
            box["loop"] = asyncio.get_running_loop()
            await server.start_unix(sock)
            ready.set()
            await asyncio.wait_for(server.serve_forever(), timeout=60)

        thread = threading.Thread(target=lambda: asyncio.run(main()))
        thread.start()
        assert ready.wait(timeout=30)
        with BrokerClient(socket_path=sock) as client:
            assert client.check("admit", streams=[spec()])["admitted"]
            box["loop"].call_soon_threadsafe(server.request_shutdown)
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert not sock.exists()
        assert server.metrics.op_counts == {"admit": 1}


class TestCloseConnections:
    """The one serve-drain-close every server runs
    (:meth:`LoopServer.run`), against a stub server."""

    def test_queued_answered_idle_closed_blocked_cancelled(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(server_module, "_DRAIN_TIMEOUT", 0.5)

        class Stub(server_module.LoopServer):
            """Answers a batch with its ids, at once — or, for a batch
            whose first request names a ``hold``, later: ``"busy"`` once
            the drain has begun and ``release`` is set, ``"stuck"``
            never, like a wedged worker's answer."""

            readahead_full = 0

            def __init__(self):
                super().__init__()
                self.held = {}
                self.release = threading.Event()
                self.closed = False

            def _serve(self, batch, conn):
                answer = json.dumps([item["id"] for item in batch]).encode()
                hold = batch[0].get("hold")
                if hold is None:
                    return answer + b"\n"
                self.held[hold] = conn
                if hold == "busy":
                    self._deliver_when_released(conn, answer + b"\n")
                return None

            def _deliver_when_released(self, conn, answer):
                if self._stopping and self.release.is_set():
                    conn.deliver(answer)
                else:
                    self._loop.call_later(
                        0.01, self._deliver_when_released, conn, answer)

            def close(self):
                self.closed = True

        def drain(sock):
            """Everything the server wrote before it closed."""
            data = b""
            with sock:
                while True:
                    try:
                        chunk = sock.recv(65536)
                    except ConnectionResetError:    # closed, input unread
                        return data
                    if not chunk:
                        return data
                    data += chunk

        path = tmp_path / "stub.sock"
        server = Stub()
        server._listen(server_module.unix_listener(path),
                       lambda loop: LineConnection(server, loop))
        thread = threading.Thread(target=server.run)
        thread.start()

        def connect():
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(10)
            sock.connect(str(path))
            return sock

        def wait_until(predicate):
            deadline = time.monotonic() + 10
            while not predicate():
                assert time.monotonic() < deadline, "timed out"
                time.sleep(0.01)

        idle = connect()
        idle.sendall(b'{"op": "ping", "id": 5}\n')
        assert idle.recv(100) == b"[5]\n"
        busy, stuck = connect(), connect()
        for sock, hold in ((busy, "busy"), (stuck, "stuck")):
            # One request whose answer is pending, two more parsed
            # ahead behind it.
            sock.sendall(b'{"op": "ping", "id": 0, "hold": "%s"}\n'
                         % hold.encode())
            wait_until(lambda: hold in server.held)
            sock.sendall(b'{"op": "ping", "id": 1}\n'
                         b'{"op": "ping", "id": 2}\n')
            wait_until(lambda: len(server.held[hold].ahead) == 2)
        assert len(server.connections) == 3
        started = time.monotonic()
        server.request_shutdown()

        def refused():     # listening stopped: the drain began
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
                return probe.connect_ex(str(path)) != 0

        wait_until(refused)
        busy.sendall(b'{"op": "ping", "id": 99}\n')   # not read any more
        server.release.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert 0.5 <= time.monotonic() - started < 5
        assert server.closed and server._loop is None
        answered, idle, stuck = (drain(sock) for sock in (busy, idle, stuck))
        assert [json.loads(line) for line in answered.splitlines()] == \
            [[0], [1, 2]]
        assert idle == b"" and stuck == b""


class TestChurnSpec:
    def test_specs_are_valid(self):
        import random

        rng = random.Random(0)
        for _ in range(100):
            s = churn_spec(rng, 36)
            assert 0 <= s["src"] < 36 and 0 <= s["dst"] < 36
            assert s["src"] != s["dst"]
            assert 0 < s["deadline"] <= s["period"]


class TestAnalysisSelection:
    """Per-request bound-backend selection through the broker, and its
    persistence across snapshot+journal restarts."""

    def test_hello_lists_backends(self, monkeypatch):
        from repro.core import backends

        monkeypatch.delenv(backends.ENV_VAR, raising=False)
        server = BrokerServer(MESH)
        resp = server.handle_request({"op": "hello", "id": 1})
        assert resp["ok"]
        assert resp["default_analysis"] == "kim98"
        assert {"kim98", "tighter", "buffered"} <= set(resp["analyses"])

    def test_admit_with_each_backend_round_trips(self):
        from repro.core import backends

        server = BrokerServer(MESH)
        src = 0
        for name in backends.names():
            resp = server.handle_request({
                "op": "admit", "analysis": name,
                "streams": [spec(src=src, dst=src + 3)],
            })
            assert resp["ok"] and resp["admitted"], (name, resp)
            assert resp["analysis"] == name
            sid = resp["ids"][0]
            q = server.handle_request({"op": "query", "stream": sid})
            assert q["ok"] and q["analysis"] == name
            src += 6
        report = server.handle_request({"op": "report"})["report"]
        stamped = {entry["analysis"]
                   for entry in report["streams"].values()}
        assert stamped == set(backends.names())

    def test_admit_unknown_backend_is_protocol_error(self):
        server = BrokerServer(MESH)
        resp = server.handle_request({
            "op": "admit", "analysis": "kim99", "streams": [spec()],
        })
        assert not resp["ok"] and resp["code"] == "protocol"
        assert "kim99" in resp["error"] and "kim98" in resp["error"]
        # Nothing was admitted by the failed request.
        assert server.handle_request({"op": "report"})["admitted"] == 0

    def test_admit_non_string_backend_rejected(self):
        server = BrokerServer(MESH)
        resp = server.handle_request({
            "op": "admit", "analysis": 7, "streams": [spec()],
        })
        assert not resp["ok"] and resp["code"] == "protocol"

    def test_journal_records_resolved_backend(self, tmp_path, monkeypatch):
        from repro.core import backends

        monkeypatch.delenv(backends.ENV_VAR, raising=False)
        state = tmp_path / "state"
        server = BrokerServer(MESH, state_dir=state)
        server.handle_request({
            "op": "admit", "analysis": "tighter", "streams": [spec()],
        })
        server.handle_request({"op": "admit", "streams": [spec(src=6, dst=9)]})
        ops = [json.loads(line) for line in
               (state / "journal.jsonl").read_text().splitlines()]
        assert ops[0]["analysis"] == "tighter"
        # The engine default is resolved at admit time, not replay time.
        assert ops[1]["analysis"] == "kim98"
        server.close()

    def test_backends_survive_journal_replay(self, tmp_path):
        state = tmp_path / "state"
        server = BrokerServer(MESH, state_dir=state)
        server.handle_request({
            "op": "admit", "analysis": "tighter", "streams": [spec()],
        })
        server.handle_request({
            "op": "admit", "analysis": "buffered",
            "streams": [spec(src=6, dst=9)],
        })
        recovered = BrokerServer(MESH, state_dir=state)
        assert recovered.engine.analysis_of(0) == "tighter"
        assert recovered.engine.analysis_of(1) == "buffered"
        q = recovered.handle_request({"op": "query", "stream": 0})
        assert q["analysis"] == "tighter"
        server.close()
        recovered.close()

    def test_backends_survive_snapshot_restart(self, tmp_path, monkeypatch):
        from repro.core import backends

        monkeypatch.delenv(backends.ENV_VAR, raising=False)
        state = tmp_path / "state"
        server = BrokerServer(MESH, state_dir=state)
        server.handle_request({
            "op": "admit", "analysis": "tighter", "streams": [spec()],
        })
        server.handle_request({
            "op": "admit", "streams": [spec(src=6, dst=9)],
        })
        server.handle_request({"op": "snapshot"})
        snap = json.loads((state / "snapshot.json").read_text())
        assert {e["id"]: e.get("analysis") for e in snap["streams"]} == {
            0: "tighter", 1: "kim98",
        }
        # Snapshot-only recovery (journal was compacted away).
        recovered = BrokerServer(MESH, state_dir=state)
        assert recovered.engine.analysis_of(0) == "tighter"
        assert recovered.engine.analysis_of(1) == "kim98"
        report = recovered.handle_request({"op": "report"})["report"]
        assert report["streams"]["0"]["analysis"] == "tighter"
        assert report["streams"]["1"]["analysis"] == "kim98"
        server.close()
        recovered.close()

    def test_server_analysis_default_applies_to_plain_admits(self):
        server = BrokerServer(MESH, analysis="tighter")
        resp = server.handle_request({"op": "hello"})
        assert resp["default_analysis"] == "tighter"
        admit = server.handle_request({"op": "admit", "streams": [spec()]})
        assert admit["ok"] and admit["analysis"] == "tighter"
