"""The gateway serves a connection's waiting requests as one batch.

Same answers, fewer wake-ups: whatever a client has pipelined on a
connection is resolved in one handler pass and answered with one write.
These tests speak raw pipelined HTTP/1.1 (the stock ``GatewayClient``
pipelines too, but only well-formed requests under one API key; see
``tests/test_fleet_gateway.py``) and pin what batching must not change:
response order, equality with serial answers, per-request API keys,
``400``-then-close, ``Connection: close``, ``shutdown``, half-closed
clients and back-pressure beyond the read-ahead bound — with in-process
tenants and with two worker processes.

What is about the connection and not about HTTP — requests arriving in
pieces, more outstanding than the read-ahead bound — runs against
``repro serve``'s JSON-lines framing too (the ``line`` parameter of
:func:`wire`): it is the same :class:`repro.service.server.Connection`.
The rest of the line framing's battery, whose helpers have another
shape, is ``tests/test_service_server.py::TestAsyncFrontEnd``.
"""

import contextlib
import json
import socket
import threading
import time
from typing import Any, Callable, NamedTuple, Tuple

import pytest

from repro.fleet.gateway import GatewayServer
from repro.fleet.shards import Fleet, TenantSpec
from repro.service import server as server_module
from repro.service.server import BrokerServer

TOPO = {"type": "mesh", "width": 4, "height": 4}
TENANTS = (("acme", "k-acme"), ("beta", "k-beta"))


def spec(src=0, dst=2, priority=5, period=300, length=4):
    return {"src": src, "dst": dst, "priority": priority, "period": period,
            "length": length, "deadline": period}


@contextlib.contextmanager
def on_thread(server, shutdown):
    """Serve the bound ``server`` (its ``run``) on a thread; yields it
    and ends it with ``shutdown(server)`` if the body has not already."""
    thread = threading.Thread(target=server.run)
    thread.start()
    try:
        yield server
    finally:
        if thread.is_alive():
            with contextlib.suppress(OSError):
                shutdown(server)
        thread.join(timeout=60)
        assert not thread.is_alive(), "server did not stop"


@contextlib.contextmanager
def serving(state_dir, workers):
    """A gateway on a loopback port; yields ``(port, gateway)`` and
    shuts it down over HTTP."""
    fleet = Fleet(
        [TenantSpec(name, key, TOPO) for name, key in TENANTS],
        state_dir=state_dir if workers else None, workers=workers,
    )
    gw = GatewayServer(fleet)
    port = gw.bind_tcp("127.0.0.1", 0)

    def shutdown(gw):
        stopper = Pipe(port)
        try:
            stopper.send(http("/v1/shutdown")).read(1)
        finally:
            stopper.close()

    with on_thread(gw, shutdown):
        yield port, gw


def http(path="/v1/op", body=None, *, key="k-acme", method="POST",
         extra=""):
    """One request as wire bytes."""
    data = b"" if body is None else json.dumps(body).encode()
    return (
        f"{method} {path} HTTP/1.1\r\nHost: gw\r\nX-API-Key: {key}\r\n"
        f"{extra}Content-Length: {len(data)}\r\n\r\n"
    ).encode() + data


def op(name, *, key="k-acme", extra="", **fields):
    return http(body={"op": name, **fields}, key=key, extra=extra)


class Pipe:
    """A raw connection: write any bytes, read responses one by one."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.file = self.sock.makefile("rb")

    def send(self, *requests):
        self.sock.sendall(b"".join(requests))
        return self

    def half_close(self):
        self.sock.shutdown(socket.SHUT_WR)
        return self

    def read(self, count=None):
        """The next ``count`` responses — all of them, up to the
        server's close, when ``None`` — as ``(status, connection header,
        decoded body)`` triples."""
        out = []
        while count is None or len(out) < count:
            status = self.file.readline()
            if not status:
                assert count is None, f"closed after {len(out)} of {count}"
                break
            headers = {}
            for line in iter(self.file.readline, b"\r\n"):
                name, _, value = line.decode().partition(":")
                headers[name.lower()] = value.strip()
            body = self.file.read(int(headers["content-length"]))
            out.append((int(status.split()[1]), headers["connection"],
                        json.loads(body)))
        return out

    def bodies(self, count=None):
        return [body for _, _, body in self.read(count)]

    def closed_by_server(self):
        return self.file.read(1) == b""

    def close(self):
        self.file.close()
        self.sock.close()


class LinePipe(Pipe):
    """The same raw connection to a JSON-lines listener."""

    def bodies(self, count=None):
        out = []
        while count is None or len(out) < count:
            line = self.file.readline()
            if not line:
                assert count is None, f"closed after {len(out)} of {count}"
                break
            out.append(json.loads(line))
        return out


@pytest.fixture(scope="module")
def gateway_inprocess(tmp_path_factory):
    with serving(tmp_path_factory.mktemp("gw"), 0) as (port, gw):
        yield port, gw


@pytest.fixture(scope="module")
def gateway_workers(tmp_path_factory):
    with serving(tmp_path_factory.mktemp("gw"), 2) as (port, gw):
        yield port, gw


@pytest.fixture(scope="module")
def broker():
    """``repro serve`` on a loopback port: ``(port, server)``."""
    server = BrokerServer(TOPO)
    port = server.bind_tcp("127.0.0.1", 0)

    def shutdown(server):
        stopper = LinePipe(port)
        try:
            stopper.send(line_op("shutdown")).bodies(1)
        finally:
            stopper.close()

    with on_thread(server, shutdown):
        yield port, server


@pytest.fixture(scope="module", params=["inprocess", "workers"])
def gateway(request):
    return request.getfixturevalue(f"gateway_{request.param}")


@pytest.fixture()
def pipe(gateway):
    conn = Pipe(gateway[0])
    yield conn
    conn.close()


class Wire(NamedTuple):
    """One raw connection of either framing, with what a test of the
    connection (not of the protocol spoken over it) needs to know."""
    pipe: Pipe
    op: Callable[..., bytes]    # one request as wire bytes
    blank: bytes                # what the framing skips between requests
    #: ``(readahead_full, batches, batched requests)`` of the server.
    counters: Callable[[], Tuple[int, int, int]]


def line_op(name, **fields):
    return json.dumps({"op": name, **fields}).encode() + b"\n"


@pytest.fixture(params=["inprocess", "workers", "line"])
def wire(request):
    if request.param == "line":
        port, server = request.getfixturevalue("broker")
        metrics: Any = server.front
        conn, speak, blank = LinePipe(port), line_op, b"\n"
    else:
        port, metrics = request.getfixturevalue(f"gateway_{request.param}")
        conn, speak, blank = Pipe(port), op, b"\r\n"
    yield Wire(conn, speak, blank, lambda: (
        metrics.readahead_full, metrics.batches, metrics.batched_requests
    ))
    conn.close()


@pytest.mark.parametrize("workers", [0, 2], ids=["inprocess", "workers"])
def test_one_sendall_answers_in_order_like_a_serial_client(tmp_path, workers):
    """Eight requests written at once come back as eight responses, in
    order, equal to what a one-at-a-time client gets from a second
    gateway — rejections, errors and reads in between included."""
    requests = [
        op("admit", id=1, streams=[spec(0, 1)]),
        op("admit", id=2, streams=[spec(2, 3)]),
        op("query", id=3, stream=0),
        op("admit", id=4,
           streams=[spec(0, 1, priority=1, period=5, length=8)]),
        op("release", id=5, ids=[99]),
        op("admit", id=6, streams=[spec(0, 1, priority=4),     # touches
                                   spec(2, 3, priority=4)]),   # both
        op("release", id=7, ids=[0]),
        op("report", id=8),
    ]
    with serving(tmp_path / "piped", workers) as (port, gw):
        conn = Pipe(port)
        piped = conn.send(*requests).read(len(requests))
        conn.close()
        assert gw.batched_requests == len(requests)
        assert gw.fleet.stats()["acme"]["admitted"] == 3
    with serving(tmp_path / "serial", 0) as (port, _):
        conn = Pipe(port)
        serial = [conn.send(r).read(1)[0] for r in requests]
        conn.close()
    assert [body["id"] for _, _, body in piped] == list(range(1, 9))
    assert piped == serial
    assert piped[0][2]["admitted"] and not piped[3][2]["admitted"]
    assert not piped[4][2]["ok"]


def test_api_keys_are_checked_per_request_and_order_holds(pipe):
    requests = []
    for i in range(8):
        key = ("k-acme", "k-beta", "nope")[i % 3]
        requests.append(op("hello", key=key, id=i))
    answers = pipe.send(*requests).read(8)
    for i, (status, _, body) in enumerate(answers):
        if i % 3 == 2:
            assert status == 401 and not body["ok"]
        else:
            assert status == 200 and body["id"] == i
            assert body["tenant"] == ("acme", "beta")[i % 3]


def test_malformed_request_answers_the_earlier_ones_then_400_then_closes(
    pipe,
):
    answers = pipe.send(
        op("ping", id=1), op("ping", id=2),
        b"BOGUS\r\n\r\n",
        op("ping", id=3),
    ).read()
    assert [(s, b.get("id")) for s, _, b in answers] == [
        (200, 1), (200, 2), (400, None),
    ]
    assert answers[-1][1] == "close"
    assert pipe.closed_by_server()


@pytest.mark.parametrize("length", ["abc", "-5"])
def test_bad_content_length_is_a_400_not_a_reset(pipe, length):
    answers = pipe.send(
        op("ping", id=1),
        f"POST /v1/op HTTP/1.1\r\nX-API-Key: k-acme\r\n"
        f"Content-Length: {length}\r\n\r\n".encode(),
    ).read()
    assert [s for s, _, _ in answers] == [200, 400]
    assert "Content-Length" in answers[1][2]["error"]
    assert pipe.closed_by_server()


def test_connection_close_inside_a_batch_ends_it_there(pipe):
    answers = pipe.send(
        op("ping", id=1),
        op("ping", id=2, extra="Connection: close\r\n"),
        op("ping", id=3),
    ).read()
    assert [(b["id"], c) for _, c, b in answers] == [
        (1, "keep-alive"), (2, "close"),
    ]
    assert pipe.closed_by_server()


def test_half_closed_client_gets_everything_it_queued(pipe):
    answers = pipe.send(
        *[op("ping", id=i) for i in range(12)], http("/healthz", method="GET")
    ).half_close().read()
    assert [b.get("id") for _, _, b in answers[:12]] == list(range(12))
    assert answers[12][0] == 200 and "tenants" in answers[12][2]


def test_more_outstanding_than_the_read_ahead_bound(wire):
    """Past the FIFO bound the reader stops reading (TCP back-pressure
    reaches the client); nothing deadlocks, nothing is dropped."""
    count = 5 * server_module._READAHEAD
    full_before, _, _ = wire.counters()
    writer = threading.Thread(
        target=wire.pipe.send,
        args=[wire.op("ping", id=i) for i in range(count)],
    )
    writer.start()
    answers = wire.pipe.bodies(count)
    writer.join(timeout=30)
    assert not writer.is_alive()
    assert [b["id"] for b in answers] == list(range(count))
    full, batches, batched_requests = wire.counters()
    assert full > full_before
    assert batched_requests > batches, "nothing was ever batched"


def test_requests_arriving_in_pieces(wire):
    """A request split mid-token, one larger than one socket read, and
    blank lines between requests all assemble into the same requests."""
    big = wire.op("ping", id=2, padding="x" * 400_000)
    data = wire.op("ping", id=1) + wire.blank + big + wire.op("ping", id=3)
    for cut in (10, 45, len(wire.op("ping", id=1)) + 60):
        wire.pipe.sock.sendall(data[:cut])
        time.sleep(0.05)
        data = data[cut:]
    wire.pipe.sock.sendall(data)
    assert [b["id"] for b in wire.pipe.bodies(3)] == [1, 2, 3]


def test_endless_head_is_refused(pipe):
    pipe.sock.sendall(b"GET /healthz HTTP/1.1\r\nX-Junk: " + b"j" * 70_000)
    (status, connection, body), = pipe.read()
    assert status == 431 and connection == "close"
    assert pipe.closed_by_server()


def test_in_place_requests_see_the_ops_before_them(pipe):
    """/healthz between two runs of ops reports the first run's effect:
    a batch is resolved in request order, not ops first."""
    answers = pipe.send(
        op("admit", key="k-beta", id=1, streams=[spec(0, 2, priority=9)]),
        http("/healthz", method="GET"),
        op("release", key="k-beta", id=2, ids=[0]),
        http("/healthz", method="GET"),
    ).read(4)
    assert answers[0][2]["admitted"], answers[0]
    assert answers[1][2]["tenants"]["beta"]["admitted"] == 1
    assert answers[2][2]["released"] == [0]
    assert answers[3][2]["tenants"]["beta"]["admitted"] == 0


def test_unrouted_paths_share_one_counter(gateway, pipe):
    port, gw = gateway
    answers = pipe.send(
        *[http(f"/scan/{i}", method="GET") for i in range(6)]
    ).read(6)
    assert {s for s, _, _ in answers} == {404}
    assert gw.requests[("other", 404)] >= 6
    assert not [path for path, _ in gw.requests if path.startswith("/scan")]


@pytest.mark.parametrize("workers", [0, 2], ids=["inprocess", "workers"])
def test_shutdown_inside_a_batch_answers_what_precedes_it(tmp_path, workers):
    with serving(tmp_path, workers) as (port, _):
        conn = Pipe(port)
        answers = conn.send(
            op("admit", id=1, streams=[spec(0, 2)]),
            op("query", id=2, stream=0),
            op("shutdown", id=3),
            op("ping", id=4),
        ).read()
        conn.close()
    assert [b["id"] for _, _, b in answers] == [1, 2, 3]
    assert answers[0][2]["admitted"] and answers[1][2]["ok"]
    assert answers[2][2]["stopping"]
