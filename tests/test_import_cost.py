"""Start-up cost pin: service interpreters import neither ``networkx``
nor ``numpy``, nor the offline-only modules the package inits re-export,
and no served process — a broker (``repro serve``), the gateway, its
workers, a chaos campaign — imports asyncio or ``hashlib``.

Every ``repro serve``, gateway and worker process imports the
topology and core packages; ``networkx`` is only needed by the graph
exports and the deadlock / BDG tooling, and ``numpy`` only by the array
views of a timing diagram (rendering, tests) — the analysis itself runs
on integer bitsets — so each is imported inside the functions that
need it. This pins both halves:
the service modules load without it, and the functions that need it
still work — and a third thing the import used to buy by accident: a
lean server must not pay an ``mmap``/``munmap`` pair per socket read
(the selectors loop reads into one buffer it allocated once).
"""

import json
import os
import platform
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.bdg import build_bdg
from repro.core.hpset import HPEntry, HPSet
from repro.service.host import EngineHost
from repro.topology import Mesh2D, XYRouting
from repro.topology.routing import is_deadlock_free

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p]
    )
    return env


#: Offline-only modules a package init re-exports by name: resolved on
#: first use, so no served interpreter compiles them.
OFFLINE_MODULES = (
    "repro.core.assignment", "repro.core.busy_window", "repro.core.render",
    "repro.service.loadgen", "repro.obs.chrome",
)


def test_service_modules_load_without_networkx():
    env = child_env()
    code = (
        "import sys\n"
        "import repro.cli, repro.service.server, repro.fleet.workers, "
        "repro.fleet.gateway\n"
        "raise SystemExit(', '.join(m for m in ('networkx', 'numpy',"
        f" 'http.client', *{OFFLINE_MODULES!r}) if m in sys.modules) or 0)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    # ``http.client`` (and the ``email`` package it drags in) left with
    # the gateway's second client: the one client speaks HTTP itself.
    # ``numpy`` costs ~14 MiB of RSS and ~30 ms of start-up per process;
    # the offline modules cost compile time in every spawn that does not
    # find their bytecode cached.
    assert done.returncode == 0, (
        "a service module imports at load time: " + done.stderr
    )


#: A ``repro serve`` run to its end in one interpreter — recovery,
#: admits, a scrape, the shutdown and the drain — then what it loaded.
SERVE_PROBE = """
import json, socket, sys, threading, time
from repro.cli import main

path, state = sys.argv[1:]
ops = [{"op": "hello"}, {"op": "stats", "format": "prometheus"}] + [
    {"op": "admit", "streams": [{"src": i, "dst": i + 1, "priority": 1,
                                 "period": 100, "length": 4,
                                 "deadline": 100}]}
    for i in range(3)
] + [{"op": "shutdown"}]

def client():
    for _ in range(3000):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(path)
            break
        except OSError:
            sock.close()
            time.sleep(0.01)
    sock.sendall(b"".join(json.dumps(op).encode() + b"\\n" for op in ops))
    with sock, sock.makefile("rb") as reader:
        answers.extend(json.loads(reader.readline()) for _ in ops)

answers = []
thread = threading.Thread(target=client)
thread.start()
main(["serve", "--socket", path, "--mesh", "4x4", "--state-dir", state])
thread.join(timeout=30)
assert [a["ok"] for a in answers] == [True] * len(ops), answers
print(json.dumps([m for m in ("asyncio", "ssl", "_ssl", "hashlib",
                               "_hashlib") if m in sys.modules]))
"""


def test_a_served_broker_loads_neither_asyncio_nor_libcrypto(tmp_path):
    """A broker speaks JSON lines without TLS: asyncio (which always
    imports ``ssl``, mapping libssl and libcrypto) and ``hashlib``
    (libcrypto again) are ~7 MiB of its RSS it would never use."""
    done = subprocess.run(
        [sys.executable, "-c", SERVE_PROBE, str(tmp_path / "b.sock"),
         str(tmp_path / "state")],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    # The last line; the first is serve's "listening" line.
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_fingerprint_still_works():
    """``fingerprint`` imports ``hashlib`` where it runs."""
    import hashlib

    host = EngineHost({"type": "mesh", "width": 4, "height": 4})
    host.handle_request({"op": "admit", "streams": [
        {"src": 0, "dst": 3, "priority": 1, "period": 100, "length": 4,
         "deadline": 100}]})
    sha, spec = host.fingerprint()
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    assert sha == hashlib.sha256(blob.encode("utf-8")).hexdigest()
    assert list(spec["streams"]) == ["0"]


def test_graph_helpers_still_work():
    assert is_deadlock_free(XYRouting(Mesh2D(3, 3)))
    hp = HPSet(2, [HPEntry.direct(1), HPEntry.indirect(0, [1])])
    bdg = build_bdg(hp, {2: (1,), 1: (0,), 0: ()})
    assert sorted(bdg.edges()) == [(1, 0), (2, 1)]
    assert bdg.nodes[0]["mode"] == "INDIRECT"


#: Everything ``repro gateway --workers 2`` runs in one interpreter —
#: the fork of its workers, an admit forwarded to one, ``/healthz``
#: and ``/metrics`` asked of both, the shutdown and the drain — then
#: what it loaded.
GATEWAY_PROBE = """
import json, socket, sys, threading, time
from repro.cli import main
from repro.fleet.client import GatewayClient

port, state = int(sys.argv[1]), sys.argv[2]
answers = []

def client():
    for _ in range(3000):
        try:
            c = GatewayClient(f"127.0.0.1:{port}", api_key="k")
            c.get("/healthz")
            break
        except OSError:
            time.sleep(0.01)
    with c:
        answers.append(c.check("admit", streams=[{
            "src": 0, "dst": 1, "priority": 1, "period": 100, "length": 4,
            "deadline": 100}])["ok"])
        answers.append(c.get("/healthz")["ok"])
        answers.append("repro_gateway_batches_total" in c.get("/metrics"))
        answers.append(c.request("shutdown")["ok"])

thread = threading.Thread(target=client)
thread.start()
main(["gateway", "--host", "127.0.0.1", "--port", str(port), "--mesh", "4x4",
      "--tenant", "acme=k", "--tenant", "beta=j", "--workers", "2",
      "--state-dir", state])
thread.join(timeout=30)
assert answers == [True] * 4, answers
print(json.dumps([m for m in ("asyncio", "ssl", "_ssl", "hashlib",
                               "_hashlib") if m in sys.modules]))
"""

LIBCRYPTO = ["asyncio", "ssl", "_ssl", "hashlib", "_hashlib"]


def test_a_served_gateway_and_its_workers_load_neither(tmp_path):
    """``repro gateway`` and the workers it forks serve HTTP and JSON
    lines without TLS, like the broker: one loop, no asyncio."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    done = subprocess.run(
        [sys.executable, "-c", GATEWAY_PROBE, str(port),
         str(tmp_path / "state")],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


@pytest.mark.parametrize("module", ["repro.fleet", "repro.faults.campaign"])
def test_the_fleet_modules_load_neither(module):
    """What ``repro chaos --fleet`` and every fleet import loads."""
    code = (f"import sys, json, {module}\n"
            f"print(json.dumps([m for m in {LIBCRYPTO!r} "
            "if m in sys.modules]))")
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


#: A gateway's serial round trips, counted in minor faults, after the
#: interpreter's heap is so full that a read of asyncio's size (256 KiB)
#: is served with ``mmap``: two faults each.
READ_PROBE = """
import resource, socket, threading
from repro.fleet import Fleet, GatewayServer, TenantSpec

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

a, b = socket.socketpair()

def recvs(count):
    before = faults()
    for _ in range(count):
        a.send(b"x" * 100)
        b.recv(256 * 1024)      # what asyncio's transport asks for
    return faults() - before

# A server's live set grows until the heap has no free 256 KiB left;
# from then on every such recv needs new memory. Get there directly.
held = []
while recvs(20) < 20 and len(held) < 4000:
    held.extend(bytearray(50_000) for _ in range(10))
asyncio_sized = recvs(300)

gateway = GatewayServer(Fleet([TenantSpec(
    "acme", "k", {"type": "mesh", "width": 4, "height": 4})]))
port = gateway.bind_tcp("127.0.0.1", 0)
request = (b"POST /v1/ping HTTP/1.1\\r\\nX-API-Key: k\\r\\n"
           b"Content-Length: 0\\r\\n\\r\\n")
counted = []

def client():
    buf = bytearray(65536)
    with socket.create_connection(("127.0.0.1", port)) as sock:
        def round_trip():
            sock.sendall(request)
            got = sock.recv_into(buf)
            while buf.find(b"}", 0, got) < 0:  # the JSON body's end
                got += sock.recv_into(memoryview(buf)[got:])

        for _ in range(100):
            round_trip()
        before = faults()
        for _ in range(300):
            round_trip()
        counted.append(faults() - before)
    gateway.request_shutdown()

thread = threading.Thread(target=client)
thread.start()
gateway.run()
thread.join(timeout=30)
print(asyncio_sized, counted[0])
"""


@pytest.mark.skipif(platform.system() != "Linux", reason="counts page faults")
def test_a_gateway_read_costs_no_page_fault():
    """Once its heap is full, an interpreter serves every asyncio-sized
    ``recv`` with ``mmap`` — two minor faults each — and keeps doing so;
    the gateway, whose loop reads into one buffer it allocated once,
    serves 300 round trips in that state without. An allocator without
    the rule never shows it, and then there is nothing to pin."""
    done = subprocess.run(
        [sys.executable, "-c", READ_PROBE], env=child_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    asyncio_sized, gateway = map(int, done.stdout.split())
    if asyncio_sized < 300:
        pytest.skip(f"this allocator does not mmap per recv ({asyncio_sized})")
    assert gateway < 30, f"{gateway} minor faults over 300 round trips"
