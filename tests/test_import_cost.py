"""Start-up cost pin: service interpreters import neither ``networkx``
nor ``numpy``, nor the offline-only modules the package inits re-export,
and a broker (``repro serve``) imports neither asyncio nor ``hashlib``.

Every ``repro serve``, gateway and worker process imports the
topology and core packages; ``networkx`` is only needed by the graph
exports and the deadlock / BDG tooling, and ``numpy`` only by the array
views of a timing diagram (rendering, tests) — the analysis itself runs
on integer bitsets — so each is imported inside the functions that
need it. This pins both halves:
the service modules load without it, and the functions that need it
still work — and a third thing the import used to buy by accident: a
lean server must not pay an ``mmap``/``munmap`` pair per socket read
(:func:`repro.service.server.keep_recv_buffers_on_heap`).
"""

import json
import os
import platform
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


RECV_PROBE = """
import resource, socket
from repro.service.server import keep_recv_buffers_on_heap

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
# from then on every recv needs new memory. Get there directly.
held = []
while recvs(20) < 20 and len(held) < 4000:
    held.extend(bytearray(50_000) for _ in range(10))
unprimed = recvs(300)
keep_recv_buffers_on_heap()
recvs(20)
print(unprimed, recvs(300))
"""


@pytest.mark.skipif(platform.system() != "Linux", reason="counts page faults")
def test_priming_takes_the_page_faults_out_of_socket_reads():
    """Once its heap is full, an interpreter serves every asyncio-sized
    ``recv`` with ``mmap`` — two minor faults each — and keeps doing so;
    after the priming call it does not. Importing ``networkx`` used to
    hide this in every service process; an allocator without the rule
    never shows it, and then there is nothing to pin."""
    done = subprocess.run(
        [sys.executable, "-c", RECV_PROBE], env=child_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    unprimed, primed = map(int, done.stdout.split())
    if unprimed < 300:
        pytest.skip(f"this allocator does not mmap per recv ({unprimed})")
    assert primed < 30, f"{primed} minor faults over 300 reads after priming"
