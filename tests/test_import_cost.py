"""Start-up cost pin: service interpreters import neither ``networkx``
nor ``numpy``.

Every ``repro serve``, gateway and shard-worker process imports the
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

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.bdg import build_bdg
from repro.core.hpset import HPEntry, HPSet
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


def test_service_modules_load_without_networkx():
    env = child_env()
    code = (
        "import sys\n"
        "import repro.service.server, repro.fleet.workers, "
        "repro.fleet.gateway\n"
        "raise SystemExit(', '.join(m for m in ('networkx', 'numpy',"
        " 'http.client') if m in sys.modules) or 0)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    # ``http.client`` (and the ``email`` package it drags in) left with
    # the gateway's second client: the one client speaks HTTP itself.
    # ``numpy`` costs ~14 MiB of RSS and ~30 ms of start-up per process.
    assert done.returncode == 0, (
        "a service module imports at load time: " + done.stderr
    )


def test_graph_helpers_still_work():
    mesh = Mesh2D(3, 3)
    graph = mesh.to_networkx()
    assert graph.number_of_nodes() == 9
    assert graph.number_of_edges() == len(list(mesh.channels()))
    assert is_deadlock_free(XYRouting(mesh))
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
