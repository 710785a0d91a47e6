"""An engine process is one process: nothing is left behind by a kill.

``repro serve`` and the fleet's workers get ``SIGKILL``ed on
purpose — by chaos campaigns, by ``ensure_worker``'s kill-then-respawn
— so whatever they fork would be orphaned. A helper child that inherits
its siblings' pipe ends never sees EOF and idles for ever. These tests
load a real process with a dense admitted set (60 live streams at 4
priority levels on an 8x8 mesh put 13-27 verdicts in the largest dirty
frontier, the work most tempting to hand to helpers), kill it, and read
``/proc`` to see that it had no descendants under load and that none
outlives it.
"""

import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.fleet.shards import Fleet, TenantSpec
from repro.service.loadgen import BrokerClient, churn_spec

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs Linux /proc"
)

MESH = 8
PRIORITY_LEVELS = 4
MIN_LIVE = 60


def proc_stat(pid):
    """``(ppid, state)`` of a live pid, ``None`` once it is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name is parenthesised and may itself hold spaces.
    state, ppid = text.rsplit(")", 1)[1].split()[:2]
    return int(ppid), state


def descendants(root):
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit() and (stat := proc_stat(int(entry))) is not None:
            parents[int(entry)] = stat[0]
    found, frontier = [], [root]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in parents.items() if ppid == parent]
        found += children
        frontier += children
    return sorted(found)


def running(pids):
    """The pids still executing (a zombie awaiting its reaper is not)."""
    return [pid for pid in pids
            if (stat := proc_stat(pid)) is not None and stat[1] != "Z"]


def kill_and_check(pid, kill):
    """``kill()`` the loaded process ``pid``: nothing it started may
    outlive it, and it should not have started anything at all."""
    # A kill re-parents whatever the process started, so its offspring
    # has to be listed while it is still alive.
    offspring = descendants(pid)
    kill()
    deadline = time.monotonic() + 2.0
    while running(offspring) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert running(offspring) == []
    assert offspring == []


def preload_dense(admit):
    """Admit churn specs until ``MIN_LIVE`` streams are live."""
    rng = random.Random(1)
    live = 0
    for _ in range(6 * MIN_LIVE):
        if live >= MIN_LIVE:
            return
        live += bool(admit(
            churn_spec(rng, MESH * MESH, priority_levels=PRIORITY_LEVELS)
        ))
    raise AssertionError(f"only {live} of {MIN_LIVE} streams admitted")


def test_sigkilled_serve_leaves_no_process_behind(tmp_path):
    sock = tmp_path / "broker.sock"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    with open(tmp_path / "serve.log", "ab") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", str(sock),
             "--mesh", f"{MESH}x{MESH}",
             "--state-dir", str(tmp_path / "state")],
            env=env, stdin=subprocess.DEVNULL, stdout=log,
            stderr=subprocess.STDOUT,
        )

    def kill():
        proc.kill()
        proc.wait(timeout=30)

    try:
        with BrokerClient.wait_for_unix(sock, timeout=30) as client:
            preload_dense(lambda spec: client.check(
                "admit", streams=[spec])["admitted"])
        kill_and_check(proc.pid, kill)
    finally:
        kill()


def test_sigkilled_shard_worker_leaves_no_process_behind(tmp_path):
    fleet = Fleet(
        [TenantSpec("t", "key",
                    {"type": "mesh", "width": MESH, "height": MESH})],
        state_dir=tmp_path, workers=1,
    )
    try:
        def admit(spec):
            response = fleet.handle_request(
                "t", {"op": "admit", "streams": [spec]})
            assert response["ok"], response
            return response["admitted"]

        preload_dense(admit)
        kill_and_check(
            fleet.supervisor.workers[0].pid,
            lambda: fleet.supervisor.kill_worker(0, signal.SIGKILL),
        )
    finally:
        fleet.close()
