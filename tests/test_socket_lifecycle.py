"""Unix-socket lifecycle: stale-socket reclaim, live-socket refusal,
and unlink-on-clean-shutdown (``repro serve --socket``), a SIGTERM
included.

A crashed broker leaves its socket file behind; ``bind`` then fails
with ``EADDRINUSE`` even though nothing is listening. The server now
probes the path before binding: connect-refused means stale (reclaim),
connect-accepted means a live broker owns it (refuse with a clear
error), and a non-socket file is never deleted.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.fleet.workers import WorkerSupervisor
from repro.service.loadgen import BrokerClient
from repro.service.server import BrokerServer

MESH = {"type": "mesh", "width": 4, "height": 4}


def make_stale_socket(path):
    """Bind a unix socket at ``path`` and close it without unlinking —
    exactly the residue a SIGKILLed broker leaves."""
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.bind(str(path))
    s.close()
    assert path.exists()


def stop(server):
    """Shut a bound server down without serving: :meth:`run` finds the
    stop requested, closes its listeners and drains nothing."""
    server.request_shutdown()
    server.run()


class TestStaleSocket:
    def test_stale_socket_is_reclaimed(self, tmp_path):
        sock = tmp_path / "broker.sock"
        make_stale_socket(sock)
        server = BrokerServer(MESH)
        server.bind_unix(str(sock))

        def client():
            with BrokerClient.wait_for_unix(str(sock)) as c:
                out = c.check("ping")
                c.check("shutdown")
                return out

        result = {}
        thread = threading.Thread(target=lambda: result.update(client()))
        thread.start()
        server.run()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert result["ok"]

    def test_live_socket_is_refused(self, tmp_path):
        sock = tmp_path / "broker.sock"
        first = BrokerServer(MESH)
        first.bind_unix(str(sock))
        second = BrokerServer(MESH)
        with pytest.raises(ReproError, match="live broker"):
            second.bind_unix(str(sock))
        # The refusal must not have deleted the live socket out from
        # under the first server before it closed...
        assert sock.exists()
        stop(first)     # (which unlinks it; see the shutdown test below)

    def test_non_socket_file_is_never_deleted(self, tmp_path):
        path = tmp_path / "broker.sock"
        path.write_text("precious data, definitely not a socket\n")
        server = BrokerServer(MESH)
        with pytest.raises(ReproError, match="not a socket"):
            server.bind_unix(str(path))
        assert path.read_text().startswith("precious data")

    def test_clean_shutdown_unlinks_socket(self, tmp_path):
        sock = tmp_path / "broker.sock"
        server = BrokerServer(MESH)
        server.bind_unix(str(sock))
        assert sock.exists()
        stop(server)
        assert not sock.exists(), "clean shutdown must remove the socket"

    def test_restart_after_clean_shutdown(self, tmp_path):
        """Stop-then-start on the same path needs no manual cleanup."""
        sock = tmp_path / "broker.sock"
        for _ in range(2):
            server = BrokerServer(MESH)
            server.bind_unix(str(sock))
            stop(server)
        assert not sock.exists()


def make_supervisor(tmp_path, workers=1):
    """A one-tenant supervisor, assigned but not started."""
    sup = WorkerSupervisor(tmp_path, workers)
    sup.assign_tenant("t", {
        "topology": MESH, "state_dir": str(tmp_path / "t"),
    })
    return sup


class TestWorkerSocketLifecycle:
    """The fleet workers apply the same hygiene rules as the broker —
    on their per-worker supervisor sockets, across process spawns."""

    def test_stale_socket_is_reclaimed_on_spawn(self, tmp_path):
        sup = make_supervisor(tmp_path)
        make_stale_socket(sup.workers[0].socket_path)
        sup.start()
        try:
            assert sup.workers[0].alive
            assert sup.workers[0].responsive()
        finally:
            sup.stop()

    def test_live_socket_is_refused_by_spawn(self, tmp_path):
        sup = make_supervisor(tmp_path)
        path = sup.workers[0].socket_path
        holder = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        holder.bind(str(path))
        holder.listen(1)
        try:
            # The child's bind hygiene trips, the child exits nonzero,
            # and spawn surfaces its log (which names the live owner).
            with pytest.raises(ReproError, match="live broker"):
                sup.start()
            # ...without having deleted the live socket underneath us.
            assert path.exists()
        finally:
            holder.close()
            sup.stop()

    def test_non_socket_file_is_never_deleted_by_spawn(self, tmp_path):
        sup = make_supervisor(tmp_path)
        path = sup.workers[0].socket_path
        path.write_text("precious data, definitely not a socket\n")
        with pytest.raises(ReproError, match="not a socket"):
            sup.start()
        sup.stop()
        assert path.read_text().startswith("precious data")

    def test_clean_stop_unlinks_worker_socket(self, tmp_path):
        sup = make_supervisor(tmp_path)
        sup.start()
        path = sup.workers[0].socket_path
        assert path.exists()
        sup.stop()
        assert not path.exists(), "clean shutdown must remove the socket"

    def test_sigkill_leaves_socket_and_respawn_reclaims(self, tmp_path):
        """The crash residue the hygiene exists for, end to end: a
        SIGKILLed worker leaves its socket behind; the supervised
        respawn reclaims it and serves again on the same path."""
        sup = make_supervisor(tmp_path)
        sup.start()
        try:
            path = sup.workers[0].socket_path
            sup.kill_worker(0)
            assert path.exists(), "SIGKILL should leave the socket file"
            assert not sup.workers[0].responsive()
            assert sup.ensure_all() == 1
            assert sup.workers[0].responsive()
            assert path.exists()
        finally:
            sup.stop()

    def test_restart_cycle_needs_no_manual_cleanup(self, tmp_path):
        for _ in range(2):
            sup = make_supervisor(tmp_path)
            sup.start()
            sup.stop()
            assert not sup.workers[0].socket_path.exists()


def repro(*argv):
    """``repro argv`` in a child process, once it printed its listening
    line: ``(process, that line)``."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv], env=env,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
    )
    return proc, proc.stdout.readline()


def gone(pid):
    """No such process, or only its zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
class TestSigterm:
    """SIGTERM stops a served process as a ``shutdown`` op does: it
    drains, unlinks its socket and exits 0."""

    def test_sigterm_stops_serve_and_unlinks_its_socket(self, tmp_path):
        sock = tmp_path / "b.sock"
        proc, line = repro("serve", "--socket", str(sock), "--mesh", "4x4")
        try:
            assert line.startswith("repro-broker listening on"), line
            with BrokerClient(socket_path=str(sock)) as c:
                assert c.check("ping")["ok"]
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            assert not sock.exists()
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()

    def test_sigterm_stops_a_gateway_and_reaps_its_workers(self, tmp_path):
        state = tmp_path / "state"
        proc, line = repro("gateway", "--port", "0", "--mesh", "4x4",
                           "--workers", "2", "--tenant", "a=ka",
                           "--tenant", "b=kb", "--state-dir", str(state))
        try:
            url = line.split()[3]
            with urllib.request.urlopen(f"{url}/healthz", timeout=30) as r:
                pids = [w["pid"] for w in json.load(r)["workers"]]
            assert len(pids) == 2 and not any(map(gone, pids))
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            assert all(map(gone, pids)), pids
            assert list((state / "workers").glob("w*.sock")) == []
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
