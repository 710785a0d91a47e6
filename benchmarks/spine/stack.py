"""Spawn, observe and tear down the system under test.

Every process the spine starts goes through :class:`Stack`: the child
runs in its own session (so the whole tree — broker, verdict-pool
children, fleet workers — is one process group), is observed from
outside through ``/proc`` (CPU and peak RSS summed over the tree), and is
torn down with ``killpg`` + ``wait`` followed by an assertion that the
group is empty. A server stopped any other way can leave verdict-pool
children behind that tax every later run; here that is an error, not a
possibility.

The two wire clients live here too: the broker is driven with the
repo's own :class:`~repro.service.loadgen.BrokerClient`; the gateway
needs two requests in flight from one thread, which the repo's blocking
``GatewayClient`` cannot do, so :class:`HttpConn` speaks pipelined
HTTP/1.1 with the same ``send``/``flush``/``recv`` surface.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Holds the ``sitecustomize`` that applies the spine's flush policy to
#: every interpreter of the system under test (see that file).
SUT_SITE = Path(__file__).resolve().parent / "sut_site"

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class StackError(RuntimeError):
    """The system under test did not start, answer or die as required."""


def clean_env() -> Dict[str, str]:
    """The environment both sides run in (``run.py`` adopts it too: the
    reference replay and the in-process ladder import the modules the
    servers do, and the ladder's fleet workers inherit it): no
    ``REPRO_*`` knob set, so every layer (verdict pool, kernel, fast
    paths) is at its default, and the flush policy on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(SUT_SITE)))
    env["PYTHONHASHSEED"] = "0"
    return env


# --------------------------------------------------------------------- #
# /proc readers
# --------------------------------------------------------------------- #


def _stat_fields(pid: int) -> Optional[List[str]]:
    """``/proc/<pid>/stat`` split after the ``(comm)`` field, or None."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return raw[raw.rfind(")") + 2:].split()


def session_pids(sid: int) -> List[int]:
    """Live pids whose session id is ``sid`` (the spawned tree); a
    zombie waiting for init to reap it is dead and not listed."""
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat_fields(int(name))
        # fields[0] is the state, fields[3] the session id.
        if fields is None or int(fields[3]) != sid:
            continue
        if fields[0] == "Z":
            continue
        out.append(int(name))
    return sorted(out)


def _cpu_seconds(pid: int) -> float:
    """CPU consumed by one process, all threads, in seconds.

    ``schedstat`` counts nanoseconds per task; ``stat`` ticks (10 ms) are
    the fallback where the kernel does not expose it.
    """
    total_ns = 0
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
        for tid in tasks:
            raw = Path(f"/proc/{pid}/task/{tid}/schedstat").read_text()
            total_ns += int(raw.split()[0])
        return total_ns / 1e9
    except (OSError, ValueError, IndexError):
        fields = _stat_fields(pid)
        if fields is None:
            return 0.0
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def _peak_rss_mib(pid: int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return 0.0


# --------------------------------------------------------------------- #
# The spawned tree
# --------------------------------------------------------------------- #


class Stack:
    """One spawned system under test, in its own session."""

    def __init__(self, argv: Sequence[str], *, log_path: Path,
                 stdout: Any = None):
        self.argv = list(argv)
        self.log_path = log_path
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            self.argv,
            cwd=str(ROOT),
            env=clean_env(),
            stdin=subprocess.DEVNULL,
            stdout=self._log if stdout is None else stdout,
            stderr=self._log,
            start_new_session=True,
        )
        self.sid = self.proc.pid

    @classmethod
    def repro(cls, args: Sequence[str], **kwargs: Any) -> "Stack":
        """Spawn ``python -m repro <args>`` (the deployed CLI)."""
        return cls([sys.executable, "-m", "repro", *args], **kwargs)

    def wait_ready(
        self,
        connect: Callable[[], Any],
        *,
        timeout: float = 60.0,
        between: Optional[Callable[[], Any]] = None,
    ) -> Any:
        """Call ``connect`` until it stops raising ``OSError``; returns
        its result. ``between`` runs once per failed attempt (the
        caller's host-speed probe: start-up cannot be bracketed by
        calibrations any finer than this loop)."""
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise StackError(
                    f"{self.argv[:4]} exited with code "
                    f"{self.proc.returncode} before it was ready; log "
                    f"tail:\n{self.log_tail()}"
                )
            try:
                return connect()
            except OSError:
                if time.monotonic() > deadline:
                    raise StackError(
                        f"{self.argv[:4]} not ready within {timeout:.0f}s; "
                        f"log tail:\n{self.log_tail()}"
                    ) from None
            if between is not None:
                between()
            time.sleep(0.04)

    def pids(self) -> List[int]:
        return session_pids(self.sid)

    def cpu_seconds(self) -> float:
        """CPU of every live process in the tree, summed."""
        return sum(_cpu_seconds(pid) for pid in self.pids())

    def peak_rss_mib(self) -> float:
        """Peak resident set (VmHWM) summed over the live tree."""
        return sum(_peak_rss_mib(pid) for pid in self.pids())

    def log_tail(self, lines: int = 15) -> str:
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return "<no log>"
        return "\n".join(text.splitlines()[-lines:])

    def kill(self, *, timeout: float = 10.0) -> None:
        """SIGKILL the whole group, reap the child, and insist that no
        process of the session survives."""
        try:
            os.killpg(self.sid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            self.proc.wait(timeout=timeout)
        finally:
            self._log.close()
        deadline = time.monotonic() + timeout
        while True:
            strays = session_pids(self.sid)
            if not strays:
                return
            if time.monotonic() > deadline:
                raise StackError(
                    f"processes {strays} of session {self.sid} survived "
                    f"killpg ({self.argv[:4]})"
                )
            time.sleep(0.01)

    def wait_exit(self, *, timeout: float) -> int:
        """Wait for a child that ends by itself, then verify the group
        is empty (kills and fails if the child overstays)."""
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise StackError(
                f"{self.argv[:4]} still running after {timeout:.0f}s"
            ) from None
        self.kill()
        return code


def free_tcp_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


# --------------------------------------------------------------------- #
# Pipelined HTTP/1.1 connection to the gateway
# --------------------------------------------------------------------- #


class HttpConn:
    """One keep-alive connection speaking ``POST /v1/op``.

    ``send`` queues a request, ``flush`` pushes the queue onto the
    socket, ``recv`` reads the oldest outstanding response — the
    :class:`~repro.service.loadgen.BrokerClient` surface, so one driver
    loop serves both transports. The gateway answers a connection's
    requests strictly in order.
    """

    def __init__(self, port: int, api_key: str, *, timeout: float = 60.0):
        self._sock = socket.create_connection(
            ("127.0.0.1", port), timeout=timeout
        )
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._fh = self._sock.makefile("rwb")
        self._head = (
            "POST /v1/op HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Content-Type: application/json\r\n"
            f"X-API-Key: {api_key}\r\nContent-Length: "
        )
        self._seq = 0
        self._pending: List[int] = []

    def send(self, op: str, **fields: Any) -> None:
        self._seq += 1
        body = json.dumps(
            {"op": op, "id": self._seq, **fields}, separators=(",", ":")
        ).encode()
        self._fh.write(f"{self._head}{len(body)}\r\n\r\n".encode() + body)
        self._pending.append(self._seq)

    def flush(self) -> None:
        self._fh.flush()

    def _read_response(self) -> bytes:
        status = self._fh.readline()
        if not status:
            raise StackError("gateway closed the connection")
        length = 0
        while True:
            line = self._fh.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body = self._fh.read(length)
        if not status.split()[1:2] == [b"200"]:
            raise StackError(
                f"gateway answered {status!r}: {body[:200]!r}"
            )
        return body

    def recv(self) -> Dict[str, Any]:
        expect = self._pending.pop(0)
        response = json.loads(self._read_response())
        if response.get("id") != expect:
            raise StackError(
                f"gateway response id {response.get('id')} does not "
                f"match request id {expect}"
            )
        return response

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        self.send(op, **fields)
        self.flush()
        return self.recv()

    def get(self, path: str) -> bytes:
        """Plain GET on the same connection (``/healthz``)."""
        self._fh.write(
            f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".encode()
        )
        self._fh.flush()
        return self._read_response()

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:
            pass
        self._sock.close()
