"""HTTP client for the fleet gateway, drop-in for ``BrokerClient``.

:class:`GatewayClient` speaks the gateway's ``POST /v1/op`` passthrough
(one broker-protocol request object per HTTP request, keep-alive
connection) while presenting exactly the :class:`~repro.service.loadgen
.BrokerClient` surface — ``send``/``flush``/``recv``/``request``/
``check``/``request_with_retry``/``reconnect``/``close``/``in_flight`` —
so the churn load generator (:func:`repro.service.loadgen.run_load`)
drives either transport unchanged (``repro load --target http://...``).

One semantic difference is hidden, not exposed: HTTP/1.1 without
pipelining cannot keep multiple requests in flight on one connection,
so :meth:`send` executes the op eagerly and queues the *response*;
:meth:`recv` then pops FIFO exactly as the socket client does. The
observable op/response ordering is identical.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from collections import deque
from typing import Any, Deque, Dict, Optional
from urllib.parse import urlsplit

from ..errors import ReproError
from ..service.protocol import retry_backoff

__all__ = ["GatewayClient"]


class GatewayClient:
    """Blocking keep-alive HTTP client for one gateway connection."""

    def __init__(
        self,
        target: str,
        *,
        api_key: str,
        timeout: float = 30.0,
    ):
        split = urlsplit(target if "//" in target else f"http://{target}")
        if split.scheme not in ("http", ""):
            raise ReproError(
                f"gateway target must be http://host:port, got {target!r}"
            )
        if not split.hostname or not split.port:
            raise ReproError(
                f"gateway target needs host and port, got {target!r}"
            )
        self._host = split.hostname
        self._port = split.port
        self._api_key = api_key
        self._timeout = timeout
        self._seq = 0
        # Responses already received but not yet recv()'d (FIFO).
        self._ready: Deque[Dict[str, Any]] = deque()
        self._connect()

    def _connect(self) -> None:
        self._conn = http.client.HTTPConnection(
            self._host, self._port, timeout=self._timeout
        )
        self._conn.connect()

    def reconnect(self, *, timeout: float = 10.0) -> None:
        """Tear the connection down and dial again, retrying until the
        gateway accepts or ``timeout`` expires."""
        self.close()
        self._ready.clear()
        deadline = time.monotonic() + timeout
        while True:
            try:
                self._connect()
                return
            except OSError:
                if time.monotonic() >= deadline:
                    raise ReproError(
                        f"gateway did not accept a reconnect within "
                        f"{timeout:.0f}s"
                    ) from None
                time.sleep(0.05)

    def _post(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        body = json.dumps(payload, separators=(",", ":")).encode()
        try:
            self._conn.request(
                "POST", "/v1/op", body=body,
                headers={
                    "Content-Type": "application/json",
                    "X-API-Key": self._api_key,
                },
            )
            response = self._conn.getresponse()
            data = response.read()
        except http.client.HTTPException as exc:
            raise ReproError(f"gateway request failed: {exc!r}") from exc
        if response.status in (401, 403):
            raise ReproError(
                f"gateway rejected the API key: {data.decode(errors='replace')}"
            )
        try:
            decoded = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ReproError(
                f"gateway returned non-JSON (status {response.status}): "
                f"{data[:200]!r}"
            ) from exc
        if not isinstance(decoded, dict):
            raise ReproError(f"gateway returned a non-object: {decoded!r}")
        return decoded

    def send(self, op: str, **fields: Any) -> int:
        """Execute one op and queue its response; returns the sequence
        number, consumed FIFO by :meth:`recv` (same contract as the
        socket client's pipelined send)."""
        self._seq += 1
        response = self._post({"op": op, "id": self._seq, **fields})
        if response.get("id") not in (None, self._seq):
            raise ReproError(
                f"response id {response.get('id')} does not match "
                f"request id {self._seq}"
            )
        self._ready.append(response)
        return self._seq

    def flush(self) -> None:
        """No-op: HTTP requests are pushed eagerly by :meth:`send`."""

    def recv(self, seq: Optional[int] = None) -> Dict[str, Any]:
        """Pop the oldest queued response (FIFO)."""
        if not self._ready:
            raise ReproError("recv with no request in flight")
        response = self._ready.popleft()
        if seq is not None and response.get("id") not in (None, seq):
            raise ReproError(
                f"recv out of order: oldest in-flight request is "
                f"{response.get('id')}, asked for {seq}"
            )
        return response

    @property
    def in_flight(self) -> int:
        """Number of responses queued but not yet recv()'d."""
        return len(self._ready)

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one op and return the matching response."""
        seq = self.send(op, **fields)
        return self.recv(seq)

    def check(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Like :meth:`request` but raises on ``ok: false`` responses."""
        response = self.request(op, **fields)
        if not response.get("ok"):
            raise ReproError(
                f"broker op {op!r} failed: {response.get('error')}"
            )
        return response

    def request_with_retry(
        self,
        op: str,
        *,
        rid: str,
        max_attempts: int = 6,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        rng: Optional[random.Random] = None,
        reconnect_timeout: float = 10.0,
        **fields: Any,
    ) -> Dict[str, Any]:
        """Send an idempotent mutation, retrying across dropped
        connections; every attempt carries the same ``rid`` so the fleet
        applies the mutation at most once (``"duplicate": true`` marks a
        replayed acknowledgement)."""
        last_exc: Optional[Exception] = None
        for attempt in range(max_attempts):
            if attempt:
                time.sleep(retry_backoff(
                    attempt - 1, base=backoff_base, cap=backoff_cap,
                    rng=rng,
                ))
                try:
                    self.reconnect(timeout=reconnect_timeout)
                except ReproError as exc:
                    last_exc = exc
                    continue
            try:
                return self.request(op, rid=rid, **fields)
            except (ReproError, OSError, ValueError) as exc:
                last_exc = exc
        raise ReproError(
            f"broker op {op!r} (rid {rid!r}) failed after "
            f"{max_attempts} attempts: {last_exc}"
        )

    # Gateway-specific conveniences (not part of the BrokerClient
    # surface; used by the CLI and tests).

    def get(self, path: str) -> Any:
        """GET an unauthenticated endpoint (/healthz, /metrics).

        Returns the decoded JSON object, or the raw text for
        non-JSON bodies (Prometheus exposition).
        """
        try:
            self._conn.request("GET", path)
            response = self._conn.getresponse()
            data = response.read()
        except http.client.HTTPException as exc:
            raise ReproError(f"gateway request failed: {exc!r}") from exc
        text = data.decode("utf-8", errors="replace")
        ctype = response.getheader("Content-Type", "")
        if "json" in ctype:
            return json.loads(text)
        return text

    def admin(self, action: str, **fields: Any) -> Dict[str, Any]:
        """POST /admin/{action} with this client's API key."""
        body = json.dumps(fields, separators=(",", ":")).encode()
        try:
            self._conn.request(
                "POST", f"/admin/{action}", body=body,
                headers={
                    "Content-Type": "application/json",
                    "X-API-Key": self._api_key,
                },
            )
            response = self._conn.getresponse()
            data = response.read()
        except http.client.HTTPException as exc:
            raise ReproError(f"gateway request failed: {exc!r}") from exc
        decoded = json.loads(data.decode("utf-8"))
        decoded["_status"] = response.status
        return decoded

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
