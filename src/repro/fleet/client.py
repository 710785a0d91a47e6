"""The gateway's side of the one client (``repro load --target``).

:class:`GatewayClient` *is* a :class:`~repro.service.client.BrokerClient`
whose framing is :class:`~repro.service.client.HttpOp` — one
broker-protocol request object per ``POST /v1/op`` on a keep-alive
connection — so ``send`` / ``flush`` / ``recv`` pipeline over HTTP as
they do over a socket (the gateway answers whatever is waiting on a
connection as one batch), and the load generator
(:func:`repro.service.loadgen.run_load`) drives either transport
unchanged. What is defined here is only what a gateway has and a broker
does not: the ``http://host:port`` target with its API key, and the
non-op endpoints (``get``, ``admin``).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Tuple
from urllib.parse import urlsplit

from ..errors import ReproError
from ..service.client import BrokerClient, HttpOp

__all__ = ["GatewayClient"]


class GatewayClient(BrokerClient):
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
        self.framing = HttpOp(split.hostname, api_key)
        super().__init__(
            host=split.hostname, port=split.port, timeout=timeout
        )

    def _http(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, str, str]:
        """One non-op round trip -> ``(status, content type, text)``."""
        if self.in_flight:
            raise ReproError(f"{method} {path} with ops still in flight")
        self.send_bytes(self.framing.request(method, path, body), responses=0)
        self.flush()
        status, ctype, data = self.framing.read_response(self._rfile)
        return status, ctype, data.decode("utf-8", errors="replace")

    def get(self, path: str) -> Any:
        """GET an unauthenticated endpoint (/healthz, /metrics).

        Returns the decoded JSON object, or the raw text for
        non-JSON bodies (Prometheus exposition).
        """
        _, ctype, text = self._http("GET", path)
        return json.loads(text) if "json" in ctype else text

    def admin(self, action: str, **fields: Any) -> Dict[str, Any]:
        """POST /admin/{action} with this client's API key."""
        status, _, text = self._http(
            "POST", f"/admin/{action}",
            json.dumps(fields, separators=(",", ":")).encode(),
        )
        decoded = json.loads(text)
        decoded["_status"] = status
        return decoded
