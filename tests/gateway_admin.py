"""A gateway client that can also ``POST /admin/{action}``.

The deployed client (:class:`repro.fleet.client.GatewayClient`) speaks
the op endpoint and ``GET``s; the admin endpoints (``kill``,
``failover``, ``kill_worker``) are driven by the CI drill with ``curl``
and by the gateway tests with this subclass.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.fleet.client import GatewayClient

__all__ = ["AdminClient"]


class AdminClient(GatewayClient):
    def admin(self, action: str, **fields: Any) -> Dict[str, Any]:
        """POST /admin/{action} with this client's API key; the decoded
        answer carries the HTTP status as ``_status``."""
        status, _, text = self._http(
            "POST", f"/admin/{action}",
            json.dumps(fields, separators=(",", ":")).encode(),
        )
        decoded = json.loads(text)
        decoded["_status"] = status
        return decoded
