"""Stdlib HTTP client for the gateway (CLI ``submit``/``watch``, tests).

Thin `http.client` wrapper over the JSON/NDJSON dialect of
:mod:`repro.gateway.server`; every call is one short-lived
``Connection: close`` exchange, matching the server.  A 429 admission
answer raises :class:`GatewayRejected` carrying the structured payload,
so callers can distinguish "the service is protecting its SLO" from
transport failures.
"""

from __future__ import annotations

import http.client
import json
from typing import Iterator
from urllib.parse import urlsplit

__all__ = ["GatewayClient", "GatewayError", "GatewayRejected"]


class GatewayError(RuntimeError):
    """Non-2xx answer from the gateway."""

    def __init__(self, status: int, payload: dict) -> None:
        super().__init__(f"gateway answered {status}: "
                         f"{payload.get('error', payload)}")
        self.status = status
        self.payload = payload


class GatewayRejected(GatewayError):
    """429: admission control predicted an SLO/deadline miss."""


class GatewayClient:
    """Client for one gateway base URL (``http://host:port``)."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        split = urlsplit(base_url if "//" in base_url
                         else f"http://{base_url}")
        if split.scheme not in ("", "http"):
            raise ValueError(f"unsupported scheme {split.scheme!r}")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self.timeout = timeout

    # ------------------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: dict | None = None) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            payload = (json.dumps(body).encode()
                       if body is not None else None)
            headers = {"Content-Type": "application/json"} \
                if payload is not None else {}
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
            doc = json.loads(resp.read().decode() or "{}")
            if resp.status == 429:
                raise GatewayRejected(resp.status, doc)
            if resp.status >= 400:
                raise GatewayError(resp.status, doc)
            return doc
        finally:
            conn.close()

    # ------------------------------------------------------------------

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def submit(self, job: dict) -> dict:
        """Submit one job document; raises :class:`GatewayRejected` on
        admission rejection (the payload carries ``retry_after_s``)."""
        return self._request("POST", "/v1/jobs", body=job)

    def submit_batch(self, jobs: list[dict]) -> dict:
        """Submit a batch; returns ``{"accepted": [...],
        "rejected": [...]}`` without raising on per-job rejections."""
        return self._request("POST", "/v1/jobs", body={"jobs": jobs})

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def manifest(self) -> dict:
        return self._request("GET", "/v1/manifest")

    def shutdown(self) -> dict:
        return self._request("POST", "/v1/shutdown")

    # ------------------------------------------------------------------

    def stream(self, once: bool = False,
               timeout: float | None = None) -> Iterator[dict]:
        """Yield terminal job records from ``/v1/stream`` (NDJSON).

        Blocks until the gateway closes the stream (all known jobs
        terminal) unless ``once`` dumps the current terminal set.
        """
        conn = http.client.HTTPConnection(
            self.host, self.port,
            timeout=timeout if timeout is not None else self.timeout)
        try:
            conn.request("GET", "/v1/stream" + ("?once=1" if once
                                                else ""))
            resp = conn.getresponse()
            if resp.status != 200:
                raise GatewayError(resp.status,
                                   {"error": resp.read().decode()})
            for raw in resp:
                line = raw.strip()
                if line:
                    yield json.loads(line.decode())
        finally:
            conn.close()
