"""Minimal HTTP/1.1 + NDJSON wire layer for the gateway (stdlib only).

The gateway speaks a deliberately small dialect — JSON request bodies,
JSON or NDJSON responses, ``Connection: close`` on every exchange — so a
handcoded parser over ``asyncio`` streams suffices and the service takes
no dependency beyond the standard library.  Request size is bounded
(:data:`MAX_BODY_BYTES`) so a misbehaving client cannot balloon the
front-end.

Also home to the job-request codec: :func:`job_from_request` turns a
submission document into a content-addressed
:class:`~repro.serve.queue.DockingJob` plus its serving envelope
(tenant, relative deadline) — the fields that steer scheduling but must
*not* enter the job's identity hash.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, urlsplit

from repro.core.config import DockingConfig
from repro.search.lga import LGAConfig
from repro.serve.queue import DockingJob, spawn_seed

__all__ = ["HttpRequest", "ProtocolError", "MAX_BODY_BYTES",
           "read_request", "http_response", "json_response",
           "ndjson_line", "job_from_request"]

#: request body cap — submissions are small JSON documents
MAX_BODY_BYTES = 4 * 1024 * 1024

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            422: "Unprocessable Content", 429: "Too Many Requests",
            500: "Internal Server Error"}


class ProtocolError(ValueError):
    """Malformed request; carries the HTTP status to answer with."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> dict:
        if not self.body:
            raise ProtocolError(400, "empty request body")
        try:
            doc = json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise ProtocolError(400, f"invalid JSON body: {exc.msg}") \
                from None
        if not isinstance(doc, dict):
            raise ProtocolError(400, "request body must be a JSON object")
        return doc


async def read_request(reader) -> HttpRequest:
    """Parse one HTTP/1.1 request from an asyncio stream reader."""
    line = await reader.readline()
    if not line:
        raise ProtocolError(400, "empty request")
    try:
        method, target, _version = line.decode("latin-1").split(None, 2)
    except ValueError:
        raise ProtocolError(400, "malformed request line") from None
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        if b":" not in line:
            raise ProtocolError(400, "malformed header line")
        key, value = line.decode("latin-1").split(":", 1)
        headers[key.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY_BYTES:
        raise ProtocolError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    split = urlsplit(target)
    return HttpRequest(method=method.upper(), path=split.path,
                       query=dict(parse_qsl(split.query)),
                       headers=headers, body=body)


def http_response(status: int, body: bytes,
                  content_type: str = "application/json",
                  extra_headers: dict[str, str] | None = None) -> bytes:
    """Serialise one complete ``Connection: close`` response."""
    reason = _REASONS.get(status, "Unknown")
    head = [f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close"]
    for key, value in (extra_headers or {}).items():
        head.append(f"{key}: {value}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def json_response(status: int, doc: dict,
                  extra_headers: dict[str, str] | None = None) -> bytes:
    return http_response(status, (json.dumps(doc) + "\n").encode(),
                         extra_headers=extra_headers)


def ndjson_line(doc: dict) -> bytes:
    return (json.dumps(doc) + "\n").encode()


def _config_from_doc(doc: dict) -> DockingConfig:
    """Engine config from a submission document.

    Either a full ``config`` dict (the :meth:`DockingConfig.to_dict`
    round-trip) or the CLI-flavoured shorthand fields; both produce the
    same content hash as local construction would.
    """
    if "config" in doc:
        if not isinstance(doc["config"], dict):
            raise ProtocolError(400, "'config' must be an object")
        try:
            return DockingConfig.from_dict(doc["config"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(400, f"bad config: {exc}") from None
    try:
        return DockingConfig(
            backend=doc.get("backend", "tcec-tf32"),
            device=doc.get("device", "A100"),
            block_size=int(doc.get("block_size", 64)),
            lga=LGAConfig.screening(int(doc.get("pop", 16)),
                                    int(doc.get("evals", 4_000)),
                                    int(doc.get("ls_iters", 20))))
    except (TypeError, ValueError) as exc:
        raise ProtocolError(400, f"bad config: {exc}") from None


def job_from_request(doc: dict) -> tuple[DockingJob, str, float | None]:
    """Decode one job submission: ``(job, tenant, deadline_s)``.

    Recognised fields: ``case`` (library case name) or ``spec`` (a raw
    :func:`repro.serve.cache.load_case` spec), ``config`` or the
    shorthand knobs, ``n_runs``, ``seed`` (int, or ``{entropy,
    spawn_key}``, or ``{"entropy": e, "index": i}`` shorthand for the
    spawned stream), ``priority``, ``label``, ``tenant`` and
    ``deadline_s`` (relative seconds; serving metadata, not hashed).
    """
    if "spec" in doc:
        spec = doc["spec"]
        if not isinstance(spec, dict):
            raise ProtocolError(400, "'spec' must be an object")
    elif "case" in doc:
        spec = {"kind": "case", "case": str(doc["case"])}
    else:
        raise ProtocolError(400, "submission needs 'case' or 'spec'")
    seed = doc.get("seed", 0)
    config = _config_from_doc(doc)
    try:
        if isinstance(seed, dict) and "index" in seed:
            seed = spawn_seed(int(seed.get("entropy", 0)),
                              int(seed["index"]))
        n_runs = int(doc.get("n_runs", 4))
        priority = int(doc.get("priority", 0))
        deadline_s = doc.get("deadline_s")
        if deadline_s is not None:
            deadline_s = float(deadline_s)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(400, f"bad field: {exc}") from None
    if not isinstance(seed, (int, dict)):
        raise ProtocolError(400, "'seed' must be an int or an object")
    if deadline_s is not None and deadline_s <= 0:
        raise ProtocolError(400, "'deadline_s' must be > 0")
    job = DockingJob(
        spec=spec,
        config=config,
        n_runs=n_runs,
        seed=seed,
        priority=priority,
        label=str(doc.get("label", "") or spec.get("case", "")),
    )
    return job, str(doc.get("tenant", "default")), deadline_s
