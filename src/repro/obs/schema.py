"""Wire-format contract of the JSONL trace event log.

One JSON object per line.  Every event carries the common envelope

======== ======= ====================================================
field    type    meaning
======== ======= ====================================================
``v``    int     schema version (currently ``1``)
``type`` str     ``"span"`` or ``"event"``
``name`` str     dotted region/event name (``"adadelta.minimize"``)
``ts``   float   unix wall-clock time at span start / event emission
``pid``  int     emitting OS process
``src``  str     logical emitter (``"main"``, ``"worker-3"``, ...)
======== ======= ====================================================

``span`` events additionally carry ``span_id`` (int), ``parent_id``
(int or null — null marks a root span) and ``dur_s`` (float seconds);
``event`` events carry only ``attrs``.  ``attrs`` is a free-form
JSON object on both types (optional; defaults to empty), and ``name``
is free-form too: README's Observability section lists every span and
point event the package emits.

The checker used by the CI trace-smoke job (``tools/check_trace.py``)
and :func:`validate_log` enforce this contract so the ``repro stats``
reader never has to guess.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

__all__ = ["SCHEMA_VERSION", "EVENT_TYPES", "validate_event",
           "validate_log", "read_log", "SchemaError"]

SCHEMA_VERSION = 1

EVENT_TYPES = ("span", "event")

_COMMON_FIELDS = {"v": int, "type": str, "name": str,
                  "ts": (int, float), "pid": int, "src": str}


class SchemaError(ValueError):
    """A trace event violates the wire-format contract."""


def _fail(msg: str, line_no: int | None = None) -> None:
    where = f"line {line_no}: " if line_no is not None else ""
    raise SchemaError(f"{where}{msg}")


def validate_event(record: object, line_no: int | None = None) -> dict:
    """Check one decoded event against the schema; returns it.

    Raises :class:`SchemaError` naming the offending field (and line,
    when the caller supplies one).
    """
    if not isinstance(record, dict):
        _fail(f"event must be a JSON object, got {type(record).__name__}",
              line_no)
    for fld, typ in _COMMON_FIELDS.items():
        if fld not in record:
            _fail(f"missing required field {fld!r}", line_no)
        if not isinstance(record[fld], typ) or isinstance(record[fld], bool):
            _fail(f"field {fld!r} has wrong type "
                  f"{type(record[fld]).__name__}", line_no)
    if record["v"] != SCHEMA_VERSION:
        _fail(f"unsupported schema version {record['v']!r}", line_no)
    if record["type"] not in EVENT_TYPES:
        _fail(f"unknown event type {record['type']!r}", line_no)
    attrs = record.get("attrs", {})
    if not isinstance(attrs, dict):
        _fail("'attrs' must be a JSON object", line_no)
    if record["type"] == "span":
        if "span_id" not in record or not isinstance(record["span_id"], int):
            _fail("span missing integer 'span_id'", line_no)
        parent = record.get("parent_id")
        if parent is not None and not isinstance(parent, int):
            _fail("'parent_id' must be an integer or null", line_no)
        dur = record.get("dur_s")
        if not isinstance(dur, (int, float)) or isinstance(dur, bool) \
                or dur < 0:
            _fail("span missing non-negative 'dur_s'", line_no)
    return record


def read_log(path: str | Path) -> Iterable[tuple[int, dict]]:
    """Yield ``(line_no, decoded_event)`` pairs; bad JSON raises."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(
                    f"line {line_no}: invalid JSON ({exc.msg})") from None
            yield line_no, record


def validate_log(path: str | Path) -> dict:
    """Validate a whole JSONL log; returns counting summary.

    The summary has ``events`` (total), ``spans``, ``points`` and
    ``sources`` (distinct ``src`` values seen) — what the CI checker
    prints on success.
    """
    n = spans = points = 0
    sources: set[str] = set()
    for line_no, record in read_log(path):
        validate_event(record, line_no)
        n += 1
        sources.add(record["src"])
        if record["type"] == "span":
            spans += 1
        else:
            points += 1
    return {"events": n, "spans": spans, "points": points,
            "sources": sorted(sources)}
