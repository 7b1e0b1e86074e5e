"""repro.obs — tracing for the engine and the screening service.

Spans are the only timers.  :mod:`repro.obs.trace` provides a
:class:`~repro.obs.trace.Tracer` of nested spans and point events with
an in-memory ring buffer and an append-only JSONL event log (off by
default; opt in per process with :func:`~repro.obs.trace.configure`).
Stage and reduction timings are spans (``lga.score`` /
``lga.ga_generation`` / ``lga.ls``, ``reduction.reduce4``); counts live
on the objects that own them (``WorkerPool.quarantines``,
``SLOScheduler.rejected``), in span attributes and in point events.

The wire format is defined in :mod:`repro.obs.schema`;
:mod:`repro.obs.report` folds a log back into the ``repro stats``
summary, and benchmarks read the same spans from the ring buffer.
"""

from repro.obs.report import render_summary, summarize_log
from repro.obs.schema import (SCHEMA_VERSION, SchemaError, validate_event,
                              validate_log)
from repro.obs.trace import (NullTracer, Span, Tracer, configure, disable,
                             get_tracer)

__all__ = [
    "Tracer", "NullTracer", "Span", "configure", "disable", "get_tracer",
    "SCHEMA_VERSION", "SchemaError",
    "validate_event", "validate_log",
    "summarize_log", "render_summary",
]
