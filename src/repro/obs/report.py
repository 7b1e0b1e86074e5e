"""Aggregate a JSONL trace log into the ``repro stats`` summary.

The reader is intentionally dumb: it folds the validated event stream
(:mod:`repro.obs.schema`) into a handful of plain dicts — per-name span
timings, point-event counts, the last heartbeat per worker, queue-depth
extremes, screen-wide cache traffic — and a renderer turns them into the
fixed-width text the CLI prints.  Nothing here imports numpy or the
docking stack, so ``repro stats`` works on any machine that has the log.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from repro.obs.schema import read_log, validate_event

__all__ = ["summarize_log", "render_summary"]

#: spans whose descendants count in their own row only: building a named
#: case (a worker's ``load_case``, the CLI's ``-case``) runs a native-pose
#: refinement (``adadelta.minimize`` and its ``reduction.reduce4``
#: calls) that is set-up, not docking
FOLDED_SPANS = frozenset({"grid.build", "case.build"})


def _records(path: str | Path) -> Iterator[dict]:
    """The log's events in file order, each validated."""
    for line_no, record in read_log(path):
        yield validate_event(record, line_no)


def _folded_spans(path: str | Path) -> set[int]:
    """Span indices (counting spans only, in file order) of the spans
    that have an ancestor in :data:`FOLDED_SPANS`.

    A span is written when it closes, after all of its children, so a
    span's parent is the first *later* span of the same ``pid`` with
    that ``span_id`` (ids restart when a process installs a new
    tracer).  One backward pass over compact ``(pid, span_id,
    parent_id, name)`` tuples therefore meets every parent before its
    children.
    """
    tree = [(rec["pid"], rec["span_id"], rec.get("parent_id"), rec["name"])
            for rec in _records(path) if rec["type"] == "span"]
    nearest: dict[tuple[int, int], int] = {}
    inside: set[int] = set()     # FOLDED_SPANS spans and their descendants
    folded: set[int] = set()
    for i in range(len(tree) - 1, -1, -1):
        pid, span_id, parent_id, name = tree[i]
        if nearest.get((pid, parent_id)) in inside:
            inside.add(i)
            folded.add(i)
        elif name in FOLDED_SPANS:
            inside.add(i)
        nearest[(pid, span_id)] = i
    return folded


def summarize_log(path: str | Path) -> dict:
    """Fold a trace log into the summary dict ``render_summary`` prints.

    Keys: ``spans`` (per-name count/total/mean/min/max seconds),
    ``events`` (per-name counts), ``heartbeats`` (last per ``src``),
    ``queue_depth`` (samples/min/max/last of ``pool.depth``), ``cache``
    (summed per-job deltas from ``job.complete`` events), ``jobs``
    (dispatch/complete/failed counts) and ``sources``.

    A span nested (at any depth, in the same process) under a
    ``grid.build`` or ``case.build`` span counts in that span's row only,
    whose duration already holds it, so the ``adadelta.minimize`` and
    ``reduction.reduce4`` rows are docking work alone.  The log is read
    twice, streaming: once for the span tree, once to aggregate.
    """
    folded = _folded_spans(path)
    spans: dict[str, dict] = {}
    events: dict[str, int] = {}
    heartbeats: dict[str, dict] = {}
    depth = {"samples": 0, "min": None, "max": None, "last": None}
    cache = {"hits": 0, "misses": 0, "evictions": 0, "races": 0}
    jobs = {"dispatched": 0, "completed": 0, "failed": 0}
    sources: set[str] = set()

    span_index = -1
    for record in _records(path):
        sources.add(record["src"])
        attrs = record.get("attrs", {})
        if record["type"] == "span":
            span_index += 1
            if span_index in folded:
                continue
            agg = spans.setdefault(record["name"], {
                "count": 0, "total_s": 0.0,
                "min_s": float("inf"), "max_s": 0.0})
            dur = float(record["dur_s"])
            agg["count"] += 1
            agg["total_s"] += dur
            agg["min_s"] = min(agg["min_s"], dur)
            agg["max_s"] = max(agg["max_s"], dur)
            continue

        name = record["name"]
        events[name] = events.get(name, 0) + 1
        if name == "worker.heartbeat":
            heartbeats[record["src"]] = {"ts": record["ts"], **attrs}
        elif name == "pool.depth":
            d = int(attrs.get("pending", 0))
            depth["samples"] += 1
            depth["min"] = d if depth["min"] is None else min(depth["min"], d)
            depth["max"] = d if depth["max"] is None else max(depth["max"], d)
            depth["last"] = d
        elif name == "job.dispatch":
            jobs["dispatched"] += 1
        elif name == "job.complete":
            jobs["completed"] += 1
            for key in cache:
                cache[key] += int((attrs.get("cache") or {}).get(key, 0))
        elif name == "job.failed":
            jobs["failed"] += 1

    for agg in spans.values():
        agg["mean_s"] = agg["total_s"] / agg["count"]
    lookups = cache["hits"] + cache["misses"]
    cache["hit_rate"] = cache["hits"] / lookups if lookups else 0.0
    return {"spans": spans, "events": events, "heartbeats": heartbeats,
            "queue_depth": depth, "cache": cache, "jobs": jobs,
            "sources": sorted(sources)}


def render_summary(summary: dict, top: int = 20) -> str:
    """Fixed-width text rendering of :func:`summarize_log`'s output."""
    lines: list[str] = []
    out = lines.append

    out(f"trace sources: {', '.join(summary['sources']) or '(none)'}")

    spans = summary["spans"]
    if spans:
        out("")
        out(f"{'span':<28} {'count':>6} {'total[s]':>9} "
            f"{'mean[ms]':>9} {'min[ms]':>9} {'max[ms]':>9}")
        ranked = sorted(spans.items(),
                        key=lambda kv: kv[1]["total_s"], reverse=True)
        for name, agg in ranked[:top]:
            out(f"{name:<28} {agg['count']:>6} {agg['total_s']:>9.3f} "
                f"{agg['mean_s'] * 1e3:>9.3f} {agg['min_s'] * 1e3:>9.3f} "
                f"{agg['max_s'] * 1e3:>9.3f}")

    jobs = summary["jobs"]
    if any(jobs.values()):
        out("")
        out(f"jobs: {jobs['dispatched']} dispatched, "
            f"{jobs['completed']} completed, {jobs['failed']} failed")

    depth = summary["queue_depth"]
    if depth["samples"]:
        out(f"queue depth: last {depth['last']}, min {depth['min']}, "
            f"max {depth['max']} ({depth['samples']} samples)")

    cache = summary["cache"]
    if cache["hits"] or cache["misses"]:
        out(f"cache: {cache['hits']} hits / {cache['misses']} misses "
            f"(hit rate {cache['hit_rate']:.0%}), "
            f"{cache['evictions']} evictions, {cache['races']} races")

    heartbeats = summary["heartbeats"]
    if heartbeats:
        out("")
        out("worker heartbeats (last per worker):")
        for src in sorted(heartbeats):
            hb = heartbeats[src]
            done = hb.get("jobs_done", "?")
            cstats = hb.get("cache") or {}
            rate = cstats.get("hit_rate")
            rate_txt = f", cache hit rate {rate:.0%}" \
                if isinstance(rate, (int, float)) else ""
            interval = hb.get("interval_s")
            interval_txt = f", heartbeat every {interval:g}s" \
                if isinstance(interval, (int, float)) else ""
            out(f"  {src}: {done} jobs done{rate_txt}{interval_txt}")

    points = {k: v for k, v in summary["events"].items()}
    if points:
        out("")
        out("events: " + ", ".join(
            f"{name} x{count}" for name, count in sorted(points.items())))
    return "\n".join(lines)
