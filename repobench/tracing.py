"""Spans recorded from outside the program, around its public functions.

:meth:`Tracer.install` swaps wrappers onto the functions and methods
listed in :data:`TARGETS`, and a few more that also count work (every
backend's ``reduce4``, ``mma`` / ``tcec_mma``, ``WorkerPool``, the
scheduler's batches, ``pack_cohorts``, manifest bytes, ``on_generation``
gaps); a module function is rebound in every ``repro.*`` module that
imported it by name.  :meth:`Tracer.uninstall` puts the originals back.  A wrapper records one span ``[name, start, end, parent, job, tid,
failed]`` per call into an in-memory list; nothing is written until the
run ends (:meth:`Tracer.records`).

Spawned worker processes re-import the benchmark's main module; when the
``REPOBENCH_SPANS`` environment variable names a directory, that import
calls :func:`install_in_worker`, which installs the same wrappers in the
worker and appends its spans to ``<dir>/spans-<pid>.jsonl`` whenever a
worker job (the outermost span) ends.

Layer numbers come from :func:`summarize`: a span's self time is its
duration minus the time its child spans cover, summed per span name.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np

ENV_SPANS = "REPOBENCH_SPANS"

#: (module, attribute path, span name).  A dotted path wraps a method on
#: its class; a plain name wraps a module-level function.  Targets that no
#: longer exist are skipped and reported by :meth:`Tracer.missing`.
TARGETS = [
    ("repro.core.engine", "DockingEngine.dock", "core.dock"),
    ("repro.core.engine", "dock_cohort", "core.dock_cohort"),
    ("repro.search.parallel", "ParallelLGA.run", "search.run"),
    ("repro.search.cohort", "CohortLGA.run", "search.run"),
    ("repro.search.lga", "LGARun.run", "search.run"),
    ("repro.search.adadelta", "AdadeltaLocalSearch.minimize", "search.ls"),
    ("repro.search.cohort", "CohortSolisWets.minimize_cohort", "search.ls"),
    ("repro.search.ga", "next_generation_batched", "search.ga"),
    ("repro.docking.scoring", "ScoringFunction.score", "docking.score"),
    ("repro.docking.cohort", "CohortScoring.score", "docking.score"),
    ("repro.docking.gradients", "GradientCalculator.__call__",
     "docking.gradient"),
    ("repro.docking.cohort", "CohortGradientCalculator.__call__",
     "docking.gradient"),
    ("repro.io.rlig", "RligReader.read", "io.rlig.read"),
    ("repro.io.rlig", "pack_rlig", "io.rlig.pack"),
    ("repro.serve.screen", "VirtualScreen.run", "serve.screen.run"),
    ("repro.serve.screen", "VirtualScreen.jobs", "serve.queue.jobs"),
    ("repro.serve.queue", "JobQueue.submit", "serve.queue.submit"),
    ("repro.serve.queue", "JobQueue.drain", "serve.queue.drain"),
    ("repro.serve.queue", "pack_cohorts", "serve.queue.pack"),
    ("repro.serve.pool", "WorkerPool.__init__", "serve.pool.init"),
    ("repro.serve.pool", "execute_job", "serve.pool.execute"),
    ("repro.serve.pool", "execute_cohort", "serve.pool.execute"),
    ("repro.serve.cache", "load_case", "serve.cache.load_case"),
    ("repro.serve.manifest", "atomic_write_json", "serve.manifest.write"),
    ("repro.serve.manifest", "ShardedManifest.append",
     "serve.manifest.write"),
    ("repro.gateway.scheduler", "SLOScheduler.admit", "gateway.admit"),
]

#: span names whose end flushes a worker's spans to its file
_WORKER_ROOTS = ("serve.pool.execute",)


def _layer(name: str) -> str:
    """Layer of a span or count name: ``serve.pool.map`` -> ``serve.pool``."""
    head = name.split(".")
    return ".".join(head[:2]) if head[0] == "serve" else head[0]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        #: non-empty batch sizes returned by SLOScheduler.next_batch
        self.batches: list[int] = []
        #: cohorts returned by pack_cohorts: member spec lists
        self.cohorts: list[list[dict]] = []
        #: gaps between consecutive on_generation calls of a search run [s]
        self.generation_gaps: list[float] = []
        #: (start, end, workers) of every WorkerPool.map call
        self.pool_maps: list[tuple[float, float, int]] = []
        #: every WorkerPool built while installed (for its fault counters)
        self.pools: list = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._missing: list[str] = []
        self.flush_path: Path | None = None

    # -- recording ----------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def open(self, name: str, job: str | None = None,
             start: float | None = None) -> list:
        st = self._stack()
        span = [name, time.perf_counter() if start is None else start, None,
                st[-1] if st else None, job, threading.get_ident(), False]
        self.spans.append(span)
        st.append(span)
        return span

    def close(self, span: list, failed: bool = False) -> None:
        span[2] = time.perf_counter()
        span[6] = failed
        st = self._stack()
        if st and st[-1] is span:
            st.pop()
        if self.flush_path is not None and not st \
                and span[0] in _WORKER_ROOTS:
            self.flush()

    def add(self, name: str, start: float, end: float,
            job: str | None = None) -> None:
        """Record a finished interval (e.g. a measured wait) as a span."""
        self.spans.append([name, start, end, None, job,
                           threading.get_ident(), False])

    def _wrap(self, name: str, fn, after=None):
        """``fn`` in a span; ``after(args, result)`` counts the call's work
        once the span is closed, so counting is not timed."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name, _job_of(args))
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
            finally:
                tracer.close(span, failed)
            if after is not None:
                after(args, out)
            return out
        return wrapper

    # -- install / uninstall ------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_function(self, module, attr: str, new) -> None:
        """Rebind a module function everywhere ``repro`` imported it."""
        orig = getattr(module, attr)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") \
                    and getattr(mod, attr, None) is orig:
                self._patch(mod, attr, new)

    def _after_hooks(self) -> dict:
        """Work counted after a wrapped call, keyed by attribute path."""
        def manifest_bytes(n):
            self.count("serve.manifest.bytes", n)
        return {
            "WorkerPool.__init__": lambda a, _out: self.pools.append(a[0]),
            "pack_cohorts": lambda _a, out: self.cohorts.extend(
                [m.spec for m in c.jobs] for c in out if hasattr(c, "jobs")),
            "ShardedManifest.append": lambda a, _out: manifest_bytes(
                len(json.dumps(a[1], separators=(",", ":"))) + 1),
            "atomic_write_json": lambda a, _out: manifest_bytes(
                os.path.getsize(a[0])),
        }

    def install(self) -> "Tracer":
        hooks = self._after_hooks()
        for modname, path, name in TARGETS:
            try:
                module = importlib.import_module(modname)
                owner, _, attr = path.rpartition(".")
                if owner:
                    cls = getattr(module, owner)
                    self._patch(cls, attr, self._wrap(
                        name, cls.__dict__[attr], hooks.get(path)))
                    continue
                self._patch_function(module, attr, self._wrap(
                    name, getattr(module, attr), hooks.get(path)))
            except (ImportError, AttributeError, KeyError):
                self._missing.append(f"{modname}:{path}")
        self._install_counters()
        return self

    def _install_counters(self) -> None:
        """Wrappers that count or time work in ways a span cannot."""
        def rows(args, _out):
            shape = getattr(args[1], "shape", ())
            self.count("reduction.reduce4_rows",
                       int(np.prod(shape[:-2], dtype=np.int64)))
        try:
            from repro.reduction.api import ReductionBackend
            todo, seen = [ReductionBackend], set()
            while todo:
                cls = todo.pop()
                if cls in seen:
                    continue
                seen.add(cls)
                todo.extend(cls.__subclasses__())
                if "reduce4" in cls.__dict__ and cls is not ReductionBackend:
                    self._patch(cls, "reduce4", self._wrap(
                        "reduction.reduce4", cls.__dict__["reduce4"], rows))
        except ImportError:
            self._missing.append("repro.reduction.api:ReductionBackend")
        for modname, attr in (("repro.tensorcore.mma", "mma"),
                              ("repro.tensorcore.tcec", "tcec_mma")):
            try:
                module = importlib.import_module(modname)
                self._patch_function(module, attr, self._counter(
                    "tensorcore.mma_calls", getattr(module, attr)))
            except (ImportError, AttributeError):
                self._missing.append(f"{modname}:{attr}")
        for modname, owner, attr, make in (
                ("repro.serve.pool", "WorkerPool", "map", self._pool_map),
                ("repro.gateway.scheduler", "SLOScheduler", "next_batch",
                 self._next_batch),
                ("repro.search.parallel", "ParallelLGA", "run",
                 self._generations),
                ("repro.search.cohort", "CohortLGA", "run",
                 self._generations)):
            try:
                cls = getattr(importlib.import_module(modname), owner)
                self._patch(cls, attr, make(cls.__dict__[attr]))
            except (ImportError, AttributeError, KeyError):
                self._missing.append(f"{modname}:{owner}.{attr}")

    def _pool_map(self, pmap):
        tracer = self

        @functools.wraps(pmap)
        def pool_map(self_, jobs):
            # a generator: the span stays open while the caller consumes
            # results, so the caller's manifest writes nest inside it
            span = tracer.open("serve.pool.map")
            failed = True
            try:
                yield from pmap(self_, jobs)
                failed = False
            finally:
                tracer.close(span, failed)
                tracer.pool_maps.append((span[1], span[2], self_.workers))
        return pool_map

    def _next_batch(self, nb):
        tracer = self
        offset = time.perf_counter() - time.monotonic()

        @functools.wraps(nb)
        def next_batch(self_, *args, **kwargs):
            # each job's wait in the scheduler becomes a span that ends
            # when its batch is handed to a pool
            batch = nb(self_, *args, **kwargs)
            if batch:
                now = time.perf_counter()
                tracer.batches.append(len(batch))
                for sj in batch:
                    tracer.add("gateway.queue_wait", sj.admitted_at + offset,
                               now, sj.job.job_id)
            return batch
        return next_batch

    def _generations(self, run):
        tracer = self

        @functools.wraps(run)
        def wrapper(self_, n_runs, on_generation=None, **kwargs):
            last = [time.perf_counter()]

            def hook(*args):
                now = time.perf_counter()
                tracer.generation_gaps.append(now - last[0])
                last[0] = now
                if on_generation is not None:
                    on_generation(*args)
            return run(self_, n_runs, on_generation=hook, **kwargs)
        return wrapper

    def _counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def missing(self) -> list[str]:
        return list(self._missing)

    # -- output -------------------------------------------------------

    def records(self) -> list[dict]:
        """Finished spans as dicts with integer ids and parent ids."""
        pid = os.getpid()
        ids = {id(s): k for k, s in enumerate(self.spans)}
        return [{"id": k, "name": s[0], "start": s[1], "end": s[2],
                 "parent": ids.get(id(s[3])) if s[3] is not None else None,
                 "job": s[4], "tid": s[5], "pid": pid, "failed": s[6]}
                for k, s in enumerate(self.spans) if s[2] is not None]

    def flush(self) -> None:
        """Worker side: append finished spans and counts, then forget them."""
        with open(self.flush_path, "a") as fh:
            fh.write(json.dumps({"spans": self.records(),
                                 "counts": self.counts,
                                 "gaps": self.generation_gaps}) + "\n")
        self.spans, self.counts, self.generation_gaps = [], {}, []


def _job_of(args) -> str | None:
    """Job id of a ``execute_job(job, ...)``-style call, if any."""
    if args:
        job_id = getattr(args[0], "job_id", None)
        if isinstance(job_id, str):
            return job_id
    return None


def install_in_worker(directory: str) -> Tracer:
    """Install the wrappers in a spawned worker (see module docstring)."""
    tracer = Tracer().install()
    tracer.flush_path = Path(directory) / f"spans-{os.getpid()}.jsonl"
    return tracer


def read_worker_spans(directory: Path, base: int = 0
                      ) -> tuple[list[dict], dict, list]:
    """Spans, summed counts and generation gaps written by workers; span
    ids start at ``base`` so they never collide with the caller's."""
    spans, counts, gaps = [], {}, []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path) as fh:
            for line in fh:
                chunk = json.loads(line)
                first = base + len(spans)
                for rec in chunk["spans"]:
                    rec = dict(rec, id=rec["id"] + first)
                    if rec["parent"] is not None:
                        rec["parent"] += first
                    spans.append(rec)
                for k, v in chunk["counts"].items():
                    counts[k] = counts.get(k, 0) + v
                gaps.extend(chunk["gaps"])
    return spans, counts, gaps


# ----------------------------------------------------------------------
# aggregation


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, failures."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) \
                + (s["end"] - s["start"])
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0, "failed": 0})
        dur = s["end"] - s["start"]
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child_time.get(s["id"], 0.0)
        row["failed"] += int(bool(s["failed"]))
    return out


def layers(by_name: dict[str, dict], counts: dict) -> dict[str, dict]:
    """Fold span names into layers (the repo's module names); spans named
    ``*_wait`` are time work waited, not time the layer was busy."""
    out: dict[str, dict] = {}

    def row_of(name: str) -> dict:
        return out.setdefault(_layer(name), {"calls": 0, "self_s": 0.0,
                                             "wait_s": 0.0, "failed": 0})
    for name, row in by_name.items():
        layer = row_of(name)
        if name.endswith("_wait"):
            layer["wait_s"] += row["self_s"]
            continue
        layer["calls"] += row["calls"]
        layer["self_s"] += row["self_s"]
        layer["failed"] += row["failed"]
    for name, n in counts.items():
        if name.endswith("_calls"):
            row_of(name)["calls"] += n
    return out


def covered(spans: list[dict], windows: list[tuple[float, float]]
            ) -> tuple[float, float]:
    """``(seconds covered by a span, seconds)`` of the union of ``windows``."""
    def merge(intervals):
        out: list[list[float]] = []
        for a, b in sorted(intervals):
            if out and a <= out[-1][1]:
                out[-1][1] = max(out[-1][1], b)
            else:
                out.append([a, b])
        return out

    spans_u = merge((s["start"], s["end"]) for s in spans)
    hit = total = 0.0
    for a, b in merge(windows):
        total += b - a
        for c, d in spans_u:
            lo, hi = max(a, c), min(b, d)
            if hi > lo:
                hit += hi - lo
    return hit, total
