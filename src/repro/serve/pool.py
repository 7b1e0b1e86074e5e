"""Sharded multiprocessing worker pool with crash recovery.

Workers are spawn-started processes (spawn-safe by construction: no
inherited RNG or cache state) that steal work units — a
:class:`~repro.serve.queue.DockingJob` is a unit of one, a
:class:`~repro.serve.queue.CohortJob` a lock-step batch — from a shared
task queue, each owning a private
:class:`~repro.serve.cache.ContentCache`.  Every unit runs through one
executor, :func:`execute_job`, which returns one payload shape.  The
parent tracks in-flight
jobs through ``started`` acknowledgements, so a worker that is killed
mid-job (OOM, segfault, operator) is detected by liveness polling, its
job re-queued with exponential backoff (the
:class:`~repro.analysis.campaign.E50Campaign` retry idiom) and a
replacement worker spawned.  Per-job wall-clock budgets reuse the
cooperative :class:`~repro.robustness.Watchdog` inside the worker, backed
by a parent-side hard lease for workers too wedged to cooperate.

Both executors — inline (``workers=0``) and process — report what
happened to one :class:`~repro.serve.ledger.JobLedger` and carry out the
actions it returns: one set of retry, split, quarantine and dead-letter
rules, with completions idempotent by job id.  A pool is long-lived:
its workers and their queues (inline: its one cache) are made on the
first :meth:`WorkerPool.map` and reused until :meth:`WorkerPool.close`.
:func:`run_batch` is the one loop both entry points — a screen and each
gateway shard — serve through: jobs → pool → manifest log → publish.

Fault containment
-----------------
Results are validated parent-side (:func:`validate_result_payload`): a
payload with missing runs or non-finite best scores counts as a failed
attempt, not a completion.  A job that exhausts its retry budget (or
fails non-retryably) lands in the pool's **dead-letter queue**: a
terminal ``status="dead"`` :class:`JobResult` carrying the error class
and the full attempt history (``pool.dead_letters`` collects them).
Cohorts complete *partially*: healthy members complete straight from the
batched run, and only members the lock-step engine quarantined (see
:class:`~repro.robustness.LaneQuarantine`) are re-dispatched
individually with a fresh per-member retry budget; the whole-cohort
split remains only as the backstop for crashes and raised errors, where
no per-member attribution exists.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing as mp
import os
import time
import traceback
import weakref

from repro.obs import get_tracer
from repro.serve.cache import DEFAULT_CAPACITY, ContentCache, load_case
from repro.serve.ledger import (Dispatch, JobLedger, JobResult, Note,
                                validate_result_payload)
from repro.serve.queue import CohortJob, DockingJob, seed_from_spec

__all__ = ["DEFAULT_HEARTBEAT_SECONDS", "JobResult", "WorkerPool",
           "execute_job", "run_batch", "validate_result_payload"]

#: exit code a worker uses for the injected-crash test hook
_CRASH_EXIT = 17

#: worker processes are spawn-started: the portable choice, and no RNG
#: or cache state leaks from the parent into a worker
_MP = mp.get_context("spawn")

#: quiet seconds (nothing in flight, nothing delayed, no report) before
#: the process pool re-queues every unfinished job (lost dispatches)
_STALL_SECONDS = 10.0


def _apply_poison(case, spec: dict):
    """Chaos hook: ``"poison_nonfinite": true`` NaNs out the grid maps.

    The shared/cached case object is never mutated — the poisoned copy is
    built with :func:`dataclasses.replace`.  The lock-step engine
    quarantines the poisoned ligand on its first scoring pass, so a
    poisoned solo job returns non-finite best scores (caught by
    parent-side validation as ``NonFiniteResult``) and a poisoned cohort
    member comes back quarantined.
    """
    if not spec.get("poison_nonfinite"):
        return case
    import numpy as np
    from dataclasses import replace
    maps = replace(case.maps,
                   affinity=np.full_like(case.maps.affinity, np.nan))
    return replace(case, maps=maps)


def execute_job(job: DockingJob | CohortJob,
                cache: ContentCache | None = None,
                wall_seconds: float | None = None,
                include_history: bool = False) -> dict:
    """Run one work unit through the lock-step engine: a
    :class:`DockingJob` is a unit of one, a :class:`CohortJob` its
    members.

    Returns ``{"members": [{"job_id", "label", "payload": {"result",
    "wall_seconds"}}, ...], "wall_seconds", "cohort_size", "cache"}`` —
    one entry per member, in order, each bit-identical to that member
    run alone.  A member the engine quarantined (non-finite lane or
    guard trip, see :class:`~repro.robustness.LaneQuarantine`) keeps
    its ``quarantine`` record inside its result; the ledger decides what
    to do with it.  Wall time is split evenly across members (the
    lock-step engine advances them together, so there is no per-member
    attribution).  Raises whatever the engine raises — the caller
    (worker loop or inline pool) decides on retry policy.
    """
    from repro.core.engine import dock_cohort
    from repro.robustness import Watchdog

    members = job.jobs
    before = cache.stats() if cache is not None else None
    t0 = time.monotonic()
    span = get_tracer().span("job.execute", job_id=job.job_id,
                             label=job.label, cohort=len(members))
    with span:
        cases = [_apply_poison(load_case(m.spec, cache), m.spec)
                 for m in members]
        seeds = [seed_from_spec(m.seed) for m in members]
        watchdog = (Watchdog(wall_seconds=wall_seconds)
                    if wall_seconds is not None else None)
        results = dock_cohort(
            cases, job.config, n_runs=job.n_runs, seeds=seeds,
            on_generation=watchdog.check if watchdog is not None else None)
        wall = time.monotonic() - t0
        share = wall / len(members)
        payload = {
            "members": [{"job_id": m.job_id, "label": m.label,
                         "payload": {"result": r.to_dict(
                                         include_history=include_history),
                                     "wall_seconds": share}}
                        for m, r in zip(members, results)],
            "wall_seconds": wall,
            "cohort_size": len(members),
            "cache": (ContentCache.delta(before, cache.stats())
                      if cache is not None else None),
        }
        span.set(wall_seconds=wall,
                 quarantined=sum(r.quarantine is not None for r in results),
                 total_evals=sum(r.total_evals for r in results))
    return payload


def _fire_once(spec: dict, key: str) -> bool:
    """Check-and-set a fired-once chaos marker file; True if it fires."""
    marker = spec.get(key)
    if marker and not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write(key)
        return True
    return False


def _maybe_inject_chaos(unit: DockingJob | CohortJob) -> None:
    """Pre-execution chaos hooks for the recovery tests.

    Member job specs opt in via fired-once marker paths (so the retry
    proceeds normally), mirroring the deterministic fault injection of
    :mod:`repro.robustness.inject`:

    * ``"crash_once": <path>`` — the first worker that picks the job up
      dies hard (``os._exit``, no cleanup — the closest portable
      stand-in for a kill -9 mid-job), exercising crash detection,
      respawn and re-dispatch.
    * ``"hang_once": <path>`` — the worker wedges forever; only the
      parent-side hard lease can free the job, exercising lease
      termination and crash-style recovery.
    * ``"slow_once": <path>`` — the worker stalls for
      ``spec["slow_seconds"]`` (default 1.0) before executing,
      exercising lease head-room and stall accounting without failing.
    """
    for job in unit.jobs:
        if _fire_once(job.spec, "crash_once"):
            # give the result queue's feeder thread a beat to flush the
            # "started" ack — a crash *mid-job* (ack delivered) exercises
            # the worker-liveness recovery path; a crash before the ack
            # lands in the slower lost-dispatch backstop instead
            time.sleep(0.25)
            os._exit(_CRASH_EXIT)
        if _fire_once(job.spec, "hang_once"):
            while True:          # wedged: only the parent lease frees us
                time.sleep(0.5)
        if _fire_once(job.spec, "slow_once"):
            time.sleep(float(job.spec.get("slow_seconds", 1.0)))


def _maybe_corrupt_result(unit: DockingJob | CohortJob,
                          payload: dict) -> dict:
    """Post-execution chaos hook: ``"corrupt_result_once": <path>``.

    Mangles a member's first result (best scores → NaN) *after* a clean
    run, so the parent-side :func:`validate_result_payload` path —
    reject, retry, eventually dead-letter — is exercised end to end.
    """
    spec_by_id = {m.job_id: m.spec for m in unit.jobs}
    for entry in payload["members"]:
        if _fire_once(spec_by_id[entry["job_id"]], "corrupt_result_once"):
            for run in entry["payload"]["result"]["runs"]:
                run["best_score"] = float("nan")
    return payload


#: default worker heartbeat cadence (seconds); override per pool/CLI
DEFAULT_HEARTBEAT_SECONDS = 5.0


def _heartbeat(worker_id: int, jobs_done: int, jobs_failed: int,
               cache: ContentCache,
               interval_s: float = DEFAULT_HEARTBEAT_SECONDS) -> dict:
    """One worker heartbeat: liveness, job counts and cache stats.

    Emitted to the trace log and sent to the parent, which surfaces the
    last one per worker in :class:`~repro.serve.screen.VirtualScreen`'s
    manifest stats.  ``interval_s`` records the *effective* cadence so
    downstream consumers (``stats`` subcommand, gateway liveness checks)
    can judge staleness without knowing pool configuration.
    """
    return {
        "worker_id": worker_id,
        "pid": os.getpid(),
        "jobs_done": jobs_done,
        "jobs_failed": jobs_failed,
        "interval_s": interval_s,
        "cache": cache.stats(),
    }


def _make_store(store_root: str | None):
    """Open the shared disk cache tier for a worker (``None`` = no tier)."""
    if store_root is None:
        return None
    from repro.serve.store import BlobStore
    return BlobStore(store_root)


def _error_of(exc: Exception) -> dict:
    """The ledger's error dict for an attempt that raised ``exc``."""
    from repro.robustness import WatchdogTimeout
    return {"error_type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(limit=10),
            # watchdog aborts are deterministic: retrying burns the same
            # budget again (the campaign convention)
            "retryable": not isinstance(exc, WatchdogTimeout)}


def _worker_main(task_q, result_q, worker_id: int, cache_bytes: int,
                 wall_seconds: float | None, include_history: bool,
                 trace_path: str | None = None,
                 heartbeat_seconds: float = DEFAULT_HEARTBEAT_SECONDS,
                 store_root: str | None = None) -> None:
    """Worker loop: steal a job, ack, execute, report; ``None`` drains.

    Heartbeats are emitted after every job *and* whenever the queue stays
    empty for ``heartbeat_seconds`` — an idle worker still proves
    liveness at the configured cadence in the trace log.  The parent
    gets an idle heartbeat only while it carries news (the first one,
    or new job counts): nobody reads the result queue between
    :meth:`WorkerPool.map` calls, and repeats would pile up there.

    A worker whose parent has died exits before it takes another job:
    it holds the write end of its own task queue, so it would never see
    EOF, and no one is left to send the drain sentinel.  The idle wait
    wakes every ``heartbeat_seconds``, so an idle orphan exits that fast.
    """
    import queue as _queue

    parent = mp.parent_process()
    tracer = get_tracer()
    if trace_path is not None:
        from repro.obs import configure
        tracer = configure(trace_path, source=f"worker-{worker_id}")
    cache = ContentCache(cache_bytes, store=_make_store(store_root))
    jobs_done = jobs_failed = 0
    reported = None           # job counts of the last heartbeat sent
    tracer.event("worker.start", worker_id=worker_id, pid=os.getpid())
    while True:
        if parent is not None and not parent.is_alive():
            result_q.cancel_join_thread()     # no reader is left
            return
        try:
            job = task_q.get(timeout=max(heartbeat_seconds, 0.05))
        except _queue.Empty:
            hb = _heartbeat(worker_id, jobs_done, jobs_failed, cache,
                            interval_s=heartbeat_seconds)
            tracer.event("worker.heartbeat", **hb)
            if reported != (jobs_done, jobs_failed):
                reported = (jobs_done, jobs_failed)
                result_q.put(("heartbeat", None, worker_id, hb))
            continue
        if job is None:
            tracer.event("worker.stop", worker_id=worker_id,
                         jobs_done=jobs_done, jobs_failed=jobs_failed)
            result_q.put(("bye", None, worker_id, None))
            return
        result_q.put(("started", job.job_id, worker_id, None))
        _maybe_inject_chaos(job)
        try:
            payload = execute_job(job, cache, wall_seconds=wall_seconds,
                                  include_history=include_history)
            payload = _maybe_corrupt_result(job, payload)
            jobs_done += 1
            result_q.put(("done", job.job_id, worker_id, payload))
        except Exception as exc:
            jobs_failed += 1
            result_q.put(("failed", job.job_id, worker_id, _error_of(exc)))
        hb = _heartbeat(worker_id, jobs_done, jobs_failed, cache,
                        interval_s=heartbeat_seconds)
        tracer.event("worker.heartbeat", **hb)
        reported = (jobs_done, jobs_failed)
        result_q.put(("heartbeat", None, worker_id, hb))


def _shutdown(procs: dict, task_q, result_q, timeout: float = 2.0) -> None:
    """Stop a pool's workers and release their queues.

    Every drain sentinel goes out before any worker is waited for, so
    the workers exit in parallel.  The result queue is read while they
    exit (a worker cannot finish flushing its last reports into a full
    pipe), and whoever is still alive at ``timeout`` is terminated.
    """
    import queue as _queue

    for _ in procs:
        task_q.put(None)
    deadline = time.monotonic() + timeout
    while (any(p.is_alive() for p in procs.values())
           and time.monotonic() < deadline):
        try:
            result_q.get(timeout=0.05)
        except _queue.Empty:
            pass
    for proc in procs.values():
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout)
    procs.clear()
    for q in (task_q, result_q):
        q.cancel_join_thread()
        q.close()


class WorkerPool:
    """Fan :class:`DockingJob` work across spawn-safe worker processes.

    The pool lives as long as its owner: the first :meth:`map` starts
    the workers (or, inline, the one cache), later calls reuse them with
    their warm caches, and :meth:`close` stops them.

    Parameters
    ----------
    workers:
        Worker process count; ``0`` executes inline in the parent (no
        multiprocessing — deterministic and convenient for tests and as
        the sequential baseline of the throughput benchmark).
    retries:
        Extra attempts for a job whose worker crashed or raised a
        transient error.
    backoff:
        Base of the exponential re-queue delay: attempt ``k`` waits
        ``backoff * 2**(k-1)`` seconds, while every other ready job runs.
    job_wall_seconds:
        Cooperative per-job watchdog budget (``None`` disables).
    lease_seconds:
        Parent-side hard lease: an in-flight job older than this gets its
        worker terminated and is treated as a crash.  Defaults to
        ``4 * job_wall_seconds`` when a watchdog budget is set.
    cache_bytes:
        Per-worker :class:`ContentCache` capacity.
    store_root:
        Optional shared disk cache tier root
        (:class:`~repro.serve.store.BlobStore`): every worker fronts its
        in-memory cache with the same content-addressed blob directory,
        so grids are parsed once per *fleet*, not once per process.
    include_history:
        Keep per-run improvement traces in result payloads (large).
    max_respawns:
        Crash-loop breaker: worker replacements allowed per :meth:`map`
        call before the pool aborts with ``RuntimeError`` instead of
        respawning forever (default ``8 * workers``).  Guards against
        systematically-broken worker environments — e.g. a ``spawn``
        ``__main__`` that cannot be re-imported, where every worker dies
        on startup before ever taking a job.
    trace_path:
        Shared JSONL trace log; workers configure their own
        :mod:`repro.obs` tracer appending to it (``None`` = no tracing).
    heartbeat_seconds:
        Worker heartbeat cadence: idle workers emit a liveness heartbeat
        at this interval (busy workers also heartbeat after every job).
        A serving-layer knob, not part of :class:`~repro.core.config
        .DockingConfig` — config fields feed the content hash that is a
        job's identity, and the heartbeat cadence must not change job
        ids or dedup semantics.
    """

    def __init__(self, workers: int = 2, retries: int = 2,
                 backoff: float = 0.25,
                 job_wall_seconds: float | None = None,
                 lease_seconds: float | None = None,
                 cache_bytes: int = DEFAULT_CAPACITY,
                 include_history: bool = False,
                 poll_seconds: float = 0.1,
                 max_respawns: int | None = None,
                 trace_path: str | None = None,
                 heartbeat_seconds: float = DEFAULT_HEARTBEAT_SECONDS,
                 store_root: str | None = None) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = workers
        self.retries = retries
        self.backoff = backoff
        self.job_wall_seconds = job_wall_seconds
        if lease_seconds is None and job_wall_seconds is not None:
            lease_seconds = 4.0 * job_wall_seconds
        self.lease_seconds = lease_seconds
        self.cache_bytes = cache_bytes
        self.include_history = include_history
        self.poll_seconds = poll_seconds
        self.max_respawns = (max_respawns if max_respawns is not None
                             else 8 * max(workers, 1))
        self.trace_path = trace_path
        self.store_root = str(store_root) if store_root is not None else None
        if heartbeat_seconds <= 0:
            raise ValueError("heartbeat_seconds must be > 0")
        self.heartbeat_seconds = heartbeat_seconds
        #: workers replaced after a crash (cumulative over map calls)
        self.workers_replaced = 0
        #: last heartbeat per worker id (inline mode uses key "inline")
        self.heartbeats: dict = {}
        #: terminal ``status="dead"`` results (cumulative over map calls)
        self.dead_letters: list[JobResult] = []
        #: cohort members quarantined by the lock-step engine (count)
        self.quarantines = 0
        #: inline (``workers=0``) executor: the one cache of every call
        self._cache: ContentCache | None = None
        #: process executor: worker id -> process, and their queues
        self._procs: dict[int, mp.process.BaseProcess] = {}
        self._task_q = self._result_q = None
        self._next_wid = 0
        self._reaper: weakref.finalize | None = None

    # ------------------------------------------------------------------

    def map(self, jobs: list[DockingJob]):
        """Yield one terminal :class:`JobResult` per job, as completed.

        Completion order follows execution, not submission; callers that
        need ranking sort afterwards.  Every job yields exactly one
        result even across worker crashes: both executors drive one
        :class:`~repro.serve.ledger.JobLedger` per call.  The executor
        outlives the call: worker processes (or the inline cache) are
        made on the first call and reused until :meth:`close`.
        """
        run = self._map_inline if self.workers == 0 else self._map_processes
        yield from run(jobs)

    def close(self) -> None:
        """Stop the workers and drop the cache; the next :meth:`map`
        starts afresh.  A pool that is never closed releases its
        workers when it is garbage-collected."""
        if self._reaper is not None:
            self._reaper()               # runs _shutdown once
            self._reaper = None
        self._cache = None

    def _apply(self, actions: list, queue):
        """Carry out ledger actions: record notes in the trace log,
        hand dispatches to ``queue``, yield results."""
        tracer = get_tracer()
        for act in actions:
            if isinstance(act, Dispatch):
                tracer.event("job.dispatch", job_id=act.job.job_id,
                             label=act.job.label, reason=act.reason)
                queue(act)
            elif isinstance(act, Note):
                tracer.event(act.name, **act.attrs)
                if act.name == "cohort.quarantine_redispatch":
                    self.quarantines += 1
            else:
                if act.status == "dead":
                    self.dead_letters.append(act)
                yield act

    # -- inline (workers=0) -------------------------------------------

    def _map_inline(self, jobs):
        """Run jobs in the caller's thread, earliest-due first.

        Only a retry waiting out its backoff with nothing else ready
        sleeps here.  One cache serves every call, so split and
        re-dispatched cohort members and later calls reuse it warm.
        """
        if self._cache is None:
            self._cache = ContentCache(self.cache_bytes,
                                       store=_make_store(self.store_root))
        cache = self._cache
        ledger = JobLedger(self.retries, self.backoff)
        ready: list = []                     # heap of (due, seq, job)
        seq = itertools.count()

        def queue(d: Dispatch) -> None:
            heapq.heappush(ready, (d.at, next(seq), d.job))

        jobs_done = jobs_failed = 0
        yield from self._apply(ledger.submit(jobs, time.monotonic()), queue)
        while ready:
            due, _, job = heapq.heappop(ready)
            if job.job_id not in ledger:
                continue
            time.sleep(max(due - time.monotonic(), 0.0))
            ledger.started(job.job_id, None, time.monotonic())
            try:
                payload = execute_job(
                    job, cache, wall_seconds=self.job_wall_seconds,
                    include_history=self.include_history)
            except Exception as exc:
                jobs_failed += 1
                actions = ledger.failed(job.job_id, _error_of(exc), None,
                                        time.monotonic())
            else:
                jobs_done += 1
                actions = ledger.done(job.job_id, payload, None,
                                      time.monotonic())
            yield from self._apply(actions, queue)
            hb = _heartbeat(-1, jobs_done, jobs_failed, cache,
                            interval_s=self.heartbeat_seconds)
            self.heartbeats["inline"] = hb
            get_tracer().event("worker.heartbeat", **hb)

    # -- multiprocessing ----------------------------------------------

    def _spawn_worker(self) -> int:
        """Start one worker on the pool's queues; returns its id."""
        wid = self._next_wid
        self._next_wid += 1
        proc = _MP.Process(
            target=_worker_main,
            args=(self._task_q, self._result_q, wid, self.cache_bytes,
                  self.job_wall_seconds, self.include_history,
                  self.trace_path, self.heartbeat_seconds,
                  self.store_root),
            daemon=True, name=f"repro-serve-worker-{wid}")
        proc.start()
        self._procs[wid] = proc
        return wid

    def _start_workers(self) -> None:
        """Make the queues and the workers (the first call after
        :meth:`close`); the finalizer stops them if nobody does."""
        self._task_q, self._result_q = _MP.Queue(), _MP.Queue()
        self._reaper = weakref.finalize(self, _shutdown, self._procs,
                                        self._task_q, self._result_q)
        for _ in range(self.workers):
            self._spawn_worker()

    def _map_processes(self, jobs):
        """Feed worker reports to the ledger; keep the workers alive.

        What stays here is process plumbing: liveness polling, hard
        leases (an expired lease terminates the worker, which the ledger
        then sees as a crash), respawns with the crash-loop breaker, and
        the lost-dispatch backstop.  A call that ends abnormally (an
        exception, or a consumer that stops iterating) closes the pool,
        so no stale work waits in its queues for the next call.
        """
        import queue as _queue

        tracer = get_tracer()
        ledger = JobLedger(self.retries, self.backoff)
        delayed: list = []        # heap of (due, seq, job) not yet queued
        seq = itertools.count()
        procs = self._procs
        respawns = 0

        def queue(d: Dispatch) -> None:
            heapq.heappush(delayed, (d.at, next(seq), d.job))

        def reap():
            """Terminate over-lease workers, report dead ones, respawn."""
            nonlocal respawns
            now = time.monotonic()
            if self.lease_seconds is not None:
                for _jid, wid, since in ledger.in_flight():
                    proc = procs.get(wid)
                    if (now - since > self.lease_seconds
                            and proc is not None and proc.is_alive()):
                        proc.terminate()     # reaped as a crash
            for wid, proc in list(procs.items()):
                if proc.is_alive():
                    continue
                del procs[wid]
                job_id = next((jid for jid, w, _ in ledger.in_flight()
                               if w == wid), None)
                if job_id is not None:
                    yield from self._apply(ledger.crashed(
                        job_id, wid, now,
                        f"worker {wid} died (exit {proc.exitcode})"), queue)
                if not ledger:
                    continue
                # keep the pool at strength
                if respawns >= self.max_respawns:
                    raise RuntimeError(
                        f"worker pool crash-looping: {respawns} workers "
                        f"replaced (cap {self.max_respawns}) with "
                        f"{len(ledger)} jobs unfinished — the worker "
                        f"environment is broken (last exit code "
                        f"{proc.exitcode})")
                replacement = self._spawn_worker()
                respawns += 1
                self.workers_replaced += 1
                tracer.event("worker.respawn", died=wid,
                             replacement=replacement,
                             exitcode=proc.exitcode)

        yield from self._apply(ledger.submit(jobs, time.monotonic()), queue)
        finished = False
        try:
            if self._reaper is None:
                self._start_workers()
            task_q, result_q = self._task_q, self._result_q
            last_activity = time.monotonic()
            while ledger:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    task_q.put(heapq.heappop(delayed)[2])
                    last_activity = now
                try:
                    kind, job_id, wid, payload = result_q.get(
                        timeout=self.poll_seconds)
                except _queue.Empty:
                    yield from reap()
                    if (time.monotonic() - last_activity > _STALL_SECONDS
                            and not ledger.in_flight() and not delayed):
                        # lost-dispatch backstop: re-queue whatever is
                        # still unaccounted for (completions dedup)
                        for job in ledger.pending_jobs():
                            task_q.put(job)
                        last_activity = time.monotonic()
                    continue

                now = last_activity = time.monotonic()
                if kind == "started":
                    ledger.started(job_id, wid, now)
                    if wid not in procs:
                        # reaped before its ack was read: it died mid-job
                        yield from self._apply(ledger.crashed(
                            job_id, wid, now, f"worker {wid} died"), queue)
                elif kind == "heartbeat":
                    self.heartbeats[wid] = payload
                elif kind == "done":
                    yield from self._apply(
                        ledger.done(job_id, payload, wid, now), queue)
                elif kind == "failed":
                    yield from self._apply(
                        ledger.failed(job_id, payload, wid, now), queue)
                # "bye" only arrives while the pool closes
            finished = True
        finally:
            if not finished:
                self.close()


def run_batch(pool: WorkerPool, jobs: list, publish, log=None,
              record=JobResult.to_dict) -> None:
    """The one dispatch loop: ``jobs`` → :meth:`WorkerPool.map` → log →
    ``publish``.  :class:`~repro.serve.screen.VirtualScreen` and every
    gateway shard runner serve their jobs through it.

    Each terminal :class:`JobResult` becomes ``record(result)``, is
    appended to ``log`` (a :class:`~repro.serve.manifest
    .ShardedManifest`, or ``None``) and only then handed to
    ``publish(result, record)``: whatever a consumer is shown is already
    on disk.  A pool-level exception ends the call: every job of it
    that is not yet terminal gets one ``dead`` record, appended and
    published the same way, and then the exception propagates, as one
    raised by ``publish`` does.
    """
    left = {m.job_id: m for unit in jobs for m in unit.jobs}

    def deliver(result: JobResult) -> None:
        left.pop(result.job_id, None)
        rec = record(result)
        if log is not None:
            log.append(rec)
        publish(result, rec)

    results = pool.map(jobs)
    try:
        while True:
            try:
                result = next(results)
            except StopIteration:
                return
            except Exception as exc:
                error = {"error_type": type(exc).__name__,
                         "message": str(exc)}
                for job in list(left.values()):
                    deliver(JobResult(job_id=job.job_id, label=job.label,
                                      status="dead", attempts=0,
                                      error=error))
                raise
            deliver(result)
    finally:
        results.close()
