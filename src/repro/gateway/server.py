"""Asyncio HTTP front-end over sharded worker pools.

The long-running serving shape the ROADMAP's north star asks for: an
``asyncio`` event loop owns the sockets (stdlib only — see
:mod:`repro.gateway.protocol`), one OS thread per shard owns a
:class:`~repro.serve.WorkerPool`, and the
:class:`~repro.gateway.scheduler.SLOScheduler` in between decides what
is admitted, where it runs and in what order.  The front-end never
blocks on docking work: handlers read shared state under a plain lock
and poll with short sleeps, so status and streaming stay responsive
while shards grind.

Endpoints (JSON in, JSON/NDJSON out, ``Connection: close``):

========================  ==================================================
``POST /v1/jobs``         submit one job or ``{"jobs": [...]}``; per-job
                          accept/reject with predicted seconds (a single
                          rejected job answers 429 with the structured
                          admission payload, or 422 when its ligand
                          cannot be read)
``GET /v1/jobs/<id>``     one job record (``queued``/``running``/terminal)
``GET /v1/stream``        NDJSON: terminal records as they complete, until
                          every known job is terminal (``?once=1`` dumps
                          and closes)
``GET /v1/stats``         scheduler snapshot + gateway counters
``GET /v1/manifest``      every job record (in memory) and their ranking
``GET /healthz``          liveness
``POST /v1/shutdown``     graceful stop
========================  ==================================================

Completion stays idempotent end to end: job identity is the content
hash, duplicate submissions return the existing record, and each shard's
pool inherits the dedup/retry/dead-letter semantics of
:mod:`repro.serve`.  With ``manifest`` set, a terminal record is
appended to the manifest log (:class:`~repro.serve.manifest
.ShardedManifest`) before ``/v1/stream`` can show it, so a streamed
result is already on disk.
"""

from __future__ import annotations

import asyncio
import threading
import time
import traceback
from dataclasses import dataclass, field

from repro.gateway.protocol import (HttpRequest, ProtocolError,
                                    job_from_request, json_response,
                                    ndjson_line, read_request)
from repro.gateway.scheduler import AdmissionError, SLOScheduler
from repro.obs import configure, disable, get_tracer
from repro.serve.manifest import ShardedManifest, rank_records
from repro.serve.pool import (DEFAULT_HEARTBEAT_SECONDS, JobResult,
                              WorkerPool, run_batch)

__all__ = ["Gateway", "GatewayConfig"]


@dataclass
class GatewayConfig:
    """Serving knobs of one gateway instance.

    ``workers`` is the *process* count per shard pool; ``0`` executes
    inline in the shard thread (deterministic, no multiprocessing — the
    right choice for tests and small hosts).  Autoscaling requires
    process pools (``workers > 0``); it resizes within
    ``[min_workers, max_workers]`` from predicted backlog.
    """

    host: str = "127.0.0.1"
    port: int = 0                       # 0 = ephemeral (tests, CI)
    n_shards: int = 2
    workers: int = 0
    slo_seconds: float | None = None
    route: str = "hash"
    quantum_s: float = 1.0
    tenant_weights: dict = field(default_factory=dict)
    autoscale: bool = False
    min_workers: int = 1
    max_workers: int = 4
    drain_target_s: float = 30.0
    retries: int = 1
    job_wall_seconds: float | None = None
    heartbeat_seconds: float = DEFAULT_HEARTBEAT_SECONDS
    include_history: bool = False
    #: manifest log directory (:class:`repro.serve.manifest
    #: .ShardedManifest`): one appended line per terminal record
    manifest: str | None = None
    #: shard count of a new manifest log (an existing one keeps its own)
    manifest_shards: int = 1
    #: shared disk cache tier root (:class:`repro.serve.store.BlobStore`)
    #: fronted by every shard's worker caches
    store: str | None = None
    #: JSONL trace log: the gateway installs the process tracer when it
    #: is built and tears it down in :meth:`Gateway.stop`
    trace: str | None = None
    bench_path: str | None = None       # None = committed default
    poll_s: float = 0.05


class Gateway:
    """A running (or runnable) gateway instance.

    ``predictor`` defaults to the committed calibration
    (:meth:`repro.simt.predictor.RuntimePredictor.from_bench`); tests
    inject their own.  Use :meth:`start` / :meth:`stop` for in-process
    serving (CLI, tests) or :meth:`run` to block until shutdown.
    """

    def __init__(self, config: GatewayConfig | None = None,
                 predictor=None) -> None:
        self.config = config or GatewayConfig()
        if predictor is None:
            from repro.simt.predictor import (DEFAULT_BENCH_PATH,
                                              RuntimePredictor)
            predictor = RuntimePredictor.from_bench(
                self.config.bench_path or DEFAULT_BENCH_PATH)
        self.predictor = predictor
        self.scheduler = SLOScheduler(
            n_shards=self.config.n_shards, predictor=predictor,
            slo_seconds=self.config.slo_seconds, route=self.config.route,
            quantum_s=self.config.quantum_s,
            tenant_weights=self.config.tenant_weights,
            workers=max(1, self.config.workers),
            min_workers=self.config.min_workers,
            max_workers=self.config.max_workers,
            drain_target_s=self.config.drain_target_s)
        #: the tracer this gateway installed (``None``: the caller's)
        self._tracer = None
        if self.config.trace:
            self._tracer = configure(self.config.trace, source="gateway")
        self._lock = threading.Lock()
        self._manifest = (ShardedManifest(self.config.manifest,
                                          n_shards=self.config.manifest_shards)
                          if self.config.manifest else None)
        #: job_id -> record dict (see ``_record``); insertion-ordered
        self.jobs: dict[str, dict] = {}
        self._stop = threading.Event()
        self._ready = threading.Event()
        self._threads: list[threading.Thread] = []
        self._loop_thread: threading.Thread | None = None
        self.port: int | None = None
        self.requests = 0

    # ------------------------------------------------------------------
    # records

    @staticmethod
    def _record(job, tenant: str, shard: int, predicted_s: float) -> dict:
        return {"job_id": job.job_id, "label": job.label,
                "tenant": tenant, "shard": shard,
                "predicted_s": predicted_s, "status": "queued",
                "submitted_at": time.time(), "attempts": 0,
                "wall_seconds": None, "best_score": None,
                "result": None, "error": None}

    def _public(self, rec: dict, with_result: bool = False) -> dict:
        out = {k: v for k, v in rec.items() if k != "result"}
        if with_result:
            out["result"] = rec["result"]
        return out

    # ------------------------------------------------------------------
    # shard runners

    def _terminal_record(self, result: JobResult) -> dict:
        """The job's record with ``result`` applied: what the manifest
        log gets, and then ``self.jobs``."""
        with self._lock:
            rec = dict(self.jobs[result.job_id])
        rec.update(status=result.status, attempts=result.attempts,
                   wall_seconds=result.wall_seconds,
                   best_score=result.best_score, error=result.error,
                   result=result.to_dict(), completed_at=time.time())
        return rec

    def _shard_runner(self, shard: int) -> None:
        """One shard's service loop: fair batch → pool → records.

        The shard's pool is built on its first batch and kept, warm,
        for the gateway's lifetime; only an autoscale resize replaces
        it.
        """
        cfg = self.config
        tracer = get_tracer()
        pool = None
        try:
            while not self._stop.is_set():
                batch = self.scheduler.next_batch(shard)
                if not batch:
                    time.sleep(cfg.poll_s)
                    continue
                workers = cfg.workers
                if cfg.autoscale and cfg.workers > 0:
                    workers = self.scheduler.apply_autoscale(shard)
                if pool is None or pool.workers != workers:
                    if pool is not None:
                        pool.close()
                    pool = WorkerPool(
                        workers=workers, retries=cfg.retries,
                        job_wall_seconds=cfg.job_wall_seconds,
                        include_history=cfg.include_history,
                        heartbeat_seconds=cfg.heartbeat_seconds,
                        store_root=cfg.store,
                        trace_path=cfg.trace)
                predicted = {sj.job.job_id: sj.predicted_s for sj in batch}
                with self._lock:
                    for sj in batch:
                        self.jobs[sj.job.job_id]["status"] = "running"
                tracer.event("gateway.dispatch", shard=shard,
                             jobs=len(batch), workers=workers)

                def publish(result: JobResult, rec: dict) -> None:
                    self.scheduler.job_done(shard, predicted[result.job_id])
                    with self._lock:
                        self.jobs[result.job_id].update(rec)
                    tracer.event("gateway.done", job_id=result.job_id,
                                 shard=shard, status=result.status,
                                 wall_seconds=result.wall_seconds,
                                 predicted_s=predicted[result.job_id])

                try:
                    run_batch(pool, [sj.job for sj in batch], publish,
                              log=self._manifest,
                              record=self._terminal_record)
                except Exception as exc:
                    # a pool failure (run_batch has dead-lettered the
                    # batch) or a failed manifest write: the shard keeps
                    # serving, and the error is on record
                    tracer.event("gateway.shard_error", shard=shard,
                                 error_type=type(exc).__name__,
                                 message=str(exc),
                                 traceback=traceback.format_exc(limit=10))
        finally:
            if pool is not None:
                pool.close()

    # ------------------------------------------------------------------
    # manifest

    def _header(self) -> dict:
        return {"n_shards": self.config.n_shards,
                "route": self.config.route,
                "slo_seconds": self.config.slo_seconds,
                "written_at": time.time()}

    def _manifest_doc(self) -> dict:
        """``/v1/manifest``: every job record held in memory, ranked."""
        with self._lock:
            jobs = {jid: dict(rec) for jid, rec in self.jobs.items()}
        return {"gateway": self._header(), "jobs": jobs,
                "ranking": rank_records(jobs.values()),
                "scheduler": self.scheduler.snapshot()}

    # ------------------------------------------------------------------
    # HTTP handlers

    async def _handle(self, reader, writer) -> None:
        status = 500
        req: HttpRequest | None = None
        try:
            req = await read_request(reader)
            status, payload = await self._route(req, writer)
            if payload is not None:       # streaming routes wrote already
                writer.write(payload)
        except ProtocolError as exc:
            status = exc.status
            writer.write(json_response(exc.status, {"error": str(exc)}))
        except (ConnectionError, asyncio.IncompleteReadError):
            status = 499
        except Exception as exc:
            writer.write(json_response(
                500, {"error": f"{type(exc).__name__}: {exc}"}))
        finally:
            self.requests += 1
            if req is not None:
                get_tracer().event("gateway.request", method=req.method,
                                   path=req.path, status=status)
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _route(self, req: HttpRequest, writer
                     ) -> tuple[int, bytes | None]:
        path, method = req.path, req.method
        if path == "/healthz":
            return 200, json_response(200, {"ok": True})
        if path == "/v1/jobs" and method == "POST":
            return self._submit(req)
        if path.startswith("/v1/jobs/") and method == "GET":
            return self._status(path.removeprefix("/v1/jobs/"))
        if path == "/v1/stream" and method == "GET":
            await self._stream(req, writer)
            return 200, None
        if path == "/v1/stats" and method == "GET":
            return 200, json_response(200, self.stats())
        if path == "/v1/manifest" and method == "GET":
            return 200, json_response(200, self._manifest_doc())
        if path == "/v1/shutdown" and method == "POST":
            self._stop.set()
            return 200, json_response(200, {"stopping": True})
        raise ProtocolError(404 if method in ("GET", "POST") else 405,
                            f"no route for {method} {path}")

    def _submit(self, req: HttpRequest) -> tuple[int, bytes]:
        doc = req.json()
        batch = "jobs" in doc
        docs = doc["jobs"] if batch else [doc]
        if not isinstance(docs, list) or not docs:
            raise ProtocolError(400, "'jobs' must be a non-empty list")
        accepted, rejected = [], []
        for jdoc in docs:
            if not isinstance(jdoc, dict):
                raise ProtocolError(400, "each job must be an object")
            job, tenant, deadline_s = job_from_request(jdoc)
            # admit and record under one lock: a shard runner can pop
            # the job as soon as it is admitted, and finds its record
            with self._lock:
                existing = self.jobs.get(job.job_id)
                if existing is not None:
                    dup = self._public(existing)
                    dup["duplicate"] = True
                    accepted.append(dup)
                    continue
                try:
                    shard, predicted = self.scheduler.admit(
                        job, tenant=tenant, deadline_s=deadline_s)
                except AdmissionError as exc:
                    rejected.append(exc.payload)
                    continue
                rec = self.jobs[job.job_id] = self._record(
                    job, tenant, shard, predicted)
            accepted.append(self._public(rec))
        body = {"accepted": accepted, "rejected": rejected}
        # a bare (non-batch) submission surfaces its rejection as HTTP
        # backpressure, or as 422 when its ligand is unreadable (no
        # retry can help); batches always 200 with both lists, so one
        # rejected job cannot hide its siblings' admissions
        if not batch and rejected and rejected[0]["reason"] == "unreadable":
            return 422, json_response(422, rejected[0])
        if not batch and rejected:
            return 429, json_response(
                429, rejected[0],
                extra_headers={"Retry-After": str(max(
                    1, int(rejected[0]["retry_after_s"])))})
        return 200, json_response(200, body)

    def _status(self, job_id: str) -> tuple[int, bytes]:
        with self._lock:
            rec = self.jobs.get(job_id)
            if rec is None:
                return 404, json_response(
                    404, {"error": f"unknown job {job_id!r}"})
            return 200, json_response(
                200, self._public(rec, with_result=True))

    async def _stream(self, req: HttpRequest, writer) -> None:
        """NDJSON stream of terminal records (submission order kept).

        Runs until every known job is terminal; ``?once=1`` writes what
        is terminal now and closes (manifest-style polling).
        """
        once = req.query.get("once") in ("1", "true", "yes")
        writer.write((b"HTTP/1.1 200 OK\r\n"
                      b"Content-Type: application/x-ndjson\r\n"
                      b"Connection: close\r\n\r\n"))
        await writer.drain()
        get_tracer().event("gateway.stream", once=once)
        sent: set[str] = set()
        terminal = ("ok", "failed", "dead", "rejected")
        while True:
            fresh, all_done, total = [], True, 0
            with self._lock:
                for jid, rec in self.jobs.items():
                    total += 1
                    if rec["status"] in terminal:
                        if jid not in sent:
                            fresh.append(self._public(rec))
                    else:
                        all_done = False
            for rec in fresh:
                sent.add(rec["job_id"])
                writer.write(ndjson_line(rec))
            if fresh:
                await writer.drain()
            if once or (total > 0 and all_done) or self._stop.is_set():
                return
            await asyncio.sleep(self.config.poll_s)

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            by_status: dict[str, int] = {}
            for rec in self.jobs.values():
                by_status[rec["status"]] = \
                    by_status.get(rec["status"], 0) + 1
        return {"requests": self.requests,
                "jobs": by_status,
                "workers_per_shard": self.config.workers,
                "heartbeat_seconds": self.config.heartbeat_seconds,
                "predictor": {"machine_factor":
                              self.predictor.machine_factor,
                              "coeff_a": self.predictor.coeff_a,
                              "coeff_b": self.predictor.coeff_b},
                "scheduler": self.scheduler.snapshot()}

    # ------------------------------------------------------------------
    # lifecycle

    async def _serve_async(self) -> None:
        server = await asyncio.start_server(
            self._handle, host=self.config.host, port=self.config.port)
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        async with server:
            while not self._stop.is_set():
                await asyncio.sleep(self.config.poll_s)

    def start(self, timeout: float = 10.0) -> "Gateway":
        """Start shard threads + the HTTP loop; returns when bound."""
        for shard in range(self.config.n_shards):
            t = threading.Thread(target=self._shard_runner,
                                 args=(shard,), daemon=True,
                                 name=f"gateway-shard-{shard}")
            t.start()
            self._threads.append(t)
        self._loop_thread = threading.Thread(
            target=lambda: asyncio.run(self._serve_async()),
            daemon=True, name="gateway-http")
        self._loop_thread.start()
        if not self._ready.wait(timeout):
            self._stop.set()
            raise RuntimeError("gateway failed to bind within timeout")
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        for t in self._threads:
            t.join(timeout)
        if self._loop_thread is not None:
            self._loop_thread.join(timeout)
        if self._manifest is not None:
            self._manifest.write_meta(
                screen=self._header(),
                stats={"scheduler": self.scheduler.snapshot()})
            self._manifest.compact()
            self._manifest.close()
        # a tracer this gateway installed must not outlive it: a later
        # untraced run in the process would append to this log
        if self._tracer is not None and get_tracer() is self._tracer:
            disable()

    def run(self) -> int:
        """Blocking serve (the CLI path): start, wait for shutdown."""
        self.start()
        print(f"gateway listening on http://{self.config.host}:"
              f"{self.port} ({self.config.n_shards} shards, "
              f"route={self.config.route}, "
              f"workers/shard={self.config.workers})")
        try:
            while not self._stop.is_set():
                time.sleep(0.2)
        except KeyboardInterrupt:
            pass
        self.stop()
        return 0
