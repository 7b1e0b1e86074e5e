"""`VirtualScreen`: fan a ligand library across the worker pool.

The high-level service API: build one content-addressed
:class:`~repro.serve.queue.DockingJob` per ligand, drop duplicates and
jobs the manifest already holds, order the rest by priority, pack them
into cohorts, and hand the whole list to :func:`~repro.serve.pool
.run_batch` — the dispatch loop the gateway's shards use too.  It runs
them on one :class:`~repro.serve.pool.WorkerPool` and appends each
terminal :class:`~repro.serve.pool.JobResult` to the manifest log on
disk (:class:`~repro.serve.manifest.ShardedManifest`) before anyone
sees it, so an interrupted screen resumes without re-docking anything
already finished.

::

    from repro.serve import VirtualScreen

    screen = VirtualScreen(fld="protein.maps.fld",
                           ligands=["l1.pdbqt", "l2.pdbqt"],
                           config=DockingConfig(backend="tcec-tf32"),
                           n_runs=4, seed=2025)
    report = screen.run(workers=4, manifest="screen-manifest", resume=True)
    for hit in report.ranking[:10]:
        print(hit["label"], hit["best_score"])
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.config import DockingConfig
from repro.obs import configure, disable, get_tracer
from repro.serve.cache import DEFAULT_CAPACITY, file_sha256, maps_digest
from repro.serve.manifest import (ShardedManifest, load_manifest_jobs,
                                  rank_records)
from repro.serve.pool import JobResult, WorkerPool, run_batch
from repro.serve.queue import (DockingJob, canonical_spec, pack_cohorts,
                               spawn_seed)

__all__ = ["VirtualScreen", "ScreenReport"]


@dataclass
class ScreenReport:
    """Terminal state of one screen invocation."""

    #: job_id -> terminal JobResult (ok / failed / dead / cached)
    results: dict[str, JobResult]
    #: completed jobs sorted best-score-first
    ranking: list[dict]
    stats: dict
    manifest_path: str | None = None

    @property
    def completed(self) -> list[JobResult]:
        return [r for r in self.results.values()
                if r.status not in ("failed", "dead")]

    @property
    def failed(self) -> list[JobResult]:
        """Terminal failures: legacy ``failed`` plus dead-letter records."""
        return [r for r in self.results.values()
                if r.status in ("failed", "dead")]

    @property
    def dead(self) -> list[JobResult]:
        """Dead-letter records (``repro screen --retry-dead`` re-admits)."""
        return [r for r in self.results.values() if r.status == "dead"]


@dataclass
class VirtualScreen:
    """A docking screen of many ligands against one receptor.

    Exactly one target style must be given:

    * ``cases`` — named library cases, each docking its own ligand;
    * ``case`` + ``ligands`` — external PDBQT ligands into a named
      library case's maps;
    * ``fld`` + ``ligands`` — AutoGrid map files plus PDBQT ligands.

    Instead of a PDBQT ``ligands`` list, ``case``/``fld`` screens can
    take ``rlig`` — a packed binary ligand library (see
    :mod:`repro.io.rlig`): ligands stream to workers by offset, and the
    per-record content digests precomputed at pack time become the job
    identities, so submit-time hashing is an index lookup.

    Parameters
    ----------
    config:
        Engine configuration shared by every job.
    n_runs:
        LGA runs per ligand.
    seed:
        Master entropy; job ``i`` gets the spawned stream
        ``SeedSequence(seed, spawn_key=(i,))`` (see the seeding contract
        in :mod:`repro.core.config`).
    priorities:
        Optional per-ligand priority list (lower runs first, then
        library order).
    chaos:
        Optional chaos-injection map ``label -> extra spec keys`` merged
        into that entry's job spec (``crash_once`` / ``hang_once`` /
        ``slow_once`` / ``corrupt_result_once`` marker paths,
        ``poison_nonfinite`` — see :mod:`repro.serve.pool`).  Chaos keys
        are part of the content-addressed job id, so chaos runs never
        collide with clean manifests.  Test/CI hook, not a user feature.
    """

    cases: list[str] | None = None
    ligands: list[str | Path] | None = None
    rlig: str | Path | None = None
    fld: str | Path | None = None
    case: str | None = None
    config: DockingConfig = field(default_factory=DockingConfig)
    n_runs: int = 4
    seed: int = 2025
    priorities: list[int] | None = None
    chaos: dict | None = None

    def __post_init__(self) -> None:
        styles = [self.cases is not None,
                  self.case is not None,
                  self.fld is not None]
        if sum(styles) != 1:
            raise ValueError(
                "give exactly one of cases=, case=+ligands=, fld=+ligands=")
        if self.ligands is not None and self.rlig is not None:
            raise ValueError("give ligands= or rlig=, not both")
        if (self.case is not None or self.fld is not None) \
                and not self.ligands and self.rlig is None:
            raise ValueError("ligand file list must not be empty")
        self._rlig_index: list[dict] | None = None
        if self.rlig is not None:
            from repro.serve.cache import open_rlig
            self._rlig_index = list(open_rlig(self.rlig).index)
            if not self._rlig_index:
                raise ValueError(f"ligand pack {self.rlig} is empty")
        if self.priorities is not None \
                and len(self.priorities) != self._n_entries():
            raise ValueError("priorities length must match the library")

    def _n_entries(self) -> int:
        if self.cases is not None:
            return len(self.cases)
        if self._rlig_index is not None:
            return len(self._rlig_index)
        return len(self.ligands)

    # ------------------------------------------------------------------

    def _specs(self) -> list[tuple[str, dict]]:
        """(label, spec) per library entry, with content digests stamped."""
        out: list[tuple[str, dict]] = []
        if self.cases is not None:
            for name in self.cases:
                out.append((name, {"kind": "case", "case": name}))
            return self._with_chaos(out)
        fld_digest = maps_digest(self.fld) if self.fld is not None else None
        if self._rlig_index is not None:
            pack = str(self.rlig)
            for i, ent in enumerate(self._rlig_index):
                spec = {"kind": "rlig", "pack": pack, "index": i,
                        "ligand_sha256": ent["sha256"]}
                if self.case is not None:
                    spec["case"] = self.case
                else:
                    spec["fld"] = str(self.fld)
                    spec["fld_sha256"] = fld_digest
                out.append((ent["name"], spec))
            return self._with_chaos(out)
        for path in self.ligands:
            path = str(path)
            label = Path(path).stem
            lig_digest = file_sha256(path)
            if self.case is not None:
                out.append((label, {
                    "kind": "case-ligand", "case": self.case,
                    "ligand": path, "ligand_sha256": lig_digest}))
            else:
                out.append((label, {
                    "kind": "files", "fld": str(self.fld),
                    "fld_sha256": fld_digest,
                    "ligand": path, "ligand_sha256": lig_digest}))
        return self._with_chaos(out)

    def _with_chaos(self, specs: list[tuple[str, dict]]
                    ) -> list[tuple[str, dict]]:
        if not self.chaos:
            return specs
        return [(label, {**spec, **self.chaos.get(label, {})})
                for label, spec in specs]

    def jobs(self) -> list[DockingJob]:
        """One content-addressed job per library entry."""
        jobs = []
        # Seed streams are spawned per unique *content*, not per list
        # position, so byte-identical duplicate ligands share one seed
        # (and thus one job id — :meth:`run` dedups them).
        stream_index: dict[str, int] = {}
        for k, (label, spec) in enumerate(self._specs()):
            key = json.dumps(canonical_spec(spec), sort_keys=True)
            i = stream_index.setdefault(key, len(stream_index))
            jobs.append(DockingJob(
                spec=spec, config=self.config, n_runs=self.n_runs,
                seed=spawn_seed(self.seed, i),
                priority=(self.priorities[k]
                          if self.priorities is not None else 0),
                label=label))
        return jobs

    # ------------------------------------------------------------------

    def run(self, workers: int = 2,
            manifest: str | Path | None = None,
            resume: bool = False,
            stream=None,
            retries: int = 2,
            backoff: float = 0.25,
            job_wall_seconds: float | None = None,
            lease_seconds: float | None = None,
            cache_bytes: int = DEFAULT_CAPACITY,
            include_history: bool = False,
            trace: str | Path | None = None,
            cohort_size: int = 1,
            retry_dead: bool = False,
            heartbeat_seconds: float | None = None,
            manifest_shards: int = 1,
            store: str | Path | None = None) -> ScreenReport:
        """Execute the screen; returns the final :class:`ScreenReport`.

        ``cohort_size > 1`` packs compatible jobs into lock-step cohorts
        of up to that many ligands (:func:`repro.serve.queue.pack_cohorts`)
        before dispatch; results stay keyed — and bit-identical — per
        ligand, so manifests, resume and dedup are unaffected by packing.

        ``manifest`` names the manifest log directory
        (:class:`~repro.serve.manifest.ShardedManifest`): every terminal
        :class:`JobResult` is appended to it as it arrives, before
        ``stream`` sees it, so a killed screen loses at most the jobs in
        flight; ``resume=True`` reloads it and skips every job whose id
        is already terminal — identical inputs do zero new docking
        work.  Dead-letter records (``status="dead"``) are kept terminal
        on resume; ``retry_dead=True`` (the ``--retry-dead`` CLI flag)
        drops them from the loaded manifest so those jobs are
        re-admitted with a fresh retry budget.  ``stream(result)`` is
        called per terminal :class:`JobResult` as it arrives.  ``trace``
        names a JSONL event log: the parent *and every worker* append
        spans/events to it (``repro stats <log>`` renders the summary
        afterwards).

        ``manifest_shards`` is the log's shard count when the run
        creates it (an existing manifest keeps its own, so resumes stay
        stable): one append-only NDJSON file per content-hash shard, so
        appending a result is O(record), not O(screen).
        ``tools/merge_manifests.py`` merges and ranks logs.

        ``store`` names a shared disk cache tier root
        (:class:`~repro.serve.store.BlobStore`): workers front their
        in-memory caches with content-addressed mmap-able blobs, so a
        warm store serves grids with zero text parsing or flat-buffer
        rebuilds, across processes and across screens.
        """
        if resume and manifest is None:
            raise ValueError("resume=True requires a manifest path")
        t0 = time.monotonic()

        if trace is not None:
            tracer = configure(trace, source="main")
        else:
            tracer = get_tracer()
        try:
            results: dict[str, JobResult] = {}
            if resume and manifest is not None and Path(manifest).exists():
                for job_id, rd in load_manifest_jobs(manifest).items():
                    prior = JobResult.from_dict(rd)
                    if prior.status in ("ok", "cached"):
                        prior.status = "cached"
                        results[prior.job_id] = prior
                    elif prior.status in ("dead", "failed") and not retry_dead:
                        # dead letters are terminal: resuming must not retry
                        # a job that already exhausted its budget unless the
                        # operator explicitly re-admits it
                        results[prior.job_id] = prior
            log = (ShardedManifest(manifest, n_shards=manifest_shards)
                   if manifest is not None else None)

            span = tracer.span("screen.run", workers=workers, resume=resume)
            pool = None
            new_results: list[JobResult] = []
            # the log's handles close even when a consumer raises mid-screen
            with span, (nullcontext() if log is None else log):
                with tracer.span("screen.build_queue"):
                    jobs = self.jobs()
                    unique: dict[str, DockingJob] = {}
                    for job in jobs:                 # same content, one job
                        unique.setdefault(job.job_id, job)
                    # lower priority first; sorted() keeps library order
                    to_run = sorted((job for job_id, job in unique.items()
                                     if job_id not in results),   # resumed
                                    key=lambda job: job.priority)
                    queue = {"submitted": len(unique),
                             "deduped": len(jobs) - len(unique),
                             "skipped": len(unique) - len(to_run)}
                    if cohort_size > 1:
                        # pack after dedup/skip so cached work never rides
                        # along in a cohort
                        to_run = pack_cohorts(to_run, cohort_size)
                tracer.event("queue.stats", **queue)

                def publish(result: JobResult, _rec: dict) -> None:
                    results[result.job_id] = result
                    new_results.append(result)
                    if log is not None and len(new_results) % 100 == 0:
                        log.write_meta(self._screen_header(), self._stats(
                            results, new_results, queue, t0, workers, pool))
                    if stream is not None:
                        stream(result)

                if to_run:
                    pool_kwargs = dict(
                        workers=workers, retries=retries, backoff=backoff,
                        job_wall_seconds=job_wall_seconds,
                        lease_seconds=lease_seconds, cache_bytes=cache_bytes,
                        include_history=include_history,
                        store_root=(str(store) if store is not None else None),
                        trace_path=(str(trace) if trace is not None
                                    else None))
                    if heartbeat_seconds is not None:
                        pool_kwargs["heartbeat_seconds"] = heartbeat_seconds
                    pool = WorkerPool(**pool_kwargs)
                    try:
                        run_batch(pool, to_run, publish, log=log)
                    finally:
                        pool.close()
                span.set(jobs_total=len(results),
                         jobs_new=len(new_results),
                         jobs_dead=sum(1 for r in new_results
                                       if r.status == "dead"))

            report = ScreenReport(
                results=results,
                ranking=rank_records(r.to_dict() for r in results.values()),
                stats=self._stats(results, new_results, queue, t0, workers,
                                  pool),
                manifest_path=str(manifest) if manifest is not None else None)
            if log is not None:
                log.write_meta(self._screen_header(), report.stats)
                log.compact()
            return report
        finally:
            # a tracer this screen installed must not outlive it: a later
            # untraced run in the process would append to this log
            if trace is not None and get_tracer() is tracer:
                disable()

    # ------------------------------------------------------------------

    @staticmethod
    def _stats(results, new_results, queue: dict, t0: float,
               workers: int, pool: WorkerPool | None) -> dict:
        wall = time.monotonic() - t0
        cache = {"hits": 0, "misses": 0, "evictions": 0, "races": 0,
                 "disk_hits": 0, "disk_misses": 0, "disk_writes": 0}
        for r in new_results:
            if r.cache:
                for key in cache:
                    cache[key] += r.cache.get(key, 0)
        lookups = cache["hits"] + cache["misses"]
        cache["hit_rate"] = cache["hits"] / lookups if lookups else 0.0
        n_new = sum(1 for r in new_results if r.status == "ok")
        return {
            "workers": workers,
            "wall_seconds": wall,
            "jobs_total": len(results),
            "jobs_completed": n_new,
            "jobs_cached": sum(1 for r in results.values()
                               if r.status == "cached"),
            # jobs_failed counts every terminal failure (legacy "failed"
            # plus dead-letter records) for manifest compatibility;
            # jobs_dead counts the dead-letter subset
            "jobs_failed": sum(1 for r in results.values()
                               if r.status in ("failed", "dead")),
            "jobs_dead": sum(1 for r in results.values()
                             if r.status == "dead"),
            "jobs_per_second": n_new / wall if wall > 0 else 0.0,
            "queue": dict(queue),
            "cache": cache,
            # pool-side fault counters
            "pool": ({} if pool is None else
                     {"quarantines": pool.quarantines,
                      "dead_letters": len(pool.dead_letters),
                      "workers_replaced": pool.workers_replaced}),
            # last heartbeat per worker: liveness, job counts and cache
            # stats for the manifest
            "heartbeats": ({} if pool is None else
                           {str(k): v for k, v in pool.heartbeats.items()}),
        }

    def _screen_header(self) -> dict:
        return {"seed": self.seed, "n_runs": self.n_runs,
                "config": self.config.to_dict(),
                "written_at": time.time()}
