"""Sharded virtual-screening service layer.

Turns the one-shot :class:`~repro.core.engine.DockingEngine` into a
multi-process screening pipeline, the deployment shape the paper's
throughput argument is about (screening large ligand libraries):

* :mod:`repro.serve.queue` — content-addressed :class:`DockingJob`
  units, lock-step cohort packing (:func:`pack_cohorts`) and the
  content-hash shard partition (:func:`shard_for`);
* :mod:`repro.serve.cache` — per-worker content-addressed LRU
  :class:`ContentCache` so a screen parses its receptor grids once, not
  once per ligand;
* :mod:`repro.serve.ledger` — the I/O-free :class:`JobLedger`, the one
  completion state machine (retries, cohort splits, quarantine
  re-dispatch, dead letters) behind both pool executors;
* :mod:`repro.serve.pool` — :func:`execute_job`, the one executor of
  every work unit (a job is a cohort of one), the long-lived,
  spawn-safe multiprocessing :class:`WorkerPool` with crash recovery,
  watchdog timeouts and retry-with-backoff, and :func:`run_batch`, the
  one dispatch loop (jobs → pool → manifest log → publish) that
  screens and gateway shards share;
* :mod:`repro.serve.manifest` — the append-only NDJSON manifest log
  (:class:`ShardedManifest`) and the one ranking, :func:`rank_records`;
* :mod:`repro.serve.screen` — the high-level :class:`VirtualScreen` API:
  streamed :class:`JobResult` records, a resumable manifest log and a
  ranked hit list (also the ``screen`` CLI subcommand).
"""

from repro.serve.cache import ContentCache, file_sha256, maps_digest
from repro.serve.ledger import JobLedger
from repro.serve.manifest import (ShardedManifest, atomic_write_json,
                                  load_manifest_jobs, rank_records)
from repro.serve.pool import (DEFAULT_HEARTBEAT_SECONDS, JobResult,
                              WorkerPool, execute_job, run_batch,
                              validate_result_payload)
from repro.serve.store import BlobStore
from repro.serve.queue import (
    CohortJob,
    DockingJob,
    pack_cohorts,
    seed_from_spec,
    shard_for,
    shard_key,
    shard_ranges,
    spawn_seed,
)
from repro.serve.screen import ScreenReport, VirtualScreen

__all__ = [
    "BlobStore",
    "CohortJob",
    "ContentCache",
    "DEFAULT_HEARTBEAT_SECONDS",
    "DockingJob",
    "JobLedger",
    "JobResult",
    "ScreenReport",
    "ShardedManifest",
    "VirtualScreen",
    "WorkerPool",
    "atomic_write_json",
    "execute_job",
    "file_sha256",
    "load_manifest_jobs",
    "maps_digest",
    "pack_cohorts",
    "rank_records",
    "run_batch",
    "seed_from_spec",
    "shard_for",
    "shard_key",
    "shard_ranges",
    "spawn_seed",
    "validate_result_payload",
]
