"""Content-addressed docking jobs, cohort packing and shard partitioning.

A :class:`DockingJob` is the unit of work of the service layer: one
(case, config, seed, n_runs) tuple, content-addressed by the SHA-256 of
its canonical JSON payload — two submissions of the same work share one
job id and run once.  :func:`pack_cohorts` packs compatible jobs into
lock-step :class:`CohortJob` batches; both expose their members as
``jobs`` (a job is a unit of one), and :func:`shard_for` maps a job id
onto its content-hash shard.  Nothing here queues: a screen hands its
whole job list to :func:`repro.serve.pool.run_batch`, and the gateway's
:class:`~repro.gateway.scheduler.SLOScheduler` holds its tenant queues.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import DockingConfig
from repro.serve.cache import LigandShape, ligand_shape

__all__ = ["DockingJob", "CohortJob", "canonical_spec", "pack_cohorts",
           "spawn_seed", "seed_from_spec", "shard_for", "shard_ranges",
           "shard_key", "SHARD_KEY_BITS"]

# ---------------------------------------------------------------------------
# content-hash shard partitioning
#
# A shard owns a contiguous, disjoint range of the 32-bit key space carved
# out of the job's content hash.  The partition is a pure function of the
# job id string, so every process — gateway front-end, shard pools on this
# or any other host, a resuming manifest reader — computes the same
# assignment without coordination, and dedup/idempotent-completion
# semantics survive sharding: one job id maps to exactly one shard.

#: width of the shard key sliced off the front of the SHA-256 job id
SHARD_KEY_BITS = 32

_SHARD_SPACE = 1 << SHARD_KEY_BITS


def shard_key(job_id: str) -> int:
    """The 32-bit partition key of a content-hash job id.

    The leading 8 hex digits of the SHA-256 are uniform over the key
    space, so equal-width ranges receive equal expected load.
    """
    return int(job_id[: SHARD_KEY_BITS // 4], 16)


def shard_ranges(n_shards: int) -> list[tuple[int, int]]:
    """Disjoint half-open key ranges ``[lo, hi)`` covering the space.

    The ``2**32 % n_shards`` remainder keys go one-apiece to the lowest
    shards, so ranges differ in width by at most one key.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    span, extra = divmod(_SHARD_SPACE, n_shards)
    ranges, lo = [], 0
    for i in range(n_shards):
        hi = lo + span + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def shard_for(job_id: str, n_shards: int) -> int:
    """Which shard owns ``job_id`` — the arithmetic inverse of
    :func:`shard_ranges`, O(1) per lookup."""
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    key = shard_key(job_id)
    span, extra = divmod(_SHARD_SPACE, n_shards)
    wide = extra * (span + 1)           # keys held by the widened shards
    if key < wide:
        return key // (span + 1)
    return extra + (key - wide) // span


def canonical_spec(spec: dict) -> dict:
    """The identity-bearing part of a job spec.

    File paths are transport, content digests are identity: when a spec
    carries ``ligand_sha256``/``fld_sha256``, the corresponding path is
    dropped so the same bytes under two names hash to the same job.  A
    ``"rlig"`` spec (ligand streamed from a binary pack) likewise drops
    the pack path and record offset: identity is the record's content
    digest, so repacking the library — different pack file, different
    record order — preserves every job id and manifests resume across
    repacks.
    """
    out = dict(spec)
    if "ligand_sha256" in out:
        out.pop("ligand", None)
        if out.get("kind") == "rlig":
            out.pop("pack", None)
            out.pop("index", None)
            out["kind"] = "files" if "fld" in out or "fld_sha256" in out \
                else "case-ligand"
    if "fld_sha256" in out:
        out.pop("fld", None)
    return out


def spawn_seed(entropy: int, index: int) -> dict:
    """JSON-able per-job seed spec under the entropy-spawn contract.

    Encodes ``SeedSequence(entropy=entropy, spawn_key=(index,))`` — the
    collision-free way to give every job of a screen its own stream (see
    the seeding contract in :mod:`repro.core.config`).
    """
    return {"entropy": int(entropy), "spawn_key": [int(index)]}


def seed_from_spec(seed: int | dict) -> int | np.random.SeedSequence:
    """Materialise a job seed: plain ints pass through, spawn specs
    become the :class:`numpy.random.SeedSequence` they encode."""
    if isinstance(seed, dict):
        return np.random.SeedSequence(
            entropy=int(seed["entropy"]),
            spawn_key=tuple(int(k) for k in seed["spawn_key"]))
    return int(seed)


@dataclass(frozen=True)
class DockingJob:
    """One unit of docking work, content-addressed via :attr:`job_id`.

    Parameters
    ----------
    spec:
        What to dock — see :func:`repro.serve.cache.load_case` for the
        recognised kinds.
    config:
        Full engine configuration.
    n_runs:
        LGA runs for this job.
    seed:
        Plain int or a :func:`spawn_seed` spec (JSON-able either way).
    priority:
        Lower runs first (unix-nice convention), then arrival order — in
        a screen and in each gateway tenant queue alike.
    label:
        Human-readable tag for logs/manifests (not part of the hash —
        the same work under two labels is still the same work).
    """

    spec: dict
    config: DockingConfig = field(default_factory=DockingConfig)
    n_runs: int = 4
    seed: int | dict = 0
    priority: int = 0
    label: str = ""

    @property
    def jobs(self) -> tuple["DockingJob"]:
        """The unit's members: a job is a unit of one, as a
        :class:`CohortJob` is a unit of its members."""
        return (self,)

    @property
    def job_id(self) -> str:
        """SHA-256 of the canonical job payload (spec+config+runs+seed)."""
        payload = json.dumps(
            {"spec": canonical_spec(self.spec),
             "config": self.config.to_dict(),
             "n_runs": self.n_runs, "seed": self.seed},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_dict(self) -> dict:
        return {"spec": dict(self.spec), "config": self.config.to_dict(),
                "n_runs": self.n_runs, "seed": self.seed,
                "priority": self.priority, "label": self.label}

    @classmethod
    def from_dict(cls, d: dict) -> "DockingJob":
        return cls(spec=dict(d["spec"]),
                   config=DockingConfig.from_dict(d["config"]),
                   n_runs=int(d["n_runs"]), seed=d["seed"],
                   priority=int(d.get("priority", 0)),
                   label=d.get("label", ""))


@dataclass(frozen=True)
class CohortJob:
    """A batch of :class:`DockingJob` members docked as one packed cohort.

    Members must share an identical engine configuration and run count
    (the lock-step cohort engine advances all ligands under one budget);
    each keeps its own spec, seed and label, and its result is
    bit-identical to running the member job alone.  The cohort id hashes
    the *ordered* member ids — the same ligands packed differently are
    different work units, but every member result is keyed by the member's
    own content hash, so caches and manifests see through the packing.
    """

    jobs: tuple[DockingJob, ...]
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "jobs", tuple(self.jobs))
        if not self.jobs:
            raise ValueError("cohort must have at least one member")
        head = self.jobs[0]
        for job in self.jobs[1:]:
            if (job.config.to_dict() != head.config.to_dict()
                    or job.n_runs != head.n_runs):
                raise ValueError(
                    "cohort members must share config and n_runs")

    @property
    def config(self) -> DockingConfig:
        return self.jobs[0].config

    @property
    def n_runs(self) -> int:
        return self.jobs[0].n_runs

    @property
    def priority(self) -> int:
        return min(job.priority for job in self.jobs)

    @property
    def job_id(self) -> str:
        payload = json.dumps(
            {"cohort": [job.job_id for job in self.jobs]},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_dict(self) -> dict:
        return {"cohort": [job.to_dict() for job in self.jobs],
                "label": self.label}

    @classmethod
    def from_dict(cls, d: dict) -> "CohortJob":
        return cls(jobs=tuple(DockingJob.from_dict(j)
                              for j in d["cohort"]),
                   label=d.get("label", ""))


def _shape_key(job: DockingJob) -> LigandShape:
    try:
        return ligand_shape(job.spec)
    except (OSError, LookupError, TypeError, ValueError):
        # unreadable: it packs last, and fails in its worker like any
        # job whose ligand cannot be loaded
        return LigandShape(0, 0, 0)


def pack_cohorts(jobs: list[DockingJob],
                 cohort_size: int) -> list[DockingJob | CohortJob]:
    """Bucket jobs into shape-sorted cohorts of ``cohort_size``.

    Jobs are grouped by priority and (config, n_runs) — a cohort must
    share the last two, and must not carry a job ahead of its priority
    level.  Each group is sorted by :func:`~repro.serve.cache
    .ligand_shape`, largest first (a stable sort: equal shapes keep
    arrival order), and chunked in that order, so each cohort packs
    ligands of similar size and pays little padding for the lock-step
    engine's largest member (``LigandPack.pad_ratio``).  Pool workers
    pull from one shared task queue, so this is longest-job-first: the
    biggest cohort starts first and a short leftover chunk of the
    smallest ligands runs last.  Groups are emitted lowest priority
    first, groups of one priority in arrival order.  Leftover chunks of
    one stay plain :class:`DockingJob`; results are keyed per member.
    """
    if cohort_size <= 1 or len(jobs) <= 1:
        return list(jobs)
    groups: dict[tuple[int, str], list[DockingJob]] = {}
    for job in jobs:
        key = json.dumps({"config": job.config.to_dict(),
                          "n_runs": job.n_runs},
                         sort_keys=True, separators=(",", ":"))
        groups.setdefault((job.priority, key), []).append(job)
    out: list[DockingJob | CohortJob] = []
    for _, members in sorted(groups.items(), key=lambda kv: kv[0][0]):
        members.sort(key=_shape_key, reverse=True)
        for i in range(0, len(members), cohort_size):
            chunk = members[i:i + cohort_size]
            if len(chunk) == 1:
                out.append(chunk[0])
            else:
                out.append(CohortJob(
                    jobs=tuple(chunk),
                    label=f"cohort[{chunk[0].label}..{chunk[-1].label}]"))
    return out
