"""SLO-driven, cost-model-aware scheduling for the serving gateway.

The scheduler sits between HTTP admission and the per-shard worker
pools.  Every decision it makes is driven by *predicted* wall time from
the calibrated :class:`~repro.simt.predictor.RuntimePredictor` — the
paper's cost model closed into a serving control loop:

* **admission control** — a job whose predicted completion time
  (current shard backlog drained at the shard's worker count, plus the
  job itself) exceeds the service SLO or the caller's deadline is
  rejected up front with a structured :class:`AdmissionError` (the
  429 payload the gateway returns), instead of being accepted and
  missing its deadline quietly;
* **shard routing** — ``route="hash"`` uses the content-hash partition
  (:func:`repro.serve.queue.shard_for`: stateless, coordination-free,
  dedup-preserving); ``route="packed"`` bin-packs *new* job ids onto the
  least-loaded shard by predicted backlog while keeping a sticky
  ``job_id -> shard`` map so a resubmitted id still lands on the shard
  that owns it (idempotent completion survives either mode);
* **fairness** — per-shard weighted deficit round-robin across tenants:
  each round credits every backlogged tenant ``quantum × weight``
  seconds of predicted runtime and serves jobs while the tenant's
  deficit covers them, so a tenant flooding the queue with heavy jobs
  cannot starve light interactive traffic.  Within a tenant, lower
  ``priority`` runs first, then arrival order — the rule a screen
  follows too;
* **autoscaling** — :meth:`desired_workers` sizes each shard's pool to
  drain its predicted backlog within ``drain_target_s`` (clamped to
  ``[min_workers, max_workers]``); the gateway applies it between
  batches.

All state is guarded by one lock: the asyncio front-end and the shard
runner threads call in concurrently.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.obs import get_tracer
from repro.serve.queue import DockingJob, shard_for

__all__ = ["AdmissionError", "ScheduledJob", "SLOScheduler"]


class AdmissionError(RuntimeError):
    """Structured rejection: predicted completion breaks the SLO (the
    gateway's 429), or the job's ligand cannot be read (``reason
    "unreadable"``: a 422, since no retry can help).

    ``payload`` is the JSON body the gateway returns; ``retry_after_s``
    estimates when resubmission would be admitted (backlog drained down
    to where the job fits); ``detail`` says why the ligand is unreadable.
    """

    def __init__(self, job_id: str, shard: int, reason: str,
                 predicted_s: float, backlog_s: float, limit_s: float,
                 retry_after_s: float, detail: str | None = None) -> None:
        super().__init__(
            f"job {job_id[:12]} rejected ({reason}): {detail}"
            if detail is not None else
            f"job {job_id[:12]} rejected ({reason}): predicted "
            f"{backlog_s:.2f}s backlog + {predicted_s:.2f}s job "
            f"> {limit_s:.2f}s limit")
        # non-finite fields (an unpredictable job's NaN estimate) become
        # null in the payload — the body must stay strict-JSON clean
        self.payload = {
            "error": "admission_rejected",
            "reason": reason,
            "job_id": job_id,
            "shard": shard,
            "predicted_seconds": _finite_or_none(predicted_s),
            "backlog_seconds": _finite_or_none(backlog_s),
            "limit_seconds": _finite_or_none(limit_s),
            "retry_after_s": _finite_or_none(retry_after_s),
        }
        if detail is not None:
            self.payload["detail"] = detail


def _finite_or_none(value: float | None) -> float | None:
    if value is None or not math.isfinite(value):
        return None
    return float(value)


@dataclass
class ScheduledJob:
    """A job admitted into a shard's tenant queue."""

    job: DockingJob
    tenant: str
    predicted_s: float
    admitted_at: float = field(default_factory=time.monotonic)


class _ShardState:
    """Per-shard scheduler state: tenant queues + WDRR bookkeeping.

    A tenant queue is a heap of ``(priority, arrival, job)``: lower
    priority first, then arrival order.
    """

    def __init__(self) -> None:
        self.queues: dict[str, list[tuple[int, int, ScheduledJob]]] = {}
        self.deficits: dict[str, float] = {}
        self.rotation: deque[str] = deque()   # tenant service order
        self.backlog_s = 0.0                  # predicted queued + running
        self.queued = 0
        self._arrivals = itertools.count()

    def enqueue(self, item: ScheduledJob) -> None:
        q = self.queues.get(item.tenant)
        if q is None:
            q = self.queues[item.tenant] = []
            self.deficits.setdefault(item.tenant, 0.0)
            self.rotation.append(item.tenant)
        heapq.heappush(q, (item.job.priority, next(self._arrivals), item))
        self.queued += 1
        self.backlog_s += item.predicted_s


class SLOScheduler:
    """Admission + fairness + routing over ``n_shards`` shard queues.

    Parameters
    ----------
    n_shards:
        Shard count of the gateway's pool fleet.
    predictor:
        :class:`~repro.simt.predictor.RuntimePredictor` used for every
        admission and packing decision.
    slo_seconds:
        Service-level objective on submit→result latency.  ``None``
        disables the global SLO (deadlines still apply).
    route:
        ``"hash"`` (content-hash partition, default) or ``"packed"``
        (least-predicted-backlog for new ids, sticky thereafter).
    quantum_s:
        WDRR quantum: predicted seconds credited per round to a
        weight-1.0 tenant.
    tenant_weights:
        ``tenant -> weight`` fairness shares (default 1.0 each).
    workers:
        Initial worker count per shard (``0`` counts as 1 for drain-rate
        math: inline execution still executes).
    min_workers / max_workers:
        Autoscale clamp for :meth:`desired_workers`.
    drain_target_s:
        Autoscale target: size each pool to drain its predicted backlog
        within this many seconds.
    clock:
        Injectable monotonic clock (tests).
    """

    def __init__(self, n_shards: int, predictor,
                 slo_seconds: float | None = None,
                 route: str = "hash",
                 quantum_s: float = 1.0,
                 tenant_weights: dict[str, float] | None = None,
                 workers: int = 1,
                 min_workers: int = 1,
                 max_workers: int = 8,
                 drain_target_s: float = 30.0,
                 clock=time.monotonic) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if route not in ("hash", "packed"):
            raise ValueError(f"unknown route {route!r}; "
                             f"expected 'hash' or 'packed'")
        if quantum_s <= 0:
            raise ValueError("quantum_s must be > 0")
        if not 1 <= min_workers <= max_workers:
            raise ValueError("need 1 <= min_workers <= max_workers")
        self.n_shards = n_shards
        self.predictor = predictor
        self.slo_seconds = slo_seconds
        self.route = route
        self.quantum_s = quantum_s
        self.tenant_weights = dict(tenant_weights or {})
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.drain_target_s = drain_target_s
        self._clock = clock
        self._lock = threading.Lock()
        self._shards = [_ShardState() for _ in range(n_shards)]
        #: effective drain parallelism per shard (autoscale updates it)
        self.workers = [max(1, workers)] * n_shards
        #: sticky routing map — an id keeps its shard across resubmits
        self._assigned: dict[str, int] = {}
        self.admitted = 0
        self.rejected = 0
        self.completed = 0
        self.unpredictable = 0

    # ------------------------------------------------------------------
    # prediction

    def predict_seconds(self, job: DockingJob) -> float:
        """Predicted wall seconds of one job on this machine."""
        shape = self.predictor.shape_for_spec(job.spec)
        budget = max(1, job.n_runs) * job.config.lga.max_evals
        return self.predictor.predict_seconds(
            shape, budget, backend=job.config.cost_backend,
            device=job.config.device, block_size=job.config.block_size)

    # ------------------------------------------------------------------
    # routing

    def shard_of(self, job_id: str) -> int:
        """The shard that owns ``job_id`` under the configured route."""
        with self._lock:
            return self._shard_of_locked(job_id)

    def _shard_of_locked(self, job_id: str) -> int:
        hit = self._assigned.get(job_id)
        if hit is not None:
            return hit
        if self.route == "hash":
            return shard_for(job_id, self.n_shards)
        return min(range(self.n_shards),
                   key=lambda i: (self._shards[i].backlog_s, i))

    # ------------------------------------------------------------------
    # admission

    def admit(self, job: DockingJob, tenant: str = "default",
              deadline_s: float | None = None) -> tuple[int, float]:
        """Admit or reject one job; returns ``(shard, predicted_s)``.

        Raises :class:`AdmissionError` when the predicted completion
        time (shard backlog at current parallelism + the job itself)
        exceeds the tighter of the service SLO and the caller deadline;
        with reason ``"unreadable"`` when the job's ligand cannot be
        read to price it (a missing or malformed file, an unknown spec
        kind); or with reason ``"unpredictable"`` when the predictor
        returns a non-finite estimate — NaN would pass every limit
        comparison and poison the shard's backlog.  :attr:`unpredictable`
        counts each such job.
        """
        unreadable = None
        try:
            predicted = self.predict_seconds(job)
        except (OSError, LookupError, TypeError, ValueError) as exc:
            predicted, unreadable = math.nan, f"{type(exc).__name__}: {exc}"
        job_id = job.job_id
        with self._lock:
            shard = self._shard_of_locked(job_id)
            state = self._shards[shard]
            wait = state.backlog_s / max(1, self.workers[shard])
            if not math.isfinite(predicted):
                reason = "unreadable" if unreadable else "unpredictable"
                if not unreadable:
                    self.unpredictable += 1
                self.rejected += 1
                limit = (self.slo_seconds if deadline_s is None
                         else deadline_s if self.slo_seconds is None
                         else min(self.slo_seconds, deadline_s))
                get_tracer().event(
                    "gateway.reject", job_id=job_id, shard=shard,
                    tenant=tenant, reason=reason,
                    predicted_s=None, backlog_s=wait, limit_s=limit)
                raise AdmissionError(
                    job_id, shard, reason, predicted, wait,
                    limit if limit is not None else math.inf,
                    math.nan if unreadable else 0.0, detail=unreadable)
            total = wait + predicted
            limits = [("slo", self.slo_seconds),
                      ("deadline", deadline_s)]
            for reason, limit in limits:
                if limit is not None and total > limit:
                    self.rejected += 1
                    retry_after = max(0.0, total - limit)
                    get_tracer().event(
                        "gateway.reject", job_id=job_id, shard=shard,
                        tenant=tenant, reason=reason,
                        predicted_s=predicted, backlog_s=wait,
                        limit_s=limit)
                    raise AdmissionError(
                        job_id, shard, reason, predicted, wait, limit,
                        retry_after)
            self._assigned[job_id] = shard
            state.enqueue(ScheduledJob(job=job, tenant=tenant,
                                       predicted_s=predicted,
                                       admitted_at=self._clock()))
            self.admitted += 1
            get_tracer().event("gateway.admit", job_id=job_id,
                               shard=shard, tenant=tenant,
                               predicted_s=predicted, backlog_s=wait)
            return shard, predicted

    # ------------------------------------------------------------------
    # service order (weighted deficit round-robin)

    def next_batch(self, shard: int, max_jobs: int | None = None
                   ) -> list[ScheduledJob]:
        """Pop the next fair batch of jobs for ``shard`` (may be empty).

        One WDRR round: every backlogged tenant's deficit grows by
        ``quantum_s × weight`` and jobs are served head-first (lowest
        priority, then earliest) while the deficit covers their
        predicted runtime (always at least one job per non-empty round,
        so an over-quantum job cannot wedge its tenant).  Predicted
        backlog stays charged until :meth:`job_done` — an in-flight job
        still occupies its shard for admission math.
        """
        out: list[ScheduledJob] = []
        with self._lock:
            state = self._shards[shard]
            if not state.queued:
                return out
            for _ in range(len(state.rotation)):
                tenant = state.rotation[0]
                state.rotation.rotate(-1)
                q = state.queues.get(tenant)
                if not q:
                    continue
                weight = float(self.tenant_weights.get(tenant, 1.0))
                state.deficits[tenant] += self.quantum_s * weight
                served_any = False
                while q and (state.deficits[tenant] >= q[0][2].predicted_s
                             or not served_any):
                    item = heapq.heappop(q)[2]
                    state.deficits[tenant] = max(
                        0.0, state.deficits[tenant] - item.predicted_s)
                    state.queued -= 1
                    served_any = True
                    out.append(item)
                    if max_jobs is not None and len(out) >= max_jobs:
                        break
                if not q:
                    state.deficits[tenant] = 0.0   # idle tenants reset
                if max_jobs is not None and len(out) >= max_jobs:
                    break
        return out

    def job_done(self, shard: int, predicted_s: float) -> None:
        """Release a completed job's predicted backlog charge."""
        with self._lock:
            state = self._shards[shard]
            state.backlog_s = max(0.0, state.backlog_s - predicted_s)
            self.completed += 1

    # ------------------------------------------------------------------
    # autoscaling

    def desired_workers(self, shard: int) -> int:
        """Pool size that drains the shard within ``drain_target_s``."""
        with self._lock:
            backlog = self._shards[shard].backlog_s
        want = math.ceil(backlog / max(self.drain_target_s, 1e-9))
        return max(self.min_workers, min(self.max_workers, max(1, want)))

    def apply_autoscale(self, shard: int) -> int:
        """Set and return the shard's worker count from predicted load."""
        want = self.desired_workers(shard)
        with self._lock:
            have = self.workers[shard]
            if want != have:
                self.workers[shard] = want
                get_tracer().event("gateway.autoscale", shard=shard,
                                   workers_from=have, workers_to=want)
        return want

    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Scheduler state for ``/v1/stats`` and the trace log."""
        with self._lock:
            shards = []
            for i, s in enumerate(self._shards):
                shards.append({
                    "shard": i,
                    "queued": s.queued,
                    "predicted_backlog_s": s.backlog_s,
                    "workers": self.workers[i],
                    "tenants": {t: len(q)
                                for t, q in s.queues.items() if q},
                })
            return {"n_shards": self.n_shards,
                    "route": self.route,
                    "slo_seconds": self.slo_seconds,
                    "admitted": self.admitted,
                    "rejected": self.rejected,
                    "completed": self.completed,
                    "unpredictable": self.unpredictable,
                    "shards": shards}
