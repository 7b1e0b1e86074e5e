"""`JobLedger`: the worker pool's completion state machine, free of I/O.

Both :class:`~repro.serve.pool.WorkerPool` executors — inline
(``workers=0``) and process — feed the same ledger, so every retry,
split, quarantine re-dispatch and dead-letter decision, every attempt
count and every terminal :class:`JobResult` is made here, once.

Events go in, each stamped with the caller's clock (``now``, monotonic
seconds):

* :meth:`JobLedger.started` — a worker took a job (one attempt);
* :meth:`JobLedger.done` — it returned a payload (validated here): the
  one shape :func:`~repro.serve.pool.execute_job` returns for every
  unit, ``{"members": [{"job_id", "label", "payload"}, ...], ...}``;
* :meth:`JobLedger.failed` — it raised (an error dict);
* :meth:`JobLedger.crashed` — it died; an expired lease is a crash too
  (the executor kills the worker and reports it).

Actions come out, in order: :class:`Dispatch` (queue this job at time
``at``), :class:`Note` (a trace event for the executor to record) and
terminal :class:`JobResult` records (``status="ok"`` or ``"dead"``).

Rules, one per case:

* **Exactly once.** A job id yields one terminal result; events for
  terminal or unknown ids change nothing, and an attempt ends once: a
  failure or crash counts only while that worker runs the job, whereas
  a valid result completes the job from any worker.
* **A backoff never blocks another ready job.** A retry is a
  :class:`Dispatch` due ``backoff * 2**(attempts - 1)`` seconds later;
  the executor runs every job due earlier first.
* **Rules follow the unit's kind, not its size.** A plain
  :class:`DockingJob` validates its one member's payload (finite scores
  first, then quarantine) and retries or dead-letters within its
  budget.  A :class:`CohortJob` of any size, one member included,
  completes partially: quarantined and corrupt members go out alone.
* **Corrupt results are always counted.** A member payload that fails
  :func:`validate_result_payload` — or is missing — is a
  ``job.corrupt_result`` note and a failed attempt, never a completion.
* **Budgets.** A job is retried while ``attempts <= retries`` and its
  error is retryable (crashes always are; watchdog timeouts are not),
  so ``attempts <= retries + 1``.  A cohort that fails or crashes splits
  once into its members, and members of a split or quarantined cohort
  start a fresh per-member budget: they never ran solo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.serve.queue import CohortJob, DockingJob

__all__ = ["Dispatch", "JobLedger", "JobResult", "Note",
           "validate_result_payload"]


@dataclass
class JobResult:
    """Terminal record of one job (streamed and manifest-persisted)."""

    job_id: str
    label: str
    status: str                       # "ok" | "failed" | "dead" | "cached"
    attempts: int = 1
    worker_id: int | None = None
    wall_seconds: float = 0.0
    #: serialized :class:`~repro.core.engine.DockingResult` (``ok`` only)
    result: dict | None = None
    #: per-job cache hit/miss/eviction deltas
    cache: dict | None = None
    error: dict | None = None
    extra: dict = field(default_factory=dict)

    @property
    def best_score(self) -> float | None:
        if self.result is None:
            return None
        return min(r["best_score"] for r in self.result["runs"])

    def to_dict(self) -> dict:
        return {"job_id": self.job_id, "label": self.label,
                "status": self.status, "attempts": self.attempts,
                "worker_id": self.worker_id,
                "wall_seconds": self.wall_seconds, "result": self.result,
                "cache": self.cache, "error": self.error,
                "extra": dict(self.extra)}

    @classmethod
    def from_dict(cls, d: dict) -> "JobResult":
        return cls(job_id=d["job_id"], label=d.get("label", ""),
                   status=d["status"], attempts=int(d.get("attempts", 1)),
                   worker_id=d.get("worker_id"),
                   wall_seconds=float(d.get("wall_seconds", 0.0)),
                   result=d.get("result"), cache=d.get("cache"),
                   error=d.get("error"), extra=d.get("extra", {}))


def _member_payloads(payload: dict) -> dict[str, dict]:
    """``job_id -> payload`` of each member an executor payload holds."""
    return {m["job_id"]: m.get("payload")
            for m in payload.get("members") or []}


def _quarantine_of(payload) -> dict | None:
    """The engine's quarantine record in a member payload, if any."""
    result = payload.get("result") if isinstance(payload, dict) else None
    return result.get("quarantine") if isinstance(result, dict) else None


def validate_result_payload(payload: dict) -> dict | None:
    """Parent-side validation of one member's payload (``{"result",
    "wall_seconds"}``); returns an error dict or ``None``.

    A worker can crash, but it can also *lie* — a wedged allocator or an
    injected fault can hand back a structurally-broken or non-finite
    result.  Completion therefore requires the payload to carry a
    non-empty run list with finite best scores; anything else counts as
    a failed (retryable) attempt, never as a completion.  A result the
    engine quarantined (a guard trip under ``fault_policy="raise"``)
    fails too, as a ``LaneQuarantine`` that is not retried: the same job
    trips the same guard again.  The finite-score test runs first, so a
    poisoned job still reports ``NonFiniteResult``.
    """
    result = payload.get("result") if isinstance(payload, dict) else None
    runs = result.get("runs") if isinstance(result, dict) else None
    if not isinstance(runs, list) or not runs:
        return {"error_type": "CorruptResult",
                "message": "result payload has no runs",
                "retryable": True}
    for i, run in enumerate(runs):
        score = run.get("best_score") if isinstance(run, dict) else None
        if not isinstance(score, (int, float)) or not math.isfinite(score):
            return {"error_type": "NonFiniteResult",
                    "message": f"run {i} best_score is {score!r}",
                    "retryable": True}
    q = result.get("quarantine")
    if q is not None:
        return {"error_type": "LaneQuarantine",
                "message": f"{q.get('reason')}: {q.get('detail', '')}",
                "retryable": False}
    return None


@dataclass(frozen=True)
class Dispatch:
    """Action: put ``job`` on the work queue at monotonic time ``at``."""

    job: DockingJob | CohortJob
    at: float
    #: "new" | "retry" | "split" | "quarantine" | "corrupt"
    reason: str = "new"


@dataclass(frozen=True)
class Note:
    """Action: a trace event (name + attributes) for the executor."""

    name: str
    attrs: dict


@dataclass
class _Entry:
    """A live (not yet terminal) work unit."""

    job: DockingJob | CohortJob
    attempts: int = 0
    history: list[dict] = field(default_factory=list)
    #: worker running the current attempt and its start time, if any
    worker: int | None = None
    since: float | None = None


class JobLedger:
    """Completion state of one :meth:`WorkerPool.map` call (see module
    docstring); ``len(ledger)`` counts the live work units."""

    def __init__(self, retries: int = 2, backoff: float = 0.25) -> None:
        self.retries = retries
        self.backoff = backoff
        self._live: dict[str, _Entry] = {}
        #: terminal job ids and resolved cohort ids
        self._finished: set[str] = set()

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._live

    def pending_jobs(self) -> list:
        """Every live work unit (the executor's lost-dispatch backstop)."""
        return [e.job for e in self._live.values()]

    def in_flight(self) -> list[tuple[str, int | None, float]]:
        """``(job_id, worker, started_at)`` of every running attempt."""
        return [(jid, e.worker, e.since) for jid, e in self._live.items()
                if e.since is not None]

    # -- events --------------------------------------------------------

    def submit(self, jobs, now: float) -> list:
        """Admit jobs (content-identical duplicates collapse)."""
        return [Dispatch(job, now) for job in jobs if self._admit(job)]

    def started(self, job_id: str, worker: int | None, now: float) -> list:
        """One attempt begins; ignored while another attempt runs."""
        e = self._live.get(job_id)
        if e is not None and e.since is None:
            e.attempts += 1
            e.worker, e.since = worker, now
        return []

    def done(self, job_id: str, payload: dict, worker: int | None,
             now: float) -> list:
        """A worker returned ``payload``: complete, or fail the attempt."""
        e = self._live.get(job_id)
        if e is None:
            return []
        if isinstance(e.job, CohortJob):
            return self._cohort_done(e, payload, worker, now)
        got = _member_payloads(payload).get(job_id)     # None if missing
        err = validate_result_payload(got)
        if err is None:
            self._resolve(e)
            return [self._complete(e, payload, worker),
                    self._ok(e.job, e.attempts, e.history, got, worker,
                             payload.get("cache"), {}),
                    self._depth()]
        ended = self._ended(job_id, worker, err, now)
        return [self._corrupt(job_id, worker, err)] + ended if ended else []

    def failed(self, job_id: str, error: dict, worker: int | None,
               now: float) -> list:
        """The attempt raised; ``error`` carries ``retryable``."""
        return self._ended(job_id, worker, error, now)

    def crashed(self, job_id: str, worker: int | None, now: float,
                message: str = "worker died") -> list:
        """The worker died mid-attempt (or its lease expired)."""
        return self._ended(job_id, worker, {"error_type": "WorkerCrash",
                                            "message": message,
                                            "retryable": True}, now)

    # -- decisions -----------------------------------------------------

    def _admit(self, job, history: list[dict] | None = None) -> bool:
        if job.job_id in self._live or job.job_id in self._finished:
            return False
        self._live[job.job_id] = _Entry(job, history=list(history or []))
        return True

    def _resolve(self, e: _Entry) -> None:
        del self._live[e.job.job_id]
        self._finished.add(e.job.job_id)

    def _ended(self, job_id: str, worker: int | None, err: dict,
               now: float) -> list:
        """An attempt ended without a result: retry, split or
        dead-letter.  Only the running attempt can end."""
        e = self._live.get(job_id)
        if e is None or e.since is None or e.worker != worker:
            return []
        e.worker, e.since = None, None
        e.history.append({"attempt": e.attempts,
                          "error_type": err.get("error_type"),
                          "message": err.get("message")})
        if isinstance(e.job, CohortJob):
            return self._split(e, err, now)
        return self._retry_or_dead(e, err, worker, now)

    @staticmethod
    def _complete(e: _Entry, payload: dict, worker: int | None,
                  **attrs) -> Note:
        return Note("job.complete", {
            "job_id": e.job.job_id, "label": e.job.label,
            "worker_id": worker, "attempts": max(e.attempts, 1),
            "wall_seconds": payload.get("wall_seconds"),
            "cache": payload.get("cache"), **attrs})

    @staticmethod
    def _corrupt(job_id: str, worker: int | None, err: dict) -> Note:
        return Note("job.corrupt_result", {
            "job_id": job_id, "worker_id": worker,
            "error_type": err["error_type"], "message": err["message"]})

    def _depth(self) -> Note:
        return Note("pool.depth", {"pending": len(self._live),
                                   "in_flight": len(self.in_flight())})

    @staticmethod
    def _ok(job, attempts: int, history: list[dict], payload: dict,
            worker: int | None, cache: dict | None, extra: dict
            ) -> JobResult:
        if history:
            extra = {**extra, "attempt_history": list(history)}
        return JobResult(
            job_id=job.job_id, label=job.label, status="ok",
            attempts=max(attempts, 1), worker_id=worker,
            wall_seconds=payload["wall_seconds"], result=payload["result"],
            cache=cache, extra=extra)

    def _retry_or_dead(self, e: _Entry, err: dict, worker: int | None,
                       now: float) -> list:
        if err.get("retryable", True) and e.attempts <= self.retries:
            delay = self.backoff * 2 ** max(e.attempts - 1, 0)
            return [Note("job.retry", {"job_id": e.job.job_id,
                                       "attempts": e.attempts,
                                       "delay_s": delay}),
                    Dispatch(e.job, now + delay, "retry")]
        self._resolve(e)
        attempts = max(e.attempts, 1)
        attrs = {"job_id": e.job.job_id, "label": e.job.label,
                 "worker_id": worker, "attempts": attempts,
                 "error_type": err.get("error_type")}
        return [Note("job.failed", attrs), Note("job.dead", attrs),
                JobResult(job_id=e.job.job_id, label=e.job.label,
                          status="dead", attempts=attempts,
                          worker_id=worker, error=err,
                          extra={"attempt_history": list(e.history)}),
                self._depth()]

    def _split(self, e: _Entry, err: dict, now: float) -> list:
        """A failed or crashed cohort has no per-member attribution: run
        its members individually, each with a fresh budget."""
        self._resolve(e)
        out = [Note("cohort.split", {"job_id": e.job.job_id,
                                     "members": len(e.job.jobs),
                                     "error_type": err.get("error_type")})]
        for member in e.job.jobs:
            if self._admit(member):
                out.append(Dispatch(member, now, "split"))
        return out + [self._depth()]

    def _cohort_done(self, e: _Entry, payload: dict, worker: int | None,
                     now: float) -> list:
        """Partial completion: healthy members finish from the batched
        run; quarantined members and members with corrupt (or missing)
        results re-run individually with a fresh budget."""
        cohort = e.job
        self._resolve(e)
        got_by_id = _member_payloads(payload)
        q_by_id = {jid: q for jid, got in got_by_id.items()
                   if (q := _quarantine_of(got)) is not None}
        out = [self._complete(e, payload, worker, cohort=len(cohort.jobs),
                              quarantined=len(q_by_id))]
        cache = payload.get("cache")
        extra = {"cohort": cohort.job_id, "cohort_size": len(cohort.jobs)}
        for member in cohort.jobs:
            jid = member.job_id
            if jid in self._live or jid in self._finished:
                continue
            if jid in q_by_id:
                q = q_by_id[jid]
                self._admit(member, [{
                    "attempt": 0, "error_type": "LaneQuarantine",
                    "message": f"{q.get('reason')}: {q.get('detail', '')}"}])
                out += [Note("cohort.quarantine_redispatch", {
                            "cohort": cohort.job_id, "job_id": jid,
                            "label": member.label,
                            "reason": q.get("reason")}),
                        Dispatch(member, now, "quarantine")]
                continue
            got = got_by_id.get(jid)                     # None if missing
            err = validate_result_payload(got)
            if err is not None:
                self._admit(member, [{"attempt": 0,
                                      "error_type": err["error_type"],
                                      "message": err["message"]}])
                out += [self._corrupt(jid, worker, err),
                        Dispatch(member, now, "corrupt")]
                continue
            self._finished.add(jid)
            out.append(self._ok(member, e.attempts, [], got, worker, cache,
                                extra))
            cache = None                  # the cohort's delta, counted once
        return out + [self._depth()]
