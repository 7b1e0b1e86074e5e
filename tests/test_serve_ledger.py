"""Property tests for :class:`repro.serve.ledger.JobLedger`.

The ledger is driven alone, the way an executor drives it, with random
interleavings of started / done / failed / crashed events, duplicate
dispatches (the process pool's lost-dispatch backstop) and late events
for terminal or unknown job ids.  Work is a mix of solo jobs and
cohorts whose members come back healthy, quarantined, corrupt or
missing from the cohort payload.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import CohortJob, DockingJob
from repro.serve.ledger import Dispatch, JobLedger, JobResult, Note

#: how a cohort member comes back from the batched run
FATES = ("ok", "quarantined", "corrupt", "missing")


def _job(i: int) -> DockingJob:
    return DockingJob(spec={"kind": "case", "case": f"c{i}"}, n_runs=1,
                      label=f"j{i}")


def _good(score: float = -1.0) -> dict:
    return {"result": {"runs": [{"best_score": score}], "total_evals": 10},
            "wall_seconds": 0.1}


def _bad() -> dict:
    return {"result": {"runs": [{"best_score": float("nan")}]},
            "wall_seconds": 0.1}


def _payload(unit, fates: dict) -> dict:
    """The executor's one payload shape, for a job (a unit of one) or a
    cohort; a quarantined member keeps its record in its result."""
    members = []
    for m in unit.jobs:
        fate = fates[m.job_id]
        if fate == "missing":
            continue
        payload = _bad() if fate == "corrupt" else _good()
        if fate == "quarantined":
            payload["result"]["quarantine"] = {"reason": "nonfinite-score",
                                               "detail": "lane"}
        members.append({"job_id": m.job_id, "label": m.label,
                        "payload": payload})
    return {"members": members, "wall_seconds": 0.2,
            "cohort_size": len(unit.jobs), "cache": None}


def _state(ledger: JobLedger):
    """Everything the ledger holds (private: the properties are about
    what an event changes)."""
    return ({jid: (e.attempts, [dict(h) for h in e.history], e.worker,
                   e.since) for jid, e in ledger._live.items()},
            set(ledger._finished))


class Sim:
    """An executor stand-in: a bag of queued jobs, running attempts."""

    def __init__(self, ledger: JobLedger, fates: dict) -> None:
        self.ledger = ledger
        self.fates = fates
        self.queue: list = []
        self.running: list = []        # (job, worker)
        self.results: dict[str, list[JobResult]] = {}
        self.notes: list[Note] = []
        self.dispatches: list[Dispatch] = []
        self.now = 0.0
        self.workers = 0

    def feed(self, actions: list) -> None:
        for act in actions:
            if isinstance(act, Dispatch):
                assert act.job.job_id not in self.results   # never re-run
                self.dispatches.append(act)
                self.queue.append(act.job)
            elif isinstance(act, Note):
                self.notes.append(act)
            else:
                assert isinstance(act, JobResult)
                assert act.status in ("ok", "dead")
                self.results.setdefault(act.job_id, []).append(act)

    def start(self, k: int) -> None:
        job = self.queue.pop(k % len(self.queue))
        self.workers += 1
        self.ledger.started(job.job_id, self.workers, self.now)
        self.running.append((job, self.workers))

    def finish(self, k: int, outcome: str) -> None:
        job, wid = self.running.pop(k % len(self.running))
        ledger, jid, now = self.ledger, job.job_id, self.now
        if outcome == "failed":
            self.feed(ledger.failed(jid, {"error_type": "OSError",
                                          "message": "x"}, wid, now))
        elif outcome == "fatal":
            self.feed(ledger.failed(jid, {"error_type": "WatchdogTimeout",
                                          "message": "x",
                                          "retryable": False}, wid, now))
        elif outcome == "crashed":
            self.feed(ledger.crashed(jid, wid, now))
        elif isinstance(job, CohortJob):
            self.feed(ledger.done(jid, _payload(job, self.fates), wid, now))
        else:
            self.feed(ledger.done(jid, _payload(job, {
                jid: "ok" if outcome == "done" else "corrupt"}), wid, now))


def _workload(draw_units, overlap: bool) -> tuple[list, dict, set, set]:
    """Jobs to submit, member fates, cohort ids and leaf job ids;
    ``overlap`` also submits a cohort's first member as a solo job."""
    jobs, fates, cohorts, leaves = [], {}, set(), set()
    n = 0
    for unit in draw_units:
        if unit is None:
            job = _job(n)
            n += 1
            jobs.append(job)
            leaves.add(job.job_id)
            continue
        members = [_job(n + i) for i in range(len(unit))]
        n += len(unit)
        cohort = CohortJob(jobs=tuple(members), label=f"cohort{n}")
        jobs.append(cohort)
        cohorts.add(cohort.job_id)
        for m, fate in zip(members, unit):
            fates[m.job_id] = fate
            leaves.add(m.job_id)
        if overlap:
            jobs.append(members[0])
            overlap = False
    return jobs, fates, cohorts, leaves


UNITS = st.lists(st.one_of(st.none(),
                           st.lists(st.sampled_from(FATES), min_size=1,
                                    max_size=4)),
                 min_size=1, max_size=5)
OPS = ("start", "finish", "stale", "backstop", "tick", "resubmit")
OUTCOMES = ("done", "corrupt", "failed", "fatal", "crashed")


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(units=UNITS, overlap=st.booleans(), retries=st.integers(0, 3),
       data=st.data())
def test_random_interleavings_keep_the_ledger_contract(units, overlap,
                                                       retries, data):
    jobs, fates, cohorts, leaves = _workload(units, overlap)
    ledger = JobLedger(retries=retries, backoff=0.1)
    sim = Sim(ledger, fates)
    sim.feed(ledger.submit(jobs + jobs[:1], sim.now))   # a duplicate too
    assert len(sim.dispatches) == len(jobs)

    for _ in range(data.draw(st.integers(0, 60), label="steps")):
        op = data.draw(st.sampled_from(OPS), label="op")
        k = data.draw(st.integers(0, 1000), label="pick")
        if op == "start" and sim.queue:
            sim.start(k)
        elif op == "finish" and sim.running:
            sim.finish(k, data.draw(st.sampled_from(OUTCOMES),
                                    label="outcome"))
        elif op == "stale":
            # late or duplicate events for terminal / unknown ids
            terminal = sorted(set(sim.results) | cohorts - set(
                e.job.job_id for e in ledger._live.values()))
            jid = (terminal[k % len(terminal)]
                   if terminal and k % 3 else "f" * 64)
            before = _state(ledger)
            assert ledger.started(jid, 99, sim.now) == []
            assert ledger.done(jid, {"members": [{"job_id": jid,
                                                  "payload": _good()}]},
                               99, sim.now) == []
            assert ledger.failed(jid, {"error_type": "E"}, 99, sim.now) \
                == []
            assert ledger.crashed(jid, 99, sim.now) == []
            assert ledger.submit([], sim.now) == []
            assert _state(ledger) == before
        elif op == "backstop":
            sim.queue.extend(ledger.pending_jobs())
        elif op == "resubmit":
            before = _state(ledger)
            assert ledger.submit([j for j in jobs
                                  if j.job_id not in ledger], sim.now) \
                == []
            assert _state(ledger) == before
        elif op == "tick":
            sim.now += 0.05

    # drain: every attempt still out comes back healthy
    for _ in range(10_000):
        if not len(ledger):
            break
        if sim.running:
            sim.finish(0, "done")
        elif sim.queue:
            sim.start(0)
        else:
            sim.queue.extend(ledger.pending_jobs())    # lost dispatches
    else:
        pytest.fail("ledger never drained")

    # exactly one terminal result per job id, and only for real jobs
    assert set(sim.results) == leaves
    assert all(len(v) == 1 for v in sim.results.values())
    # attempts stay within the budget, and an attempt ends once: attempt
    # numbers in a history strictly increase (0 is the cohort's run)
    for [res] in sim.results.values():
        assert 1 <= res.attempts <= retries + 1
        seen = [h["attempt"] for h in res.extra.get("attempt_history", [])]
        assert seen == sorted(set(seen))
        assert all(0 <= a <= res.attempts for a in seen)
    # a cohort splits at most once, and never after completing
    for cid in cohorts:
        ends = [n for n in sim.notes
                if n.attrs.get("job_id") == cid
                and n.name in ("cohort.split", "job.complete")]
        assert len(ends) == 1
    # a quarantined member is re-dispatched at most once
    for jid in leaves:
        assert sum(1 for d in sim.dispatches if d.job.job_id == jid
                   and d.reason == "quarantine") <= 1
    # nothing is held once every job is terminal
    assert len(ledger) == 0
    assert ledger.in_flight() == [] and ledger.pending_jobs() == []


def test_backoff_schedules_the_retry_later():
    ledger = JobLedger(retries=2, backoff=0.5)
    job = _job(0)
    [first] = ledger.submit([job], 10.0)
    assert first.at == 10.0 and first.reason == "new"
    ledger.started(job.job_id, None, 10.0)
    actions = ledger.done(job.job_id, _payload(job, {job.job_id: "corrupt"}),
                          None, 11.0)
    [retry] = [a for a in actions if isinstance(a, Dispatch)]
    assert retry.reason == "retry" and retry.at == pytest.approx(11.5)
    assert [a.name for a in actions if isinstance(a, Note)] \
        == ["job.corrupt_result", "job.retry"]


def test_split_members_start_a_fresh_budget():
    ledger = JobLedger(retries=1, backoff=0.0)
    members = (_job(0), _job(1))
    cohort = CohortJob(jobs=members)
    ledger.submit([cohort], 0.0)
    ledger.started(cohort.job_id, 1, 0.0)
    actions = ledger.crashed(cohort.job_id, 1, 0.0)
    assert [a.job.job_id for a in actions if isinstance(a, Dispatch)] \
        == [m.job_id for m in members]
    # each member still gets retries + 1 attempts of its own
    jid = members[0].job_id
    for attempt in (1, 2):
        ledger.started(jid, 2, 0.0)
        out = ledger.failed(jid, {"error_type": "OSError"}, 2, 0.0)
    [dead] = [a for a in out if isinstance(a, JobResult)]
    assert dead.status == "dead" and dead.attempts == 2
    assert [h["attempt"] for h in dead.extra["attempt_history"]] == [1, 2]


def test_quarantined_result_dead_letters_without_retry():
    from repro.serve.ledger import validate_result_payload
    q = {"lane": 0, "name": "c0", "generation": 3, "reason": "guard-raise",
         "detail": "1 of 8 reduction blocks"}
    quarantined = _good()
    quarantined["result"]["quarantine"] = q
    err = validate_result_payload(quarantined)
    assert err["error_type"] == "LaneQuarantine"
    assert err["retryable"] is False
    # the finite-score test runs first: a poisoned job stays NonFinite
    poisoned = _bad()
    poisoned["result"]["quarantine"] = q
    assert validate_result_payload(poisoned)["error_type"] \
        == "NonFiniteResult"

    ledger = JobLedger(retries=2, backoff=0.0)
    job = _job(0)
    ledger.submit([job], 0.0)
    ledger.started(job.job_id, None, 0.0)
    actions = ledger.done(job.job_id, {"members": [{
        "job_id": job.job_id, "label": job.label,
        "payload": quarantined}]}, None, 0.0)
    [dead] = [a for a in actions if isinstance(a, JobResult)]
    assert (dead.status, dead.attempts) == ("dead", 1)
    assert dead.error["error_type"] == "LaneQuarantine"
