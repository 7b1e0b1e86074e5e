"""Chaos-tested serving: hang/slow/corrupt-result injection, dead
letters, quarantine-aware partial cohort completion, crash consistency.

Complements test_serve_pool.py (crash_once) with the wider chaos
surface of ISSUE 7: parent-side lease recovery for wedged workers,
result validation, the dead-letter queue with ``--retry-dead``
re-admission, and a kill -9 of the *parent* mid-manifest-append.
"""

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.core import DockingConfig
from repro.robustness import WatchdogTimeout  # noqa: F401  (re-exported)
from repro.search.lga import LGAConfig
from repro.serve import (CohortJob, DockingJob, VirtualScreen, WorkerPool,
                         load_manifest_jobs, spawn_seed,
                         validate_result_payload)
from repro.serve.pool import execute_job

SRC = str(Path(__file__).resolve().parents[1] / "src")

TINY = DockingConfig(backend="baseline",
                     lga=LGAConfig(pop_size=8, max_evals=300, max_gens=6,
                                   ls_iters=5, ls_rate=0.25))


def case_job(name, i=0, spec_extra=None, label=None):
    return DockingJob(spec={"kind": "case", "case": name,
                            **(spec_extra or {})},
                      config=TINY, n_runs=2, seed=spawn_seed(5, i),
                      label=label or name)


class TestResultValidation:
    def test_accepts_clean_payload(self):
        [member] = execute_job(case_job("1u4d"))["members"]
        assert validate_result_payload(member["payload"]) is None

    def test_rejects_structural_and_nonfinite_damage(self):
        assert validate_result_payload({})["error_type"] == "CorruptResult"
        assert validate_result_payload(
            {"result": {"runs": []}})["error_type"] == "CorruptResult"
        bad = {"result": {"runs": [{"best_score": float("nan")}]}}
        err = validate_result_payload(bad)
        assert err["error_type"] == "NonFiniteResult"
        assert err["retryable"] is True


class TestDeadLetterInline:
    def test_poisoned_job_dead_letters_after_retry_budget(self):
        pool = WorkerPool(workers=0, retries=1, backoff=0.0)
        [res] = list(pool.map([case_job(
            "1u4d", spec_extra={"poison_nonfinite": True})]))
        assert res.status == "dead"
        assert res.attempts == 2                 # budget fully burned
        assert res.error["error_type"] == "NonFiniteResult"
        hist = res.extra["attempt_history"]
        assert [h["attempt"] for h in hist] == [1, 2]
        assert pool.dead_letters == [res]

    def test_cohort_partial_completion_quarantined_member_dies(self):
        members = [case_job("1u4d", 0), case_job("1xoz", 1),
                   case_job("7cpa", 2)]
        poisoned = case_job("1xoz", 1,
                            spec_extra={"poison_nonfinite": True})
        cohort = CohortJob(jobs=(members[0], poisoned, members[2]))
        pool = WorkerPool(workers=0, retries=0, backoff=0.0)
        results = {r.label: r for r in pool.map([cohort])}
        assert len(results) == 3

        # healthy members complete from the batched run, bit-equal to
        # their solo jobs (quarantine must not perturb siblings)
        for member in (members[0], members[2]):
            got = results[member.label]
            assert got.status == "ok"
            assert got.extra["cohort"] == cohort.job_id
            [want] = execute_job(member)["members"]
            want = want["payload"]["result"]
            assert got.result == want

        # only the quarantined member fell back to individual retry, and
        # its poison is permanent: dead letter with the quarantine in
        # its attempt history
        dead = results[poisoned.label]
        assert dead.status == "dead"
        assert pool.quarantines == 1
        assert pool.dead_letters == [dead]
        kinds = [h["error_type"] for h in dead.extra["attempt_history"]]
        assert kinds[0] == "LaneQuarantine"
        assert "NonFiniteResult" in kinds


class TestChaosProcessPool:
    def test_hang_once_recovered_by_lease(self, tmp_path):
        marker = str(tmp_path / "hang-once")
        jobs = [case_job("1u4d", 0,
                         spec_extra={"hang_once": marker},
                         label="victim"),
                case_job("1xoz", 1)]
        pool = WorkerPool(workers=2, retries=2, backoff=0.05,
                          poll_seconds=0.05, lease_seconds=3.0)
        results = {r.label: r for r in pool.map(jobs)}
        assert os.path.exists(marker)           # the hang really fired
        assert pool.workers_replaced >= 1       # lease killed the worker
        assert set(results) == {"victim", "1xoz"}
        assert all(r.status == "ok" for r in results.values())
        victim = results["victim"]
        assert victim.attempts >= 2
        assert any(h["error_type"] == "WorkerCrash"
                   for h in victim.extra["attempt_history"])

    def test_slow_once_completes_without_retry(self, tmp_path):
        marker = str(tmp_path / "slow-once")
        job = case_job("1u4d", 0,
                       spec_extra={"slow_once": marker,
                                   "slow_seconds": 0.5})
        pool = WorkerPool(workers=1, poll_seconds=0.05)
        [res] = list(pool.map([job]))
        assert os.path.exists(marker)
        assert res.status == "ok"
        assert res.attempts == 1
        assert pool.workers_replaced == 0

    def test_corrupt_result_once_rejected_then_retried(self, tmp_path):
        marker = str(tmp_path / "corrupt-once")
        job = case_job("1u4d", 0,
                       spec_extra={"corrupt_result_once": marker})
        pool = WorkerPool(workers=1, retries=2, backoff=0.05,
                          poll_seconds=0.05)
        [res] = list(pool.map([job]))
        assert os.path.exists(marker)
        assert res.status == "ok"               # second attempt is clean
        assert res.attempts == 2
        hist = res.extra["attempt_history"]
        assert hist[0]["error_type"] == "NonFiniteResult"


class TestRetryDead:
    def test_dead_records_stay_terminal_unless_readmitted(self, tmp_path):
        manifest = tmp_path / "screen"
        screen = VirtualScreen(
            cases=["1u4d", "1xoz"], config=TINY, n_runs=2, seed=7,
            chaos={"1u4d": {"poison_nonfinite": True}})
        first = screen.run(workers=0, manifest=manifest, retries=0)
        assert first.stats["jobs_dead"] == 1
        assert first.stats["jobs_failed"] == 1
        assert len(first.dead) == 1
        dead_id = first.dead[0].job_id

        # resume: the dead letter is terminal — nothing re-runs
        resumed = screen.run(workers=0, manifest=manifest, resume=True,
                             retries=0)
        assert resumed.stats["jobs_completed"] == 0
        assert resumed.stats["jobs_cached"] == 1
        assert resumed.stats["jobs_dead"] == 1
        assert resumed.results[dead_id].status == "dead"

        # --retry-dead re-admits it with a fresh budget (still poisoned,
        # so it dies again — but it demonstrably re-ran)
        readmitted = screen.run(workers=0, manifest=manifest,
                                resume=True, retries=0, retry_dead=True)
        assert readmitted.results[dead_id].status == "dead"
        assert readmitted.results[dead_id].attempts == 1   # fresh budget
        assert readmitted.stats["jobs_dead"] == 1


class TestParentCrashConsistency:
    def test_kill9_mid_manifest_rewrite_resumes_exactly_once(
            self, tmp_path):
        """kill -9 the parent halfway through writing a manifest line:
        the torn line is skipped, resume yields exactly one terminal
        record per job, and the dead-letter entry survives."""
        manifest = tmp_path / "screen"
        script = tmp_path / "killed_screen.py"
        script.write_text(textwrap.dedent(f"""
            import json, os, signal
            from repro.serve.manifest import ShardedManifest
            from repro.serve.queue import shard_for
            real_append = ShardedManifest.append
            calls = {{"n": 0}}

            def torn_append(self, record):
                calls["n"] += 1
                if calls["n"] == 2:      # half a line on disk, then die
                    line = json.dumps(record)
                    shard = shard_for(record["job_id"], self.n_shards)
                    with open(self.shard_path(shard), "a") as fh:
                        fh.write(line[: len(line) // 2])
                    os.kill(os.getpid(), signal.SIGKILL)
                return real_append(self, record)

            ShardedManifest.append = torn_append

            from repro.core import DockingConfig
            from repro.search.lga import LGAConfig
            from repro.serve import VirtualScreen

            cfg = DockingConfig(backend="baseline",
                                lga=LGAConfig(pop_size=8, max_evals=300,
                                              max_gens=6, ls_iters=5,
                                              ls_rate=0.25))
            VirtualScreen(cases=["1u4d", "1xoz", "7cpa"], config=cfg,
                          n_runs=2, seed=7,
                          priorities=[-1, 0, 0],
                          chaos={{"1u4d": {{"poison_nonfinite": True}}}}
                          ).run(workers=0, manifest={str(manifest)!r},
                                retries=0)
        """))
        env = {**os.environ, "PYTHONPATH": SRC}
        proc = subprocess.run([sys.executable, str(script)], env=env,
                              capture_output=True, timeout=300)
        assert proc.returncode == -signal.SIGKILL

        # the torn second line is skipped: the log holds exactly the
        # dead-lettered first job
        jobs = load_manifest_jobs(manifest)
        assert len(jobs) == 1
        [prior] = jobs.values()
        assert prior["status"] == "dead"

        screen = VirtualScreen(
            cases=["1u4d", "1xoz", "7cpa"], config=TINY, n_runs=2,
            seed=7, priorities=[-1, 0, 0],
            chaos={"1u4d": {"poison_nonfinite": True}})
        report = screen.run(workers=0, manifest=manifest, resume=True,
                            retries=0)
        # exactly one terminal record per job, no duplicates or losses
        assert len(report.results) == 3
        assert sorted(r.label for r in report.results.values()) \
            == ["1u4d", "1xoz", "7cpa"]
        dead = report.results[prior["job_id"]]
        assert dead.status == "dead"            # preserved, not re-run
        assert dead.attempts == prior["attempts"]
        assert report.stats["jobs_completed"] == 2
        assert report.stats["jobs_dead"] == 1
        assert len(report.ranking) == 2
        # and on disk: the resumed appends are not lost behind the torn line
        reloaded = load_manifest_jobs(manifest)
        assert sorted(r["label"] for r in reloaded.values()) \
            == ["1u4d", "1xoz", "7cpa"]
        assert reloaded[prior["job_id"]]["status"] == "dead"
