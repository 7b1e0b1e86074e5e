"""Tests for the worker pool: parity, crash recovery, watchdogs.

Multiprocessing tests use the spawn start method (the pool default) with
tiny LGA budgets, so each runs in a few seconds.
"""

import gc
import itertools
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.core import DockingConfig, DockingEngine
from repro.robustness import WatchdogTimeout
from repro.search.lga import LGAConfig
from repro.serve import (DockingJob, ShardedManifest, WorkerPool, run_batch,
                         seed_from_spec, spawn_seed)
from repro.testcases import get_test_case

TINY = DockingConfig(backend="baseline",
                     lga=LGAConfig(pop_size=8, max_evals=300, max_gens=6,
                                   ls_iters=5, ls_rate=0.25))


def _jobs(names, entropy=7, spec_extra=None):
    return [DockingJob(spec={"kind": "case", "case": n,
                             **(spec_extra or {})},
                       config=TINY, n_runs=2,
                       seed=spawn_seed(entropy, i), label=n)
            for i, n in enumerate(names)]


class TestInlinePool:
    def test_inline_matches_sequential_engine(self):
        results = {r.label: r
                   for r in WorkerPool(workers=0).map(_jobs(["1u4d",
                                                             "1xoz"]))}
        for i, name in enumerate(["1u4d", "1xoz"]):
            seq = DockingEngine(get_test_case(name), TINY).dock(
                n_runs=2, seed=seed_from_spec(spawn_seed(7, i)))
            assert results[name].status == "ok"
            assert results[name].best_score == seq.best_score

    def test_inline_retries_transient_errors(self, tmp_path, monkeypatch):
        from repro.serve import pool as pool_mod
        calls = {"n": 0}
        real = pool_mod.execute_job

        def flaky(job, cache=None, **kw):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("transient")
            return real(job, cache, **kw)

        monkeypatch.setattr(pool_mod, "execute_job", flaky)
        pool = WorkerPool(workers=0, retries=1, backoff=0.0)
        [res] = list(pool.map(_jobs(["1u4d"])))
        assert res.status == "ok"
        assert res.attempts == 2

    def test_inline_watchdog_failure_not_retried(self):
        pool = WorkerPool(workers=0, retries=3, backoff=0.0,
                          job_wall_seconds=0.0)   # expires immediately
        [res] = list(pool.map(_jobs(["1u4d"])))
        assert res.status == "dead"               # terminal: dead-lettered
        assert res.attempts == 1                  # deterministic: no retry
        assert res.error["error_type"] == WatchdogTimeout.__name__
        assert pool.dead_letters == [res]
        assert res.extra["attempt_history"][0]["error_type"] == \
            WatchdogTimeout.__name__


class TestProcessPool:
    def test_two_workers_match_sequential_engine(self):
        """Acceptance: pool results are identical in best-score content
        to sequential engine runs with the same spawned seeds."""
        names = ["1u4d", "1xoz", "1yv3", "1owe"]
        pool = WorkerPool(workers=2, poll_seconds=0.05)
        results = {r.label: r for r in pool.map(_jobs(names))}
        assert len(results) == 4
        for i, name in enumerate(names):
            seq = DockingEngine(get_test_case(name), TINY).dock(
                n_runs=2, seed=seed_from_spec(spawn_seed(7, i)))
            assert results[name].status == "ok"
            assert results[name].best_score == seq.best_score

    def test_killed_worker_job_retried_and_completes(self, tmp_path):
        """Acceptance: killing a worker mid-job loses no jobs and
        duplicates none."""
        marker = str(tmp_path / "crash-once")
        jobs = _jobs(["1xoz", "1yv3"])
        jobs.append(DockingJob(
            spec={"kind": "case", "case": "1u4d", "crash_once": marker},
            config=TINY, n_runs=2, seed=spawn_seed(7, 2), label="victim"))
        pool = WorkerPool(workers=2, retries=2, backoff=0.05,
                          poll_seconds=0.05)
        results = list(pool.map(jobs))
        assert os.path.exists(marker)             # the crash really fired
        assert pool.workers_replaced >= 1
        by_label = {}
        for r in results:
            assert r.label not in by_label        # exactly-once results
            by_label[r.label] = r
        assert set(by_label) == {"1xoz", "1yv3", "victim"}
        assert all(r.status == "ok" for r in results)
        victim = by_label["victim"]
        assert victim.attempts >= 2               # crash consumed attempt 1
        seq = DockingEngine(get_test_case("1u4d"), TINY).dock(
            n_runs=2, seed=seed_from_spec(spawn_seed(7, 2)))
        assert victim.best_score == seq.best_score

    def test_worker_exception_reported_after_retries(self):
        bad = DockingJob(spec={"kind": "case", "case": "no-such-case"},
                         config=TINY, n_runs=2, label="bad")
        pool = WorkerPool(workers=1, retries=1, backoff=0.01,
                          poll_seconds=0.05)
        [res] = list(pool.map([bad]))
        assert res.status == "dead"
        assert res.attempts == 2
        assert res.error["error_type"] == "ValueError"
        assert "no-such-case" in res.error["message"]
        assert pool.dead_letters == [res]
        assert [h["error_type"]
                for h in res.extra["attempt_history"]] == \
            ["ValueError", "ValueError"]

    def test_per_job_cache_stats_reported(self):
        jobs = _jobs(["1u4d", "1u4d"])    # same case, distinct seeds
        pool = WorkerPool(workers=1, poll_seconds=0.05)
        results = list(pool.map(jobs))
        assert len(results) == 2
        assert all(r.status == "ok" and r.cache is not None
                   for r in results)
        # the worker builds the case once; the second job hits
        assert sum(r.cache["hits"] for r in results) >= 1

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=-1)

    def test_crash_loop_breaker_aborts(self, tmp_path):
        """A pool that keeps losing workers aborts at max_respawns
        instead of respawning forever."""
        marker = str(tmp_path / "crash-once")
        job = DockingJob(
            spec={"kind": "case", "case": "1u4d", "crash_once": marker},
            config=TINY, n_runs=2, label="victim")
        pool = WorkerPool(workers=1, retries=2, backoff=0.05,
                          poll_seconds=0.05, max_respawns=0)
        with pytest.raises(RuntimeError, match="crash-looping"):
            list(pool.map([job]))


def _worker_pids():
    return {p.pid for p in mp.active_children()
            if p.name.startswith("repro-serve-worker")}


def _running(pid: int) -> bool:
    """``pid`` exists and is not a zombie (an unreaped exit counts as
    exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


_ORPHAN_PARENT = textwrap.dedent("""
    import multiprocessing as mp
    import sys
    import threading
    import time

    from repro.core import DockingConfig
    from repro.search.lga import LGAConfig
    from repro.serve import DockingJob, WorkerPool, spawn_seed

    if __name__ == "__main__":
        n_jobs = int(sys.argv[1])
        config = DockingConfig(
            backend="baseline",
            lga=LGAConfig(pop_size=8, max_evals=3000, max_gens=60,
                          ls_iters=5, ls_rate=0.25))     # ~0.3 s a job
        pool = WorkerPool(workers=1, heartbeat_seconds=0.2)
        jobs = [DockingJob(spec={"kind": "case", "case": "1u4d"},
                           config=config, n_runs=1, seed=spawn_seed(7, i),
                           label=f"job{i}") for i in range(n_jobs)]
        first = threading.Event()

        def drain():
            for _ in pool.map(jobs):
                first.set()

        mapper = threading.Thread(target=drain, daemon=True)
        mapper.start()
        assert first.wait(timeout=120), "no result"
        if n_jobs == 1:
            mapper.join()
        [worker] = [p for p in mp.active_children()
                    if p.name.startswith("repro-serve-worker")]
        print(worker.pid, flush=True)
        time.sleep(120)
""")


class TestLongLivedPool:
    """A pool's workers (inline: its cache) outlive a :meth:`map` call;
    each call used to spawn, and reap, a fresh set."""

    def test_two_maps_share_workers_and_survive_a_crash(self, tmp_path):
        gc.collect()              # earlier tests' pools release workers
        before = _worker_pids()
        marker = str(tmp_path / "crash-once")
        first = _jobs(["1xoz", "1yv3"])
        first.append(DockingJob(
            spec={"kind": "case", "case": "1u4d", "crash_once": marker},
            config=TINY, n_runs=2, seed=spawn_seed(7, 2), label="victim"))
        pool = WorkerPool(workers=2, retries=2, backoff=0.05,
                          poll_seconds=0.05)
        try:
            assert all(r.status == "ok" for r in pool.map(first))
            assert os.path.exists(marker)
            assert pool.workers_replaced == 1
            pids = _worker_pids() - before
            assert len(pids) == 2
            second = list(pool.map(_jobs(["1owe", "7cpa"], entropy=8)))
            assert [r.status for r in second] == ["ok", "ok"]
            assert _worker_pids() - before == pids
            assert pool.workers_replaced == 1
        finally:
            pool.close()
        assert not _worker_pids() & pids

    def test_unclosed_pool_releases_workers_when_collected(self):
        gc.collect()
        before = _worker_pids()
        pool = WorkerPool(workers=1, poll_seconds=0.05)
        list(pool.map(_jobs(["1u4d"])))
        started = _worker_pids() - before
        assert len(started) == 1
        del pool
        gc.collect()
        assert not _worker_pids() & started

    @pytest.mark.parametrize("n_jobs", [1, 200], ids=["idle", "busy"])
    def test_worker_exits_when_its_parent_is_killed(self, tmp_path, n_jobs):
        # idle: the map is done; busy: one result is in and the task
        # pipe still holds dozens of jobs (~1 kB each in a 64 kB pipe),
        # which an orphan must not work through
        script = tmp_path / "parent.py"
        script.write_text(_ORPHAN_PARENT)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        parent = subprocess.Popen(
            [sys.executable, str(script), str(n_jobs)], env=env,
            stdout=subprocess.PIPE, text=True)
        worker = None
        try:
            worker = int(parent.stdout.readline())
            parent.send_signal(signal.SIGKILL)       # the parent alone
            parent.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while _running(worker) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _running(worker)
        finally:
            parent.kill()
            parent.wait(timeout=10)
            parent.stdout.close()
            if worker is not None and _running(worker):
                os.kill(worker, signal.SIGKILL)

    def test_inline_pool_keeps_one_cache(self):
        pool = WorkerPool(workers=0)
        [a] = pool.map(_jobs(["1u4d"]))
        [b] = pool.map(_jobs(["1u4d"], entropy=8))
        assert a.cache["misses"] > 0
        assert b.cache["misses"] == 0 and b.cache["hits"] > 0


class TestRunBatch:
    class _Broken(WorkerPool):
        """One real result, then the pool itself fails."""

        def map(self, jobs):
            yield from itertools.islice(super().map(jobs), 1)
            raise RuntimeError("pool broke")

    def test_pool_failure_dead_letters_the_rest_log_first(self, tmp_path):
        seen = []
        with ShardedManifest(tmp_path / "m", n_shards=1) as log:
            def publish(result, rec):
                assert log.load()[result.job_id] == rec    # on disk first
                seen.append((result.label, result.status))

            with pytest.raises(RuntimeError, match="pool broke"):
                run_batch(self._Broken(workers=0),
                          _jobs(["1u4d", "1xoz", "1yv3"]), publish, log=log)
            records = log.load()
        assert seen == [("1u4d", "ok"), ("1xoz", "dead"), ("1yv3", "dead")]
        assert {r["error"]["error_type"] for r in records.values()
                if r["status"] == "dead"} == {"RuntimeError"}


def test_jobs_helper_uses_distinct_spawned_streams():
    a, b = _jobs(["1u4d", "1u4d"])
    assert a.seed != b.seed
    assert a.job_id != b.job_id


class TestResultValidation:
    """Edge cases of parent-side payload validation: a worker that lies
    (non-finite scores, missing run lists) must never count as done."""

    def _ok_payload(self, scores=(-5.0, -4.2)):
        return {"status": "ok",
                "result": {"runs": [{"best_score": s} for s in scores]}}

    def test_well_formed_payload_validates(self):
        from repro.serve.pool import validate_result_payload
        assert validate_result_payload(self._ok_payload()) is None

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), None, "nan"])
    def test_non_finite_or_missing_best_score_rejected(self, bad):
        from repro.serve.pool import validate_result_payload
        payload = self._ok_payload(scores=(-5.0,))
        payload["result"]["runs"].append({"best_score": bad})
        err = validate_result_payload(payload)
        assert err["error_type"] == "NonFiniteResult"
        assert err["retryable"] is True
        assert "run 1" in err["message"]

    @pytest.mark.parametrize("payload", [
        None,                                     # not a dict at all
        {},                                       # no result
        {"result": None},                         # result wiped
        {"result": {}},                           # runs missing
        {"result": {"runs": []}},                 # truncated empty
        {"result": {"runs": "gone"}},             # wrong type
    ])
    def test_structurally_broken_payloads_rejected(self, payload):
        from repro.serve.pool import validate_result_payload
        err = validate_result_payload(payload)
        assert err["error_type"] == "CorruptResult"
        assert err["retryable"] is True

    def test_run_record_that_is_not_a_dict_rejected(self):
        from repro.serve.pool import validate_result_payload
        payload = {"result": {"runs": [42]}}
        err = validate_result_payload(payload)
        assert err["error_type"] == "NonFiniteResult"

    def test_missing_quarantine_and_history_are_not_fatal(self):
        """Advisory metadata (quarantine records, attempt history) may
        be absent or truncated without invalidating a sound result."""
        from repro.serve.pool import validate_result_payload
        payload = self._ok_payload()
        payload["extra"] = {"attempt_history": []}    # truncated
        assert validate_result_payload(payload) is None
        del payload["extra"]                          # missing entirely
        assert validate_result_payload(payload) is None


class TestHeartbeatConfig:
    """The heartbeat cadence is a pool/CLI knob, never part of job
    identity (DockingConfig feeds the content hash)."""

    def test_default_interval(self):
        from repro.serve import DEFAULT_HEARTBEAT_SECONDS
        pool = WorkerPool(workers=0)
        assert pool.heartbeat_seconds == DEFAULT_HEARTBEAT_SECONDS

    @pytest.mark.parametrize("bad", [0, -1.5])
    def test_non_positive_interval_rejected(self, bad):
        with pytest.raises(ValueError, match="heartbeat"):
            WorkerPool(workers=0, heartbeat_seconds=bad)

    def test_inline_heartbeat_reports_configured_interval(self):
        pool = WorkerPool(workers=0, heartbeat_seconds=0.25)
        list(pool.map(_jobs(["1u4d"])))
        hb = pool.heartbeats["inline"]
        assert hb["interval_s"] == 0.25
        assert hb["jobs_done"] == 1

    def test_interval_not_in_job_identity(self):
        a, b = _jobs(["1u4d"]), _jobs(["1u4d"])
        assert a[0].job_id == b[0].job_id
        assert "heartbeat" not in str(a[0].to_dict())

    def test_report_renders_interval(self, tmp_path):
        """The trace report surfaces the effective cadence per worker."""
        from repro.obs import render_summary, summarize_log
        from repro.obs.trace import configure, disable
        log = tmp_path / "trace.jsonl"
        configure(log, source="main")
        try:
            pool = WorkerPool(workers=0, heartbeat_seconds=0.5,
                              trace_path=str(log))
            list(pool.map(_jobs(["1u4d"])))
        finally:
            disable()
        text = render_summary(summarize_log(log))
        assert "heartbeat every 0.5s" in text


class TestExecutorParity:
    """Both executors drive one JobLedger, so they must agree on order,
    counters and terminal records (each test failed before the ledger:
    the inline executor kept its own copy of the state machine)."""

    @staticmethod
    def _poisoned_then_clean():
        poisoned, clean = _jobs(["1u4d", "1xoz"])
        poisoned = DockingJob(spec={**poisoned.spec,
                                    "poison_nonfinite": True},
                              config=TINY, n_runs=2, seed=poisoned.seed,
                              label="poisoned")
        return [poisoned, clean]

    @pytest.mark.parametrize("workers", [0, 1])
    def test_backoff_does_not_block_a_ready_job(self, workers):
        pool = WorkerPool(workers=workers, retries=1, backoff=1.0,
                          poll_seconds=0.05)
        results = list(pool.map(self._poisoned_then_clean()))
        assert [(r.label, r.status) for r in results] \
            == [("1xoz", "ok"), ("poisoned", "dead")]

    @pytest.mark.parametrize("workers", [0, 1])
    def test_corrupt_results_are_counted(self, workers):
        from repro.obs import configure
        tracer = configure(None)       # ring only: the parent's events
        pool = WorkerPool(workers=workers, retries=1, backoff=0.0,
                          poll_seconds=0.05)
        [dead] = list(pool.map(self._poisoned_then_clean()[:1]))
        assert dead.status == "dead" and dead.attempts == 2
        corrupt = [r for r in tracer.records()
                   if r["name"] == "job.corrupt_result"]
        assert len(corrupt) == 2                # one per attempt

    @pytest.fixture(scope="class")
    def cohort_outcomes(self):
        from repro.serve import CohortJob
        members = _jobs(["1u4d", "1xoz", "7cpa"])
        members[1] = DockingJob(spec={**members[1].spec,
                                      "poison_nonfinite": True},
                                config=TINY, n_runs=2,
                                seed=members[1].seed, label="poisoned")
        cohort = CohortJob(jobs=tuple(members))
        out = {}
        for workers in (0, 1):
            pool = WorkerPool(workers=workers, retries=1, backoff=0.0,
                              poll_seconds=0.05)
            out[workers] = {r.label: (r.status, r.attempts, r.extra)
                            for r in pool.map([cohort])}
        return cohort, out

    @pytest.mark.parametrize("workers", [0, 1])
    def test_cohort_members_match(self, cohort_outcomes, workers):
        cohort, out = cohort_outcomes
        got = out[workers]
        assert got == out[0]
        extra = {"cohort": cohort.job_id, "cohort_size": 3}
        assert got["1u4d"] == ("ok", 1, extra)
        assert got["7cpa"] == ("ok", 1, extra)
        status, attempts, dead_extra = got["poisoned"]
        assert (status, attempts) == ("dead", 2)   # a fresh 1+1 budget
        assert [(h["attempt"], h["error_type"])
                for h in dead_extra["attempt_history"]] \
            == [(0, "LaneQuarantine"), (1, "NonFiniteResult"),
                (2, "NonFiniteResult")]
