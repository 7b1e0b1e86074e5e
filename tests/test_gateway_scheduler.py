"""Tests of the SLO scheduler: admission, WDRR fairness, routing,
autoscale.

A stub predictor with a fixed per-eval cost makes every predicted
runtime exact, so the admission arithmetic and the deficit accounting
can be asserted to the second.
"""

import math

import pytest

from repro.core.config import DockingConfig
from repro.gateway import AdmissionError, SLOScheduler
from repro.search.lga import LGAConfig
from repro.serve import DockingJob, shard_for


class StubPredictor:
    """Fixed per-eval cost: predicted seconds == evals x cost."""

    def __init__(self, eval_s=1e-3):
        self.eval_s = eval_s

    def shape_for_spec(self, spec):
        return spec.get("case", "?")

    def predict_seconds(self, shape, budget_evals, **kw):
        return budget_evals * self.eval_s


def _job(case="1u4d", evals=1000, n_runs=1, seed=0, label=""):
    cfg = DockingConfig(
        backend="baseline",
        lga=LGAConfig(pop_size=10, max_evals=evals, max_gens=5,
                      ls_iters=5, ls_rate=0.25))
    return DockingJob(spec={"kind": "case", "case": case}, config=cfg,
                      n_runs=n_runs, seed=seed, label=label or case)


def _sched(**kw):
    kw.setdefault("predictor", StubPredictor())
    kw.setdefault("n_shards", 2)
    return SLOScheduler(**kw)


class TestPrediction:
    def test_budget_is_runs_times_max_evals(self):
        s = _sched()
        # 3 runs x 2000 evals x 1e-3 s/eval
        assert s.predict_seconds(_job(evals=2000, n_runs=3)) == \
            pytest.approx(6.0)


class TestAdmission:
    def test_hash_route_matches_partition(self):
        s = _sched()
        for seed in range(8):
            job = _job(seed=seed)
            shard, predicted = s.admit(job)
            assert shard == shard_for(job.job_id, 2)
            assert predicted == pytest.approx(1.0)
        assert s.admitted == 8

    def test_slo_rejection_carries_structured_payload(self):
        s = _sched(slo_seconds=0.5)
        with pytest.raises(AdmissionError) as exc:
            s.admit(_job(evals=1000))       # predicted 1.0s > 0.5s SLO
        p = exc.value.payload
        assert p["error"] == "admission_rejected"
        assert p["reason"] == "slo"
        assert p["limit_seconds"] == 0.5
        assert p["predicted_seconds"] == pytest.approx(1.0)
        assert p["retry_after_s"] == pytest.approx(0.5)
        assert s.rejected == 1 and s.admitted == 0

    def test_deadline_tighter_than_slo_rejects(self):
        s = _sched(slo_seconds=100.0)
        job = _job(evals=1000)
        with pytest.raises(AdmissionError) as exc:
            s.admit(job, deadline_s=0.25)
        assert exc.value.payload["reason"] == "deadline"
        # same job without the deadline is admitted
        s.admit(job)

    def test_backlog_counts_against_the_limit(self):
        """Admission prices the queue, not just the job: a shard full of
        admitted work pushes later jobs over the SLO."""
        s = _sched(n_shards=1, slo_seconds=2.5)
        s.admit(_job(seed=0))                # backlog now 1.0s
        s.admit(_job(seed=1))                # 1.0 wait + 1.0 job = 2.0 ok
        with pytest.raises(AdmissionError):  # 2.0 wait + 1.0 job > 2.5
            s.admit(_job(seed=2))
        # draining the backlog re-opens admission
        s.job_done(0, predicted_s=1.0)
        s.job_done(0, predicted_s=1.0)
        s.admit(_job(seed=2))

    def test_worker_count_scales_drain_rate(self):
        """Doubling a shard's workers halves its predicted wait."""
        s = _sched(n_shards=1, slo_seconds=2.5, workers=2)
        for seed in range(4):                # backlog 4s, wait 4/2=2s
            s.admit(_job(seed=seed))
        with pytest.raises(AdmissionError):  # wait 2.0 + 1.0 > 2.5
            s.admit(_job(seed=9))


class TestPackedRouting:
    def test_new_ids_go_to_least_loaded_shard(self):
        s = _sched(route="packed")
        a = _job(evals=5000, seed=0)         # 5s onto shard 0
        assert s.admit(a)[0] == 0
        b = _job(evals=1000, seed=1)         # shard 1 now lighter
        assert s.admit(b)[0] == 1
        c = _job(evals=1000, seed=2)         # 1: 1s < 0: 5s
        assert s.admit(c)[0] == 1

    def test_resubmitted_id_is_sticky(self):
        s = _sched(route="packed")
        job = _job(evals=5000, seed=0)
        first = s.admit(job)[0]
        # pile work onto the other shard so least-loaded would flip
        other = _job(evals=20_000, seed=1)
        s.admit(other)
        assert s.shard_of(job.job_id) == first

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError, match="route"):
            _sched(route="round-robin")


class TestFairness:
    def test_wdrr_shares_follow_weights(self):
        """Weight-2 tenant drains twice the predicted seconds per round."""
        s = _sched(n_shards=1, quantum_s=1.0,
                   tenant_weights={"heavy": 2.0, "light": 1.0})
        for i in range(8):
            s.admit(_job(seed=i), tenant="heavy")       # 1s each
        for i in range(8, 16):
            s.admit(_job(seed=i), tenant="light")       # 1s each
        batch = s.next_batch(0)
        served = {"heavy": 0, "light": 0}
        for item in batch:
            served[item.tenant] += 1
        assert served["heavy"] == 2
        assert served["light"] == 1

    def test_over_quantum_job_cannot_wedge_its_tenant(self):
        s = _sched(n_shards=1, quantum_s=0.1)
        s.admit(_job(evals=50_000, seed=0))   # 50s >> quantum
        batch = s.next_batch(0)
        assert len(batch) == 1                # served anyway

    def test_rounds_drain_everything_exactly_once(self):
        s = _sched(n_shards=1)
        jobs = [_job(seed=i) for i in range(10)]
        for i, job in enumerate(jobs):
            s.admit(job, tenant=f"t{i % 3}")
        seen = []
        for _ in range(100):
            batch = s.next_batch(0)
            if not batch:
                break
            seen.extend(item.job.job_id for item in batch)
        assert sorted(seen) == sorted(j.job_id for j in jobs)
        assert s.next_batch(0) == []

    def test_max_jobs_caps_a_batch(self):
        s = _sched(n_shards=1, quantum_s=10.0)   # quantum covers all 6
        for i in range(6):
            s.admit(_job(seed=i))
        assert len(s.next_batch(0, max_jobs=2)) == 2


class TestAutoscale:
    def test_desired_workers_tracks_predicted_backlog(self):
        s = _sched(n_shards=1, drain_target_s=2.0, max_workers=8)
        assert s.desired_workers(0) == 1          # empty: min
        for i in range(6):
            s.admit(_job(seed=i))                 # 6s backlog
        assert s.desired_workers(0) == 3          # ceil(6/2)

    def test_clamped_to_min_max(self):
        s = _sched(n_shards=1, drain_target_s=0.5, min_workers=2,
                   max_workers=4)
        assert s.desired_workers(0) == 2          # empty: min
        for i in range(8):
            s.admit(_job(seed=i))                 # 8s / 0.5s = 16 want
        assert s.desired_workers(0) == 4          # max clamp

    def test_apply_autoscale_updates_worker_view(self):
        s = _sched(n_shards=1, drain_target_s=1.0, max_workers=8)
        for i in range(4):
            s.admit(_job(seed=i))
        assert s.apply_autoscale(0) == 4
        assert s.workers[0] == 4


class TestPriority:
    """One priority rule for both entry points: lower ``priority`` runs
    first, then arrival order (a tenant queue used to be FIFO)."""

    def test_screen_and_scheduler_share_one_order(self):
        from repro.serve import VirtualScreen
        cfg = DockingConfig(
            backend="baseline",
            lga=LGAConfig(pop_size=8, max_evals=200, max_gens=4,
                          ls_iters=3, ls_rate=0.25))
        screen = VirtualScreen(cases=["1u4d", "1xoz", "1yv3", "1owe"],
                               config=cfg, n_runs=1, seed=3,
                               priorities=[2, 0, 1, 0])
        streamed = []
        screen.run(workers=0, stream=lambda r: streamed.append(r.label))
        s = _sched(n_shards=1, quantum_s=0.5)      # more than one round
        for job in screen.jobs():
            s.admit(job)
        scheduled = []
        while batch := s.next_batch(0):
            scheduled += [item.job.label for item in batch]
        assert streamed == scheduled == ["1xoz", "1owe", "1yv3", "1u4d"]


class NanPredictor:
    """Predictor whose fit degenerated: every estimate is NaN."""

    def shape_for_spec(self, spec):
        return spec.get("case", "?")

    def predict_seconds(self, shape, budget_evals, **kw):
        return math.nan


class TestUnpredictable:
    """Regression (PR 10): a NaN prediction used to flow straight into
    ``wait + predicted <= limit``, which is False for every comparison —
    so unpredictable jobs silently bypassed SLO and deadline checks and
    poisoned the shard backlog with NaN seconds."""

    def test_default_policy_rejects_with_structured_payload(self):
        s = _sched(predictor=NanPredictor(), slo_seconds=5.0)
        with pytest.raises(AdmissionError) as exc:
            s.admit(_job())
        p = exc.value.payload
        assert p["reason"] == "unpredictable"
        assert p["predicted_seconds"] is None      # NaN sanitised
        assert p["limit_seconds"] == 5.0
        assert s.rejected == 1 and s.admitted == 0
        assert s.unpredictable == 1

    def test_rejection_without_slo_or_deadline_still_fires(self):
        # no limit configured: unpredictable is still not admissible
        # under the default policy
        s = _sched(predictor=NanPredictor())
        with pytest.raises(AdmissionError) as exc:
            s.admit(_job())
        assert exc.value.payload["reason"] == "unpredictable"
        assert exc.value.payload["limit_seconds"] is None

    def test_counter_and_snapshot_track_occurrences(self):
        s = _sched(predictor=NanPredictor())
        for seed in range(3):
            with pytest.raises(AdmissionError):
                s.admit(_job(seed=seed))
        assert s.unpredictable == 3
        assert s.snapshot()["unpredictable"] == 3
        assert s.snapshot()["rejected"] == 3

    def test_infinite_prediction_is_also_unpredictable(self):
        class InfPredictor(NanPredictor):
            def predict_seconds(self, shape, budget_evals, **kw):
                return math.inf

        s = _sched(predictor=InfPredictor())
        with pytest.raises(AdmissionError) as exc:
            s.admit(_job())
        assert exc.value.payload["reason"] == "unpredictable"


class TestSnapshot:
    def test_snapshot_reports_per_shard_state(self):
        s = _sched(slo_seconds=30.0)
        for i in range(4):
            s.admit(_job(seed=i), tenant="t")
        snap = s.snapshot()
        assert snap["n_shards"] == 2
        assert snap["slo_seconds"] == 30.0
        assert snap["admitted"] == 4
        assert sum(sh["queued"] for sh in snap["shards"]) == 4
        assert sum(sh["predicted_backlog_s"]
                   for sh in snap["shards"]) == pytest.approx(4.0)
