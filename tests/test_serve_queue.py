"""Tests for service jobs: content-hash identity, seed specs, and the
job queue a screen hands the dispatch loop."""

import numpy as np

from repro.core.config import DockingConfig
from repro.search.lga import LGAConfig
from repro.serve import DockingJob, VirtualScreen, seed_from_spec, spawn_seed

TINY = DockingConfig(backend="baseline",
                     lga=LGAConfig(pop_size=8, max_evals=200, max_gens=4,
                                   ls_iters=3, ls_rate=0.25))


def _job(case="1u4d", priority=0, seed=0, label=""):
    return DockingJob(spec={"kind": "case", "case": case},
                      n_runs=2, seed=seed, priority=priority,
                      label=label or case)


class TestJobIdentity:
    def test_job_id_is_content_hash(self):
        a, b = _job("1u4d"), _job("1u4d")
        assert a.job_id == b.job_id
        assert len(a.job_id) == 64  # sha256 hex

    def test_job_id_changes_with_content(self):
        base = _job("1u4d")
        assert _job("1xoz").job_id != base.job_id
        assert _job("1u4d", seed=1).job_id != base.job_id
        other_cfg = DockingJob(spec=base.spec, n_runs=2,
                               config=DockingConfig(backend="baseline"))
        assert other_cfg.job_id != base.job_id

    def test_label_and_priority_not_part_of_hash(self):
        assert _job(label="x").job_id == _job(label="y").job_id
        assert _job(priority=5).job_id == _job(priority=0).job_id

    def test_round_trip(self):
        job = DockingJob(spec={"kind": "case", "case": "7cpa"},
                         config=DockingConfig(backend="baseline",
                                              lga=LGAConfig(pop_size=8)),
                         n_runs=3, seed=spawn_seed(9, 2), priority=-1,
                         label="x")
        back = DockingJob.from_dict(job.to_dict())
        assert back == job
        assert back.job_id == job.job_id


class TestSeedSpecs:
    def test_spawn_seed_materialises_spawned_sequence(self):
        seq = seed_from_spec(spawn_seed(7, 3))
        assert isinstance(seq, np.random.SeedSequence)
        assert seq.entropy == 7
        assert seq.spawn_key == (3,)

    def test_plain_int_passes_through(self):
        assert seed_from_spec(42) == 42

    def test_sibling_jobs_never_share_streams(self):
        """The entropy-spawn contract: spawned job streams are disjoint
        from each other and from any plain-int user seed."""
        a = seed_from_spec(spawn_seed(0, 0))
        b = seed_from_spec(spawn_seed(0, 1))
        user = np.random.SeedSequence(1)   # a plain-int experiment seed
        states = [tuple(s.generate_state(4)) for s in (a, b, user)]
        assert len(set(states)) == 3


class TestJobQueue:
    """A screen queues its whole library as one batch (``stats["queue"]``):
    lower priority first, then library order; one job per content hash;
    nothing the manifest already holds."""

    def test_priority_order_then_fifo(self):
        order = []
        VirtualScreen(cases=["1u4d", "1xoz", "1yv3", "1owe"], config=TINY,
                      n_runs=1, priorities=[5, -1, 0, 0]).run(
            workers=0, stream=lambda r: order.append(r.label))
        assert order == ["1xoz", "1yv3", "1owe", "1u4d"]

    def test_dedup_by_content_hash(self):
        report = VirtualScreen(cases=["1u4d", "1u4d"], config=TINY,
                               n_runs=1).run(workers=0)
        assert report.stats["queue"] == {"submitted": 1, "deduped": 1,
                                         "skipped": 0}
        assert report.stats["jobs_completed"] == 1

    def test_dedup_persists_after_pop(self, tmp_path):
        screen = VirtualScreen(cases=["1u4d"], config=TINY, n_runs=1)
        screen.run(workers=0, manifest=tmp_path / "m")
        again = screen.run(workers=0, manifest=tmp_path / "m", resume=True)
        assert again.stats["queue"]["skipped"] == 1
        assert again.stats["jobs_completed"] == 0
