"""Serve-layer cohort tests: packing, execution, screen integration.

The queue packs compatible :class:`DockingJob` submissions into
:class:`CohortJob` batches (``pack_cohorts``), the pool runs them through
the lock-step engine (``execute_job``), and ``VirtualScreen.run``
exposes the whole path via ``cohort_size``.  The contract throughout is
that packing is invisible in the results: every member payload is
bit-identical to running that member's job alone, and caches/manifests
key results by the member's own content hash.
"""

import json

import pytest

from repro.core import DockingConfig, DockingEngine
from repro.docking.cohort import LigandPack
from repro.io import pack_rlig
from repro.search.lga import LGAConfig
from repro.serve import (VirtualScreen, load_manifest_jobs, rank_records,
                         seed_from_spec, spawn_seed)
from repro.serve.cache import ligand_shape, load_case
from repro.serve.pool import execute_job
from repro.serve.queue import CohortJob, DockingJob, pack_cohorts
from repro.testcases import get_test_case
from repro.testcases.library import case_ligand

TINY = DockingConfig(backend="baseline",
                     lga=LGAConfig(pop_size=8, max_evals=300, max_gens=6,
                                   ls_iters=5, ls_rate=0.25))
OTHER = DockingConfig(backend="baseline",
                      lga=LGAConfig(pop_size=8, max_evals=200, max_gens=6,
                                    ls_iters=5, ls_rate=0.25))


def case_job(name, i=0, n_runs=2, config=TINY, priority=0, label=None):
    return DockingJob(spec={"kind": "case", "case": name}, config=config,
                      n_runs=n_runs, seed=spawn_seed(5, i),
                      priority=priority, label=label or f"{name}/{i}")


class TestCohortJob:
    def test_needs_at_least_one_member(self):
        with pytest.raises(ValueError, match="at least one member"):
            CohortJob(jobs=())

    def test_members_must_share_config_and_runs(self):
        with pytest.raises(ValueError, match="share config"):
            CohortJob(jobs=(case_job("1u4d", 0),
                            case_job("1xoz", 1, config=OTHER)))
        with pytest.raises(ValueError, match="share config"):
            CohortJob(jobs=(case_job("1u4d", 0, n_runs=2),
                            case_job("1xoz", 1, n_runs=3)))

    def test_priority_is_min_of_members(self):
        cohort = CohortJob(jobs=(case_job("1u4d", 0, priority=5),
                                 case_job("1xoz", 1, priority=-2)))
        assert cohort.priority == -2

    def test_id_hashes_ordered_member_ids_not_labels(self):
        a, b = case_job("1u4d", 0), case_job("1xoz", 1)
        forward = CohortJob(jobs=(a, b))
        # the same ligands packed in a different order are a different
        # work unit (the lock-step budget interleaves differently) ...
        assert forward.job_id != CohortJob(jobs=(b, a)).job_id
        # ... but labels are transport, not identity
        assert forward.job_id == CohortJob(jobs=(a, b), label="x").job_id

    def test_roundtrips_through_dict(self):
        cohort = CohortJob(jobs=(case_job("1u4d", 0), case_job("1xoz", 1)),
                           label="pair")
        back = CohortJob.from_dict(
            json.loads(json.dumps(cohort.to_dict())))
        assert back.job_id == cohort.job_id
        assert back.label == "pair"
        assert [j.job_id for j in back.jobs] \
            == [j.job_id for j in cohort.jobs]


class TestPackCohorts:
    def test_passthrough_when_disabled_or_singleton(self):
        jobs = [case_job("1u4d", i) for i in range(3)]
        assert pack_cohorts(jobs, 1) == jobs
        assert pack_cohorts(jobs[:1], 4) == jobs[:1]

    def test_chunks_with_singleton_leftover(self):
        jobs = [case_job("1u4d", i) for i in range(5)]
        packed = pack_cohorts(jobs, 2)
        assert [type(p).__name__ for p in packed] \
            == ["CohortJob", "CohortJob", "DockingJob"]
        member_ids = set()
        for p in packed:
            member_ids |= ({m.job_id for m in p.jobs}
                           if isinstance(p, CohortJob) else {p.job_id})
        assert member_ids == {j.job_id for j in jobs}

    def test_incompatible_jobs_never_share_a_cohort(self):
        jobs = [case_job("1u4d", 0), case_job("1xoz", 1),
                case_job("1yv3", 2, config=OTHER),
                case_job("1owe", 3, config=OTHER),
                case_job("7cpa", 4, n_runs=3), case_job("7cpa", 5, n_runs=3)]
        packed = pack_cohorts(jobs, 4)
        assert all(isinstance(p, CohortJob) for p in packed)
        assert sorted(len(p.jobs) for p in packed) == [2, 2, 2]
        for p in packed:
            # CohortJob.__post_init__ would also have raised on a mix
            assert len({(json.dumps(m.config.to_dict(), sort_keys=True),
                         m.n_runs) for m in p.jobs}) == 1

    def test_members_sorted_by_ligand_size(self):
        # deliberately shuffled sizes: packing sorts by ligand_shape
        # (atoms first), largest first, so each cohort holds
        # similarly-sized ligands (low pad_ratio)
        names = ["7cpa", "1u4d", "1xoz", "1yv3", "1owe", "7cpa"]
        packed = pack_cohorts([case_job(n, i)
                               for i, n in enumerate(names)], 3)
        assert all(isinstance(p, CohortJob) for p in packed)
        keys = [k for p in packed
                for k in [ligand_shape(m.spec) for m in p.jobs]]
        assert keys == sorted(keys, reverse=True)

    def test_cohorts_keep_priority_order(self):
        """Size sorting stays within a priority level: the two largest
        ligands at priority 0 used to be packed behind the priority-1
        pair, and the pool dispatched that cohort first."""
        names, priorities = ["1z95", "2bai", "1u4d", "1xoz"], [0, 0, 1, 1]
        packed = pack_cohorts([case_job(n, i, priority=p)
                               for i, (n, p) in enumerate(zip(names,
                                                              priorities))],
                              2)
        assert [p.label for p in packed] \
            == ["cohort[2bai/1..1z95/0]", "cohort[1xoz/3..1u4d/2]"]
        assert [p.priority for p in packed] == [0, 1]

    def test_equal_shapes_keep_arrival_order(self):
        jobs = [case_job("1xoz", i) for i in range(3)] \
            + [case_job("7cpa", i) for i in range(3, 6)]
        packed = pack_cohorts(jobs, 3)
        assert [[m.label for m in p.jobs] for p in packed] \
            == [["7cpa/3", "7cpa/4", "7cpa/5"],
                ["1xoz/0", "1xoz/1", "1xoz/2"]]

    def test_rlig_library_packs_largest_first(self, tmp_path):
        """A ``.rlig`` spec used to carry no size, so a library packed in
        library order: every cohort padded to whichever large ligand
        happened to land in it.  Sorted by the record's meta header, the
        first cohort holds the largest ligands and the cohorts' summed
        ``LigandPack.pad_ratio`` falls."""
        names = ["7cpa", "1u4d", "1kzk", "1gpk", "1owe", "1n1m", "1t46",
                 "1jyq"]                      # N_rot shuffled over 0..18
        pack = tmp_path / "lib.rlig"
        pack_rlig(pack, [case_ligand(n) for n in names])
        jobs = [DockingJob(spec={"kind": "rlig", "pack": str(pack),
                                 "index": i, "case": "7cpa"},
                           config=TINY, n_runs=2, seed=spawn_seed(5, i),
                           label=name)
                for i, name in enumerate(names)]
        packed = pack_cohorts(jobs, 4)
        assert all(isinstance(p, CohortJob) for p in packed)

        def pad(chunks):
            return sum(LigandPack([load_case(m.spec).scoring()
                                   for m in chunk]).pad_ratio
                       for chunk in chunks)

        library_order = pad([jobs[:4], jobs[4:]])
        assert pad([p.jobs for p in packed]) < library_order
        by_size = sorted(names, key=lambda n: case_ligand(n).n_atoms,
                         reverse=True)
        assert {m.label for m in packed[0].jobs} == set(by_size[:4])


class TestExecuteCohort:
    def test_member_payloads_bit_equal_to_solo_jobs(self):
        jobs = [case_job(n, i)
                for i, n in enumerate(("1u4d", "1xoz", "7cpa"))]
        got = execute_job(CohortJob(jobs=tuple(jobs)))
        assert got["cohort_size"] == 3
        assert [m["job_id"] for m in got["members"]] \
            == [j.job_id for j in jobs]
        for job, member in zip(jobs, got["members"]):
            [want] = execute_job(job)["members"]
            solo = dict(want["payload"]["result"])
            packed = dict(member["payload"]["result"])
            # wall time is measurement, not result
            solo.pop("runtime_seconds")
            packed.pop("runtime_seconds")
            assert packed == solo, job.label

    def test_a_job_is_a_unit_of_one(self):
        """One executor, one payload shape: a plain job returns the same
        keys as a 3-member cohort, at every level."""
        jobs = [case_job(n, i)
                for i, n in enumerate(("1u4d", "1xoz", "7cpa"))]
        assert jobs[0].jobs == (jobs[0],)
        solo = execute_job(jobs[0])
        packed = execute_job(CohortJob(jobs=tuple(jobs)))
        assert solo.keys() == packed.keys() \
            == {"members", "wall_seconds", "cohort_size", "cache"}
        assert (solo["cohort_size"], len(solo["members"])) == (1, 1)
        for member in solo["members"] + packed["members"]:
            assert member.keys() == {"job_id", "label", "payload"}
            assert member["payload"].keys() == {"result", "wall_seconds"}

    def test_history_flag_passes_through(self):
        jobs = (case_job("1u4d", 0), case_job("1xoz", 1))
        got = execute_job(CohortJob(jobs=jobs), include_history=True)
        runs = got["members"][0]["payload"]["result"]["runs"]
        assert all(r.get("history") for r in runs)


class TestScreenCohort:
    def test_cohort_screen_matches_plain_screen(self):
        names = ["1u4d", "1xoz", "1yv3", "1owe"]
        plain = VirtualScreen(cases=names, config=TINY, n_runs=2,
                              seed=7).run(workers=0)
        packed = VirtualScreen(cases=names, config=TINY, n_runs=2,
                               seed=7).run(workers=0, cohort_size=4)
        assert packed.stats["jobs_failed"] == 0
        strip = [[{k: v for k, v in hit.items() if k != "wall_seconds"}
                  for hit in rep.ranking] for rep in (plain, packed)]
        assert strip[0] == strip[1]

    def test_cohort_screen_matches_sequential_engine(self):
        names = ["1u4d", "1xoz", "1yv3", "1owe"]
        report = VirtualScreen(cases=names, config=TINY, n_runs=2,
                               seed=7).run(workers=2, cohort_size=2)
        assert report.stats["jobs_failed"] == 0
        expected = {}
        for i, name in enumerate(names):
            expected[name] = DockingEngine(get_test_case(name), TINY).dock(
                n_runs=2, seed=seed_from_spec(spawn_seed(7, i))).best_score
        got = {hit["label"]: hit["best_score"] for hit in report.ranking}
        assert got == expected

    def test_cohort_resume_sees_through_packing(self, tmp_path):
        """Results are keyed per member: a cohort_size=1 manifest fully
        satisfies a cohort_size=4 resume (zero new work) and vice versa."""
        names = ["1u4d", "1xoz", "1yv3", "1owe"]
        manifest = tmp_path / "manifest.json"
        first = VirtualScreen(cases=names, config=TINY, n_runs=2,
                              seed=3).run(workers=0, manifest=manifest,
                                          cohort_size=4)
        assert first.stats["jobs_completed"] == 4
        # the log holds one record per member, never one per cohort
        persisted = load_manifest_jobs(manifest)
        assert sorted(persisted) == sorted(first.results)
        assert rank_records(persisted.values()) == first.ranking
        resumed = VirtualScreen(cases=names, config=TINY, n_runs=2,
                                seed=3).run(workers=0, manifest=manifest,
                                            resume=True, cohort_size=1)
        assert resumed.stats["jobs_completed"] == 0
        assert resumed.stats["jobs_cached"] == 4
