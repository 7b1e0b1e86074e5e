"""Tests for VirtualScreen: manifests, resume, ranking, CLI."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import DockingConfig, DockingEngine
from repro.io import write_maps, write_pdbqt
from repro.search.lga import LGAConfig
from repro.serve import (VirtualScreen, load_manifest_jobs, seed_from_spec,
                         spawn_seed)
from repro.testcases import get_test_case

TINY = DockingConfig(backend="baseline",
                     lga=LGAConfig(pop_size=8, max_evals=300, max_gens=6,
                                   ls_iters=5, ls_rate=0.25))


@pytest.fixture()
def ligand_library(case_small, tmp_path):
    """A receptor map set + 4 distinct ligand poses sharing it."""
    fld = write_maps(case_small.maps, tmp_path, stem="receptor")
    rng = np.random.default_rng(0)
    paths = []
    for i in range(4):
        path = tmp_path / f"lig{i}.pdbqt"
        jitter = rng.normal(0, 0.05, size=case_small.ligand.ref_coords.shape)
        write_pdbqt(case_small.ligand, path,
                    coords=case_small.ligand.ref_coords + jitter)
        paths.append(str(path))
    return fld, paths


class TestConstruction:
    def test_exactly_one_target_style(self):
        with pytest.raises(ValueError, match="exactly one"):
            VirtualScreen()
        with pytest.raises(ValueError, match="exactly one"):
            VirtualScreen(cases=["1u4d"], case="1u4d", ligands=["x"])

    def test_ligand_styles_need_ligands(self):
        with pytest.raises(ValueError, match="ligand file"):
            VirtualScreen(case="1u4d")

    def test_priorities_length_checked(self):
        with pytest.raises(ValueError, match="priorities"):
            VirtualScreen(cases=["1u4d", "1xoz"], priorities=[1])

    def test_jobs_are_content_addressed_and_seed_spawned(
            self, ligand_library):
        fld, ligs = ligand_library
        screen = VirtualScreen(fld=fld, ligands=ligs, config=TINY,
                               n_runs=2, seed=11)
        jobs = screen.jobs()
        assert len({j.job_id for j in jobs}) == 4
        assert [j.seed for j in jobs] == [spawn_seed(11, i)
                                         for i in range(4)]
        assert all(j.spec["fld_sha256"] == jobs[0].spec["fld_sha256"]
                   for j in jobs)


class TestScreenRun:
    def test_ranking_matches_sequential_engine(self):
        """Acceptance: ranked manifest best scores == sequential dock."""
        names = ["1u4d", "1xoz", "1yv3", "1owe"]
        screen = VirtualScreen(cases=names, config=TINY, n_runs=2, seed=7)
        report = screen.run(workers=2)
        assert report.stats["jobs_failed"] == 0
        assert len(report.ranking) == 4
        expected = {}
        for i, name in enumerate(names):
            expected[name] = DockingEngine(get_test_case(name), TINY).dock(
                n_runs=2, seed=seed_from_spec(spawn_seed(7, i))).best_score
        got = {hit["label"]: hit["best_score"] for hit in report.ranking}
        assert got == expected
        scores = [hit["best_score"] for hit in report.ranking]
        assert scores == sorted(scores)

    def test_resume_does_zero_new_work(self, ligand_library, tmp_path):
        """Acceptance: a second --resume invocation re-docks nothing."""
        fld, ligs = ligand_library
        manifest = tmp_path / "manifest.json"
        screen = VirtualScreen(fld=fld, ligands=ligs, config=TINY,
                               n_runs=2, seed=3)
        first = screen.run(workers=0, manifest=manifest)
        assert first.stats["jobs_completed"] == 4
        assert first.stats["cache"]["hits"] > 0   # shared receptor

        second = VirtualScreen(fld=fld, ligands=ligs, config=TINY,
                               n_runs=2, seed=3)
        resumed = second.run(workers=0, manifest=manifest, resume=True)
        assert resumed.stats["jobs_completed"] == 0
        assert resumed.stats["jobs_cached"] == 4
        # same ranking, modulo ok -> cached status
        strip = [[{k: v for k, v in hit.items() if k != "status"}
                  for hit in rep.ranking] for rep in (first, resumed)]
        assert strip[0] == strip[1]

    def test_interrupted_screen_resumes_without_rerunning(
            self, ligand_library, tmp_path):
        """Kill after 2 of 4 jobs; resume runs exactly the missing 2."""
        fld, ligs = ligand_library
        manifest = tmp_path / "manifest.json"
        screen = VirtualScreen(fld=fld, ligands=ligs, config=TINY,
                               n_runs=2, seed=3)

        class Interrupt(Exception):
            pass

        seen = []

        def die_after_two(result):
            seen.append(result.job_id)
            if len(seen) == 2:
                raise Interrupt()

        with pytest.raises(Interrupt):
            screen.run(workers=0, manifest=manifest, stream=die_after_two)
        # the manifest log survived the crash with 2 terminal jobs
        assert len(load_manifest_jobs(manifest)) == 2

        resumed = VirtualScreen(fld=fld, ligands=ligs, config=TINY,
                                n_runs=2, seed=3).run(
            workers=0, manifest=manifest, resume=True)
        assert resumed.stats["jobs_cached"] == 2
        assert resumed.stats["jobs_completed"] == 2
        assert len(resumed.ranking) == 4
        ran_ids = {r.job_id for r in resumed.results.values()
                   if r.status == "ok"}
        assert ran_ids.isdisjoint(seen)           # no job ran twice

    def test_duplicate_ligands_deduped(self, ligand_library, tmp_path):
        fld, ligs = ligand_library
        copy = tmp_path / "copy-of-lig0.pdbqt"
        copy.write_bytes((tmp_path / "lig0.pdbqt").read_bytes())
        screen = VirtualScreen(fld=fld, ligands=[ligs[0], str(copy)],
                               config=TINY, n_runs=2, seed=3)
        report = screen.run(workers=0)
        assert report.stats["queue"]["deduped"] == 1
        assert report.stats["jobs_total"] == 1

    def test_priorities_order_execution(self, ligand_library):
        fld, ligs = ligand_library
        order = []
        screen = VirtualScreen(fld=fld, ligands=ligs, config=TINY,
                               n_runs=2, seed=3,
                               priorities=[3, 2, 1, 0])
        screen.run(workers=0, stream=lambda r: order.append(r.label))
        assert order == ["lig3", "lig2", "lig1", "lig0"]

    def test_resume_requires_manifest(self):
        screen = VirtualScreen(cases=["1u4d"], config=TINY, n_runs=2)
        with pytest.raises(ValueError, match="manifest"):
            screen.run(workers=0, resume=True)


class TestTracedScreen:
    def test_traced_run_emits_valid_log_and_heartbeats(
            self, ligand_library, tmp_path):
        """Acceptance: a traced screen writes a schema-valid JSONL log
        covering every pipeline stage, and the manifest stats carry the
        workers' last heartbeats (liveness, job counts, cache stats)."""
        from repro.obs import summarize_log, validate_log

        fld, ligs = ligand_library
        trace = tmp_path / "trace.jsonl"
        manifest = tmp_path / "manifest.json"
        screen = VirtualScreen(fld=fld, ligands=ligs, config=TINY,
                               n_runs=2, seed=3)
        report = screen.run(workers=0, manifest=manifest, trace=trace)
        assert report.stats["jobs_failed"] == 0

        counts = validate_log(trace)          # raises SchemaError if bad
        assert counts["spans"] > 0 and counts["points"] > 0
        assert counts["sources"] == ["main"]  # inline run: one process

        summary = summarize_log(trace)
        for stage in ("screen.run", "job.execute", "engine.dock",
                      "lga.run", "adadelta.minimize"):
            assert summary["spans"][stage]["count"] >= 1, stage
        # one screen.run wrapping everything
        assert summary["spans"]["screen.run"]["count"] == 1
        assert summary["jobs"]["completed"] == 4

        # heartbeats surfaced in report stats AND the persisted manifest
        hb = report.stats["heartbeats"]
        assert hb and all("cache" in v for v in hb.values())
        persisted = json.loads((manifest / "meta.json").read_text())
        assert persisted["stats"]["heartbeats"].keys() == hb.keys()

    def test_trace_spans_nest_under_screen_run(self, tmp_path):
        """Every span in the log must reach the screen.run root through
        parent_id links (one trace tree per process)."""
        from repro.obs.schema import read_log

        trace = tmp_path / "trace.jsonl"
        screen = VirtualScreen(cases=["1u4d"], config=TINY, n_runs=1,
                               seed=5)
        screen.run(workers=0, trace=trace)

        spans = {r["span_id"]: r for _, r in read_log(trace)
                 if r["type"] == "span"}
        roots = [s for s in spans.values() if s["parent_id"] is None]
        assert [s["name"] for s in roots] == ["screen.run"]
        for s in spans.values():
            hops = 0
            while s["parent_id"] is not None:
                s = spans[s["parent_id"]]
                hops += 1
                assert hops < 100
            assert s["name"] == "screen.run"

    @pytest.mark.parametrize("cohort_size", [1, 2])
    def test_every_unit_records_one_execute_and_one_dock_span(
            self, tmp_path, cohort_size):
        """A job is a cohort of one: whatever the packing, each work unit
        opens one ``job.execute`` span and one ``engine.dock`` span, both
        carrying the unit's member count, and no ``*_cohort`` span."""
        from repro.obs.schema import read_log

        trace = tmp_path / "trace.jsonl"
        screen = VirtualScreen(cases=["1u4d", "1xoz"], config=TINY,
                               n_runs=1, seed=5)
        screen.run(workers=0, trace=trace, cohort_size=cohort_size)

        spans = [r for _, r in read_log(trace) if r["type"] == "span"]
        units = 2 // cohort_size
        for name in ("job.execute", "engine.dock"):
            cohorts = [s["attrs"]["cohort"] for s in spans
                       if s["name"] == name]
            assert cohorts == [cohort_size] * units, name
        assert [s["name"] for s in spans
                if s["name"].endswith("_cohort")] == []

    def test_untraced_run_writes_no_log(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        screen = VirtualScreen(cases=["1u4d"], config=TINY, n_runs=1)
        screen.run(workers=0)
        assert not trace.exists()

    def test_traced_run_does_not_leak_its_tracer(self, tmp_path):
        """The tracer a traced screen installs ends with the screen: a
        later untraced screen in the same process must not append to its
        log.  A tracer the caller configured is left alone."""
        from repro.obs import NullTracer, configure, get_tracer

        trace = tmp_path / "trace.jsonl"
        screen = VirtualScreen(cases=["1u4d"], config=TINY, n_runs=1)
        screen.run(workers=0, trace=trace)
        lines = trace.read_text().splitlines()
        assert isinstance(get_tracer(), NullTracer)
        screen.run(workers=0)
        assert trace.read_text().splitlines() == lines

        mine = configure(tmp_path / "caller.jsonl")
        screen.run(workers=0)
        assert get_tracer() is mine
        assert any(r["name"] == "screen.run" for r in mine.records())


class TestScreenCli:
    def test_end_to_end_with_resume(self, ligand_library, tmp_path,
                                    capsys):
        fld, ligs = ligand_library
        manifest = str(tmp_path / "m.json")
        argv = ["screen", "-ffile", str(fld), "-l", *ligs,
                "--workers", "0", "-nrun", "2", "--evals", "300",
                "--pop", "8", "--lsit", "5", "--tensor", "baseline",
                "--manifest", manifest]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "4 new, 0 cached" in out
        assert "Top hits" in out
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "0 new, 4 cached" in out

    def test_target_style_required(self, capsys):
        assert main(["screen", "-l", "x.pdbqt"]) == 2
        assert main(["screen", "-case", "1u4d"]) == 2

    def test_screen_named_cases(self, capsys, tmp_path):
        rc = main(["screen", "--cases", "1u4d", "1xoz", "--workers", "0",
                   "-nrun", "1", "--evals", "200", "--pop", "8",
                   "--lsit", "4", "--tensor", "baseline",
                   "--manifest", str(tmp_path / "m.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Screening 2 ligands" in out


class TestScreenExitCodes:
    """CLI exit contract: 0 clean, 1 plain failures, 3 dead letters
    unless the operator accepts them with --allow-dead."""

    def _chaotic_main(self, monkeypatch, poison_case):
        """Route the screen CLI through a VirtualScreen that poisons
        one case, producing a dead-lettered job."""
        import repro.serve as serve_mod
        real = serve_mod.VirtualScreen

        def chaotic(*args, **kwargs):
            kwargs["chaos"] = {poison_case: {"poison_nonfinite": True}}
            return real(*args, **kwargs)

        monkeypatch.setattr(serve_mod, "VirtualScreen", chaotic)

    def _argv(self, tmp_path, *extra):
        return ["screen", "--cases", "1u4d", "1xoz", "--workers", "0",
                "-nrun", "1", "--evals", "200", "--pop", "8",
                "--lsit", "4", "--tensor", "baseline", "--retries", "0",
                "--manifest", str(tmp_path / "m.json"), *extra]

    def test_dead_letters_fail_with_exit_3(self, monkeypatch, tmp_path,
                                           capsys):
        self._chaotic_main(monkeypatch, "1u4d")
        assert main(self._argv(tmp_path)) == 3
        err = capsys.readouterr().err
        assert "dead-lettered" in err
        assert "--allow-dead" in err
        assert "--retry-dead" in err

    def test_allow_dead_accepts_partial_results(self, monkeypatch,
                                                tmp_path, capsys):
        self._chaotic_main(monkeypatch, "1u4d")
        assert main(self._argv(tmp_path, "--allow-dead")) == 0
        out = capsys.readouterr().out
        assert "accepted (--allow-dead)" in out

    def test_clean_screen_still_exits_zero(self, tmp_path, capsys):
        assert main(self._argv(tmp_path)) == 0
        capsys.readouterr()

    def test_heartbeat_flag_threads_through_to_pool(self, tmp_path,
                                                    capsys):
        """--heartbeat reaches the workers: the trace log's heartbeats
        carry the configured cadence."""
        from repro.obs.schema import read_log
        trace = tmp_path / "t.jsonl"
        rc = main(self._argv(tmp_path, "--heartbeat", "0.75",
                             "--trace", str(trace)))
        assert rc == 0
        capsys.readouterr()
        beats = [rec for _, rec in read_log(trace)
                 if rec.get("name") == "worker.heartbeat"]
        assert beats
        assert all(b["attrs"]["interval_s"] == 0.75 for b in beats)
