"""Tests for the NDJSON manifest log: logs, screens, ranking, merge tool."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core import DockingConfig
from repro.io import pack_rlig, write_maps, write_pdbqt
from repro.search.lga import LGAConfig
from repro.serve import ShardedManifest, VirtualScreen, shard_for
from repro.serve.manifest import (atomic_write_json, load_manifest_jobs,
                                  rank_records)
from repro.testcases import get_test_case

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from tools.merge_manifests import merge  # noqa: E402

TINY = DockingConfig(backend="baseline",
                     lga=LGAConfig(pop_size=8, max_evals=300, max_gens=6,
                                   ls_iters=5, ls_rate=0.25))


def _jid(i):
    """Realistic content-hash job id (uniform leading hex digits)."""
    import hashlib
    return hashlib.sha256(f"job-{i}".encode()).hexdigest()[:16]


def _rec(i, score, status="ok"):
    return {"job_id": _jid(i), "label": f"lig{i}", "status": status,
            "result": {"runs": [{"best_score": score}],
                       "total_evals": 100}}


@pytest.fixture()
def ligand_library(case_small, tmp_path):
    fld = write_maps(case_small.maps, tmp_path, stem="receptor")
    rng = np.random.default_rng(0)
    paths = []
    for i in range(4):
        path = tmp_path / f"lig{i}.pdbqt"
        jitter = rng.normal(0, 0.05,
                            size=case_small.ligand.ref_coords.shape)
        write_pdbqt(case_small.ligand, path,
                    coords=case_small.ligand.ref_coords + jitter)
        paths.append(str(path))
    return fld, paths


class TestShardedLog:
    def test_append_partitions_by_content_hash(self, tmp_path):
        sm = ShardedManifest(tmp_path / "m", n_shards=4)
        for i in range(32):
            shard = sm.append(_rec(i, float(i)))
            assert shard == shard_for(_jid(i), 4)
        sm.close()
        used = [s for s in range(4) if sm.shard_path(s).is_file()]
        assert len(used) > 1            # hash actually spreads records

    def test_load_is_last_record_wins(self, tmp_path):
        sm = ShardedManifest(tmp_path / "m", n_shards=2)
        sm.append(_rec(1, -1.0))
        sm.append(_rec(2, -2.0))
        sm.append(_rec(1, -9.0, status="cached"))   # supersedes
        sm.close()
        jobs = sm.load()
        assert len(jobs) == 2
        assert jobs[_jid(1)]["status"] == "cached"
        assert jobs[_jid(1)]["result"]["runs"][0]["best_score"] == -9.0

    def test_compact_squeezes_superseded_records(self, tmp_path):
        sm = ShardedManifest(tmp_path / "m", n_shards=1)
        for _ in range(3):
            sm.append(_rec(7, -1.0))
        sm.close()
        assert len(sm.shard_path(0).read_text().splitlines()) == 3
        before = sm.load()
        sm.compact()
        assert len(sm.shard_path(0).read_text().splitlines()) == 1
        assert sm.load() == before

    def test_torn_tail_is_skipped(self, tmp_path):
        sm = ShardedManifest(tmp_path / "m", n_shards=1)
        sm.append(_rec(1, -1.0))
        sm.close()
        with open(sm.shard_path(0), "a") as fh:
            fh.write('{"job_id": "feed", "stat')     # crash mid-append
        jobs = ShardedManifest(tmp_path / "m").load()
        assert list(jobs) == [_jid(1)]

    def test_append_after_torn_tail_keeps_new_record(self, tmp_path):
        """Regression: the first append after a crash mid-append was
        glued onto the torn line, so a resumed screen lost it on load."""
        sm = ShardedManifest(tmp_path / "m", n_shards=1)
        sm.append(_rec(1, -1.0))
        sm.close()
        with open(sm.shard_path(0), "a") as fh:
            fh.write('{"job_id": "feed", "stat')     # crash mid-append
        resumed = ShardedManifest(tmp_path / "m")
        resumed.append(_rec(2, -2.0))
        resumed.close()
        assert sorted(resumed.load()) == sorted([_jid(1), _jid(2)])

    def test_single_file_manifest_is_read_only(self, tmp_path):
        legacy = tmp_path / "m.json"
        legacy.write_text(json.dumps({"version": 1, "jobs": {}}))
        assert load_manifest_jobs(legacy) == {}
        with pytest.raises(ValueError, match="read-only"):
            ShardedManifest(legacy, n_shards=1)

    def test_meta_pins_shard_count_across_reopen(self, tmp_path):
        ShardedManifest(tmp_path / "m", n_shards=3).close()
        sm = ShardedManifest(tmp_path / "m", n_shards=16)
        assert sm.n_shards == 3          # existing partition wins
        with pytest.raises(ValueError, match="n_shards"):
            ShardedManifest(tmp_path / "new")

    def test_atomic_write_json_is_thread_safe(self, tmp_path):
        """Regression: a PID-only tmp suffix collided between the
        gateway's shard threads — one thread's ``os.replace`` consumed
        the shared tmp and the other's raised ``FileNotFoundError``,
        dead-lettering its job."""
        path = tmp_path / "m.json"
        errors = []

        def hammer(tag):
            try:
                for i in range(200):
                    atomic_write_json(path, {"tag": tag, "i": i},
                                      indent=None)
            except OSError as exc:      # pragma: no cover - regression
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert json.loads(path.read_text())["i"] == 199

    def test_load_manifest_jobs_dispatches_on_disk_format(self, tmp_path):
        sm = ShardedManifest(tmp_path / "m", n_shards=2)
        sm.append(_rec(5, -5.0))
        sm.close()
        assert list(load_manifest_jobs(tmp_path / "m")) == [_jid(5)]

        single = tmp_path / "single.json"
        single.write_text(json.dumps(
            {"version": 1, "jobs": {"aa": _rec(0, -1.0)}}))
        assert list(load_manifest_jobs(single)) == ["aa"]


class TestScreenSharded:
    def test_sharded_ranking_equals_single_file(self, ligand_library,
                                                tmp_path):
        """A 2-shard log ranks exactly like the 1-shard (single-file)
        log of the same screen, in the report and on disk."""
        fld, ligs = ligand_library
        single = VirtualScreen(fld=fld, ligands=ligs, config=TINY,
                               n_runs=2, seed=3)
        ref = single.run(workers=0, manifest=tmp_path / "one")
        assert ShardedManifest(tmp_path / "one").n_shards == 1

        sharded = VirtualScreen(fld=fld, ligands=ligs, config=TINY,
                                n_runs=2, seed=3)
        rep = sharded.run(workers=0, manifest=tmp_path / "shards",
                          manifest_shards=2)
        assert ShardedManifest(tmp_path / "shards").n_shards == 2
        assert rep.ranking == ref.ranking
        for path in (tmp_path / "one", tmp_path / "shards"):
            assert rank_records(
                load_manifest_jobs(path).values()) == ref.ranking

    def test_sharded_resume_skips_completed_work(self, ligand_library,
                                                 tmp_path):
        fld, ligs = ligand_library
        manifest = tmp_path / "shards"
        first = VirtualScreen(fld=fld, ligands=ligs, config=TINY,
                              n_runs=1, seed=5)
        first.run(workers=0, manifest=manifest, manifest_shards=2)

        resumed = VirtualScreen(fld=fld, ligands=ligs, config=TINY,
                                n_runs=1, seed=5)
        rep = resumed.run(workers=0, manifest=manifest, resume=True)
        assert rep.stats["jobs_completed"] == 0
        assert rep.stats["jobs_cached"] == 4

        # and a third resume still does nothing ("cached" stays terminal)
        again = VirtualScreen(fld=fld, ligands=ligs, config=TINY,
                              n_runs=1, seed=5)
        rep2 = again.run(workers=0, manifest=manifest, resume=True)
        assert rep2.stats["jobs_completed"] == 0
        assert rep2.stats["jobs_cached"] == 4


class TestMergeTool:
    def test_merge_matches_screen_ranking(self, ligand_library, tmp_path):
        fld, ligs = ligand_library
        screen = VirtualScreen(fld=fld, ligands=ligs, config=TINY,
                               n_runs=2, seed=3)
        rep = screen.run(workers=0, manifest=tmp_path / "shards",
                         manifest_shards=2)
        merged = merge([tmp_path / "shards"])
        assert merged["ranking"] == rep.ranking
        assert merged["stats"]["jobs_total"] == 4

    def test_later_inputs_win_and_rank_sorts(self, tmp_path):
        a = ShardedManifest(tmp_path / "a", n_shards=2)
        a.append(_rec(1, -1.0))
        a.append(_rec(2, -5.0))
        a.close()
        b = ShardedManifest(tmp_path / "b", n_shards=3)
        b.append(_rec(1, -8.0))          # supersedes a's record
        b.append(_rec(3, -2.0, status="failed"))   # unranked
        b.close()
        doc = merge([tmp_path / "a", tmp_path / "b"])
        assert doc["stats"]["jobs_total"] == 3
        scores = [r["best_score"] for r in doc["ranking"]]
        assert scores == [-8.0, -5.0]
        assert [r["rank"] for r in doc["ranking"]] == [1, 2]
        assert rank_records(doc["jobs"].values()) == doc["ranking"]

    def test_ranking_ties_break_by_job_id(self, tmp_path):
        records = [_rec(i, -3.0) for i in range(5)]
        want = sorted(r["job_id"] for r in records)
        for order in (records, records[::-1]):
            assert [r["job_id"] for r in rank_records(order)] == want
        # the same records split over 1 or 3 shards merge to one order
        for n in (1, 3):
            sm = ShardedManifest(tmp_path / f"m{n}", n_shards=n)
            for rec in records[::-1]:
                sm.append(rec)
            sm.close()
            assert [r["job_id"] for r in
                    merge([tmp_path / f"m{n}"])["ranking"]] == want

    def test_ranks_gateway_records(self, tmp_path):
        """Regression: a gateway record nests the JobResult under
        ``result``, so the docking result sits one level deeper; the
        merge tool used to rank none of a gateway log's jobs."""
        from repro.gateway import Gateway, GatewayClient, GatewayConfig
        cfg = GatewayConfig(port=0, n_shards=2, workers=0, poll_s=0.01,
                            manifest=str(tmp_path / "gw"),
                            manifest_shards=2)
        gw = Gateway(cfg).start()
        try:
            client = GatewayClient(f"http://127.0.0.1:{gw.port}")
            client.submit_batch([
                {"case": "1u4d", "n_runs": 1, "evals": 200, "pop": 10,
                 "ls_iters": 5, "backend": "baseline",
                 "seed": {"entropy": 42, "index": i}} for i in range(3)])
            streamed = list(client.stream())
        finally:
            gw.stop()
        assert [r["status"] for r in streamed] == ["ok"] * 3
        doc = merge([tmp_path / "gw"])
        assert len(doc["ranking"]) == 3
        scores = [r["best_score"] for r in doc["ranking"]]
        assert scores == sorted(r["best_score"] for r in streamed)

    def test_cli_writes_merged_manifest(self, tmp_path, capsys):
        from tools.merge_manifests import main as merge_main
        sm = ShardedManifest(tmp_path / "m", n_shards=2)
        for i in range(6):
            sm.append(_rec(i, float(-i)))
        sm.close()
        out = tmp_path / "merged.json"
        assert merge_main([str(tmp_path / "m"), "--out", str(out),
                           "--top", "3"]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["ranking"]) == 6
        assert doc["version"] == 1
        printed = capsys.readouterr().out
        assert "6 jobs" in printed

    def test_unreadable_manifest_is_an_error(self, tmp_path, capsys):
        from tools.merge_manifests import main as merge_main
        assert merge_main([str(tmp_path / "nope")]) == 1
        assert "merge_manifests" in capsys.readouterr().err

    def test_runs_without_pythonpath(self, tmp_path):
        """CI's merge step sets no PYTHONPATH: the tool finds src/."""
        sm = ShardedManifest(tmp_path / "m", n_shards=2)
        for i in range(3):
            sm.append(_rec(i, float(-i)))
        sm.close()
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "merge_manifests.py"),
             str(tmp_path / "m")], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "3 jobs, 3 ranked" in proc.stdout


class TestScreenCLI:
    def test_pack_then_screen_with_store_and_shards(self, case_small,
                                                    tmp_path, capsys):
        fld = write_maps(case_small.maps, tmp_path, stem="receptor")
        rng = np.random.default_rng(1)
        pdbqt_dir = tmp_path / "ligs"
        pdbqt_dir.mkdir()
        for i in range(3):
            jitter = rng.normal(0, 0.05,
                                size=case_small.ligand.ref_coords.shape)
            write_pdbqt(case_small.ligand, pdbqt_dir / f"l{i}.pdbqt",
                        coords=case_small.ligand.ref_coords + jitter)
        pack = tmp_path / "lib.rlig"
        assert main(["pack", str(pdbqt_dir), "--out", str(pack)]) == 0
        assert "Packed 3 ligands" in capsys.readouterr().out

        argv = ["screen", "-ffile", str(fld), "--library", str(pack),
                "--workers", "0", "-nrun", "1", "--evals", "200",
                "--pop", "8", "--lsit", "4", "--tensor", "baseline",
                "--manifest", str(tmp_path / "shards"),
                "--manifest-shards", "2",
                "--store", str(tmp_path / "store")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "3 new, 0 cached" in out
        assert ShardedManifest.is_sharded(tmp_path / "shards")
        assert (tmp_path / "store" / "maps").is_dir()

        assert main(argv + ["--resume"]) == 0
        assert "0 new, 3 cached" in capsys.readouterr().out

    def test_library_and_ligands_are_exclusive(self, tmp_path, capsys):
        assert main(["screen", "-ffile", "r.fld", "-l", "a.pdbqt",
                     "--library", "lib.rlig"]) == 2
