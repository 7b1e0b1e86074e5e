"""Tests for the content-addressed grid/ligand cache."""

import multiprocessing as mp
from pathlib import Path

import numpy as np
import pytest

from repro.io import pack_rlig, read_maps, write_maps, write_pdbqt
from repro.serve import ContentCache, file_sha256, maps_digest
from repro.serve.cache import load_ligand, load_maps, open_rlig


class TestAccounting:
    def test_hit_miss_counters(self):
        c = ContentCache(1 << 20)
        build_calls = []

        def build():
            build_calls.append(1)
            return np.zeros(8)

        c.get_or_build("k", build)
        c.get_or_build("k", build)
        c.get_or_build("k", build)
        assert len(build_calls) == 1
        s = c.stats()
        assert (s["hits"], s["misses"]) == (2, 1)
        assert s["hit_rate"] == pytest.approx(2 / 3)

    def test_byte_capacity_enforced_with_lru_eviction(self):
        arr = np.zeros(128)          # sizeof = nbytes + 1024 = 2048
        c = ContentCache(3 * 2048)
        for key in "abc":
            c.get_or_build(key, lambda: arr.copy())
        assert len(c) == 3
        c.get_or_build("a", lambda: arr)        # refresh a's LRU slot
        c.get_or_build("d", lambda: arr.copy())  # evicts b (oldest)
        assert c.stats()["evictions"] == 1
        assert c.bytes_used <= c.capacity_bytes
        c.get_or_build("b", lambda: arr.copy())  # miss: b was evicted
        c.get_or_build("a", lambda: arr.copy())  # hit: a survived
        s = c.stats()
        assert s["misses"] == 5 and s["hits"] == 2

    def test_oversize_values_returned_but_not_cached(self):
        c = ContentCache(1024)
        big = np.zeros(1024)         # 8 KiB + overhead > capacity
        out = c.get_or_build("big", lambda: big)
        assert out is big
        assert len(c) == 0
        assert c.stats()["oversize"] == 1

    def test_racing_builders_converge_on_one_object(self):
        """Regression: when two threads missed the same key concurrently,
        the loser's freshly-built object replaced (or bypassed) the
        winner's cached one, so callers of one key could hold different
        instances — breaking the bit-identical-grids invariant."""
        import threading
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        c = ContentCache(1 << 20)
        built = []
        build_lock = threading.Lock()

        def build():
            # every builder returns a distinct object; only one of them
            # may ever be visible to callers
            obj = np.zeros(16)
            with build_lock:
                built.append(obj)
            return obj

        results = [None] * n_threads

        def worker(i):
            barrier.wait()   # maximise the miss/miss overlap
            results[i] = c.get_or_build("k", build)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        first = results[0]
        assert all(r is first for r in results)       # one object per key
        assert first is c.get_or_build("k", build)    # and it is cached
        s = c.stats()
        assert s["hits"] + s["misses"] == n_threads + 1
        # every losing builder is counted as a race; builds that never
        # raced were hits and built nothing
        assert s["races"] == len(built) - 1
        assert s["races"] == s["misses"] - 1
        assert len(c) == 1

    def test_delta_between_snapshots(self):
        c = ContentCache(1 << 20)
        c.get_or_build("a", lambda: np.zeros(4))
        before = c.stats()
        c.get_or_build("a", lambda: np.zeros(4))
        c.get_or_build("b", lambda: np.zeros(4))
        d = ContentCache.delta(before, c.stats())
        assert (d["hits"], d["misses"]) == (1, 1)
        assert d["hit_rate"] == pytest.approx(0.5)


class TestSharedPackReader:
    """``open_rlig``: one shared reader per pack file and process."""

    def test_repack_opens_a_new_reader_and_closes_the_old(
            self, tmp_path, butane_like):
        path = tmp_path / "lib.rlig"
        pack_rlig(path, [butane_like])
        first = open_rlig(path)
        assert open_rlig(str(path)) is first
        pack_rlig(path, [butane_like, butane_like])
        second = open_rlig(path)
        assert second is not first
        assert len(second) == 2
        assert first._mm is None and first._fh is None     # closed
        assert open_rlig(path) is second

    def test_repeated_lookups_resolve_the_path_once(
            self, tmp_path, butane_like, monkeypatch):
        path = tmp_path / "lib.rlig"
        pack_rlig(path, [butane_like])
        resolved = []
        resolve = Path.resolve

        def counting(self, *args, **kwargs):
            resolved.append(str(self))
            return resolve(self, *args, **kwargs)

        monkeypatch.setattr(Path, "resolve", counting)
        readers = {id(open_rlig(path)) for _ in range(5)}
        assert resolved == [str(path)]
        # another name for the same file: resolved once, same reader
        alias = tmp_path / "alias.rlig"
        alias.symlink_to(path)
        readers |= {id(open_rlig(alias)) for _ in range(3)}
        assert resolved == [str(path), str(alias)]
        assert len(readers) == 1


class TestContentAddressing:
    def test_renamed_file_still_hits(self, case_small, tmp_path):
        a = tmp_path / "a.pdbqt"
        b = tmp_path / "same-bytes-other-name.pdbqt"
        write_pdbqt(case_small.ligand, a)
        b.write_bytes(a.read_bytes())
        c = ContentCache(1 << 24)
        load_ligand(a, c)
        load_ligand(b, c)
        assert c.stats()["hits"] == 1

    def test_changed_grid_value_changes_digest(self, case_small, tmp_path):
        fld = write_maps(case_small.maps, tmp_path, stem="r")
        before = maps_digest(fld)
        emap = tmp_path / "r.e.map"
        lines = emap.read_text().splitlines()
        lines[6] = "999.999"                     # first data value
        emap.write_text("\n".join(lines) + "\n")
        assert maps_digest(fld) != before

    def test_digest_stable_across_processes(self, case_small, tmp_path):
        """Content hashes must agree between parent and spawned workers —
        otherwise dedup/resume break across process boundaries."""
        path = tmp_path / "l.pdbqt"
        write_pdbqt(case_small.ligand, path)
        local = file_sha256(path)
        ctx = mp.get_context("spawn")
        with ctx.Pool(1) as pool:
            remote = pool.apply(file_sha256, (str(path),))
        assert remote == local

    def test_job_id_stable_across_processes(self):
        from repro.serve import DockingJob
        job = DockingJob(spec={"kind": "case", "case": "1u4d"}, n_runs=2)
        ctx = mp.get_context("spawn")
        with ctx.Pool(1) as pool:
            remote = pool.apply(_job_id_of, (job,))
        assert remote == job.job_id


def _job_id_of(job):
    return job.job_id


class TestCachedMapsFidelity:
    def test_cached_maps_bit_identical_to_fresh(self, case_small, tmp_path):
        """Property: serving a grid from cache must be invisible — every
        array bit-identical to a freshly parsed copy."""
        fld = write_maps(case_small.maps, tmp_path, stem="r")
        cache = ContentCache(1 << 26)
        load_maps(fld, cache)                    # miss: populates
        cached = load_maps(fld, cache)           # hit: served from cache
        fresh = read_maps(fld)
        assert cache.stats()["hits"] == 1
        for attr in ("affinity", "elec", "desolv_v", "desolv_s"):
            np.testing.assert_array_equal(getattr(cached, attr),
                                          getattr(fresh, attr))
        np.testing.assert_array_equal(cached.origin, fresh.origin)
        assert cached.spacing == fresh.spacing
        assert cached.type_names == fresh.type_names

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cached_scores_identical_to_fresh(self, case_small, tmp_path,
                                              seed):
        """Scoring through cached maps is bit-identical to fresh maps,
        across random pose batches."""
        from repro.docking.scoring import ScoringFunction
        fld = write_maps(case_small.maps, tmp_path, stem="r")
        cache = ContentCache(1 << 26)
        load_maps(fld, cache)
        cached = load_maps(fld, cache)
        fresh = read_maps(fld)
        rng = np.random.default_rng(seed)
        glen = 6 + case_small.ligand.n_rot
        genes = rng.normal(0, 1.0, size=(16, glen))
        s_cached = ScoringFunction(case_small.ligand, cached).score(genes)
        s_fresh = ScoringFunction(case_small.ligand, fresh).score(genes)
        np.testing.assert_array_equal(s_cached, s_fresh)


class TestHashingRobustness:
    def test_file_sha256_streams_in_chunks(self, tmp_path):
        """The digest must match a whole-file hash while reading in
        bounded chunks (multi-chunk files exercise the loop)."""
        import hashlib

        from repro.serve import cache as cache_mod
        payload = bytes(range(256)) * 40_000        # ~10 MB, > HASH_CHUNK
        path = tmp_path / "blob.bin"
        path.write_bytes(payload)
        assert file_sha256(path) == hashlib.sha256(payload).hexdigest()
        assert len(payload) > cache_mod.HASH_CHUNK  # loop actually ran

    def test_file_sha256_concatenates_multiple_files(self, tmp_path):
        import hashlib
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_bytes(b"first")
        b.write_bytes(b"second")
        assert file_sha256(a, b) == \
            hashlib.sha256(b"firstsecond").hexdigest()

    def test_maps_digest_missing_map_raises_parse_error(self, case_small,
                                                        tmp_path):
        """A .fld referencing a deleted .map must raise a structured
        ParseError naming the index and the missing file, not a bare
        FileNotFoundError from deep inside the hasher."""
        from repro.io.errors import ParseError
        fld = write_maps(case_small.maps, tmp_path, stem="r")
        victim = next(tmp_path.glob("r.*.map"))
        victim.unlink()
        with pytest.raises(ParseError) as exc:
            maps_digest(fld)
        assert exc.value.path == fld
        assert victim.name in str(exc.value)
