"""Tests for the disk-backed blob store and the two-tier cache."""

import hashlib
import multiprocessing as mp

import numpy as np
import pytest

from repro.io import read_maps, write_maps
from repro.serve import BlobStore, ContentCache
from repro.serve.cache import load_maps, sizeof
from repro.serve.store import GridMapsCodec, codec_for_key


class TestBlobStore:
    def test_put_get_round_trip(self, tmp_path):
        store = BlobStore(tmp_path / "store")
        arrays = {"a": np.arange(12.0).reshape(3, 4),
                  "b": np.arange(5, dtype=np.int32)}
        meta = {"codec": "unit/v1", "note": "x"}
        assert store.put("maps/" + "ab" * 32, arrays, meta) is True
        got = store.get("maps/" + "ab" * 32)
        assert got is not None
        out, out_meta = got
        assert out_meta == meta
        np.testing.assert_array_equal(out["a"], arrays["a"])
        np.testing.assert_array_equal(out["b"], arrays["b"])

    def test_second_put_is_a_noop(self, tmp_path):
        store = BlobStore(tmp_path / "store")
        key = "maps/" + "cd" * 32
        assert store.put(key, {"a": np.zeros(3)}, {}) is True
        assert store.put(key, {"a": np.ones(3)}, {}) is False
        arrays, _ = store.get(key)
        np.testing.assert_array_equal(arrays["a"], np.zeros(3))

    def test_get_miss_returns_none_and_counts(self, tmp_path):
        store = BlobStore(tmp_path / "store")
        assert store.get("maps/" + "ef" * 32) is None
        assert not store.has("maps/" + "ef" * 32)
        assert store.stats()["get_misses"] == 1

    def test_keys_enumerates_by_kind(self, tmp_path):
        store = BlobStore(tmp_path / "store")
        store.put("maps/" + "aa" * 32, {"x": np.zeros(1)}, {})
        store.put("case/1u4d", {"x": np.zeros(1)}, {})
        assert list(store.keys("maps")) == ["maps/" + "aa" * 32]
        assert sorted(store.keys()) == ["case/1u4d", "maps/" + "aa" * 32]

    @pytest.mark.parametrize("key", ["", "maps/", "/x", "maps/../../etc",
                                     "maps/a b", "maps/.hidden"])
    def test_unsafe_keys_rejected(self, tmp_path, key):
        store = BlobStore(tmp_path / "store")
        with pytest.raises(ValueError, match="unsafe"):
            store.put(key, {"x": np.zeros(1)}, {})

    def test_mmap_reads_are_read_only_views(self, tmp_path):
        store = BlobStore(tmp_path / "store")
        store.put("maps/" + "aa" * 32, {"x": np.arange(4.0)}, {})
        arrays, _ = store.get("maps/" + "aa" * 32)
        assert isinstance(arrays["x"], np.memmap)
        with pytest.raises((ValueError, OSError)):
            arrays["x"][0] = 99.0


class TestGridMapsCodec:
    def test_codec_registry(self):
        assert codec_for_key("maps/" + "aa" * 32) is GridMapsCodec
        assert codec_for_key("ligand/" + "aa" * 32) is None

    def test_round_trip_bit_identical(self, small_maps):
        arrays, meta = GridMapsCodec.encode(small_maps)
        out = GridMapsCodec.decode(arrays, meta)
        for attr in ("affinity", "elec", "desolv_v", "desolv_s"):
            np.testing.assert_array_equal(np.asarray(getattr(out, attr)),
                                          np.asarray(getattr(small_maps,
                                                             attr)))
        np.testing.assert_array_equal(out.origin, small_maps.origin)
        assert out.spacing == small_maps.spacing
        assert out.type_names == small_maps.type_names
        np.testing.assert_array_equal(out.flat_maps, small_maps.flat_maps)


class TestTwoTierCache:
    def test_write_through_then_disk_hit_skips_builder(self, case_small,
                                                       tmp_path):
        fld = write_maps(case_small.maps, tmp_path, stem="r")
        store = BlobStore(tmp_path / "store")

        cold = ContentCache(1 << 26, store=store)
        load_maps(fld, cold)
        assert cold.stats()["disk_misses"] == 1   # store was empty
        assert cold.stats()["disk_writes"] == 1   # ... and populated

        calls = []
        warm = ContentCache(1 << 26, store=store)

        def spy_builder():
            calls.append(1)
            return read_maps(fld)

        from repro.serve.cache import maps_digest
        digest = maps_digest(fld)
        got = warm.get_or_build(f"maps/{digest}", spy_builder)
        assert calls == []                        # served from disk
        assert warm.stats()["disk_hits"] == 1
        golden = read_maps(fld)
        for attr in ("affinity", "elec", "desolv_v", "desolv_s"):
            np.testing.assert_array_equal(np.asarray(getattr(got, attr)),
                                          np.asarray(getattr(golden,
                                                             attr)))

    def test_round_trip_across_processes(self, case_small, tmp_path):
        """A store written by one process serves bit-identical flat grid
        buffers to a spawned process (the worker-pool deployment)."""
        fld = write_maps(case_small.maps, tmp_path, stem="r")
        store_root = tmp_path / "store"
        cache = ContentCache(1 << 26, store=BlobStore(store_root))
        load_maps(fld, cache)

        golden = hashlib.sha256(
            np.ascontiguousarray(read_maps(fld).flat_maps).tobytes()
        ).hexdigest()
        ctx = mp.get_context("spawn")
        with ctx.Pool(1) as pool:
            remote = pool.apply(_flat_digest_via_store,
                                (str(fld), str(store_root)))
        assert remote["digest"] == golden
        assert remote["disk_hits"] == 1
        assert remote["parse_spans"] == 0         # no text re-parse

    def test_corrupt_blob_falls_back_to_builder(self, case_small,
                                                tmp_path):
        fld = write_maps(case_small.maps, tmp_path, stem="r")
        store = BlobStore(tmp_path / "store")
        cold = ContentCache(1 << 26, store=store)
        load_maps(fld, cold)
        for npy in (tmp_path / "store").rglob("*.npy"):
            npy.write_bytes(b"garbage")

        warm = ContentCache(1 << 26, store=store)
        got = load_maps(fld, warm)               # must not raise
        assert warm.stats()["disk_misses"] == 1
        np.testing.assert_array_equal(np.asarray(got.affinity),
                                      np.asarray(read_maps(fld).affinity))


class TestFlatMapAccounting:
    def test_lazy_flat_build_stays_within_capacity(self, case_small,
                                                   tmp_path):
        """Regression: ``sizeof`` used to count only the four component
        maps, so building ``flat_maps`` after insert doubled the entry's
        real footprint and ``bytes_used`` silently exceeded
        ``capacity_bytes``."""
        fld = write_maps(case_small.maps, tmp_path, stem="r")
        cache = ContentCache(1 << 26)
        maps = load_maps(fld, cache)
        charged = cache.bytes_used
        component = sum(np.asarray(getattr(maps, a)).nbytes
                        for a in ("affinity", "elec",
                                  "desolv_v", "desolv_s"))
        assert component <= charged < 2 * component  # one buffer, once

        maps.flat_maps                           # materialise lazily
        assert cache.bytes_used == charged       # no unaccounted growth
        assert sizeof(maps) <= charged
        assert cache.bytes_used <= cache.capacity_bytes

    def test_from_flat_instances_charge_flat_only(self, small_maps):
        from repro.docking.grids import GridMaps
        flat = small_maps.flat_maps.copy()
        view_backed = GridMaps.from_flat(
            flat, origin=small_maps.origin, spacing=small_maps.spacing,
            type_names=small_maps.type_names, shape=small_maps.shape)
        # the components are views into flat: charging 2x component
        # bytes would double-count
        assert view_backed.nbytes < 2 * flat.nbytes
        assert view_backed.nbytes >= flat.nbytes


def _flat_digest_via_store(fld: str, store_root: str) -> dict:
    """Spawned-process half of the cross-process round-trip test."""
    from repro.obs import configure
    tracer = configure(None, source="child")
    cache = ContentCache(1 << 26, store=BlobStore(store_root))
    maps = load_maps(fld, cache)
    digest = hashlib.sha256(
        np.ascontiguousarray(maps.flat_maps).tobytes()).hexdigest()
    parse_spans = sum(1 for rec in tracer.records()
                      if rec.get("type") == "span"
                      and rec.get("name", "").startswith("parse."))
    return {"digest": digest,
            "disk_hits": cache.stats()["disk_hits"],
            "parse_spans": parse_spans}
