"""``GridMaps`` keeps one storage: the fused lookup buffer.

Every way of building a map set leaves its four channel fields as views
of ``flat_maps``.  So a write through a channel is seen by the next
lookup, whichever way the set was built, and a built case holds its maps
once.
"""

import copy
import dataclasses
import json
import pickle
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.docking.grids import GridMaps
from repro.docking.receptor import Receptor
from repro.io import read_maps, write_maps
from repro.serve import BlobStore
from repro.serve.store import GridMapsCodec
from repro.testcases.library import build_test_case

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from tools.record_case_digests import (  # noqa: E402
    OUT as DIGESTS,
    case_digest,
    mismatches,
    store_round_trip,
)

CHANNELS = ("affinity", "elec", "desolv_v", "desolv_s")
TYPES = ["C", "OA"]
SHAPE = (4, 5, 3)
ORIGIN = np.array([-0.5, 0.25, 0.0])
SPACING = 0.5


def channel_arrays() -> dict:
    rng = np.random.default_rng(7)
    return {"affinity": rng.standard_normal((len(TYPES),) + SHAPE),
            "elec": rng.standard_normal(SHAPE),
            "desolv_v": rng.standard_normal(SHAPE),
            "desolv_s": rng.standard_normal(SHAPE)}


def constructed() -> GridMaps:
    return GridMaps(origin=ORIGIN, spacing=SPACING, type_names=TYPES,
                    **channel_arrays())


def adopted() -> GridMaps:
    flat = np.concatenate([a.reshape(-1) for a in channel_arrays().values()])
    return GridMaps.from_flat(flat, origin=ORIGIN, spacing=SPACING,
                              type_names=TYPES, shape=SHAPE)


def made(_tmp_path) -> GridMaps:
    rec = Receptor("r", ["C", "OA", "HD", "N"],
                   np.array([[0.1, 0.2, 0.3], [1.4, 0.9, 0.2],
                             [-0.7, 1.8, 0.5], [0.6, -0.4, 1.1]]),
                   np.array([0.1, -0.4, 0.3, -0.2]))
    return rec.make_maps(TYPES, ORIGIN, SHAPE, SPACING)


def read_back(tmp_path) -> GridMaps:
    return read_maps(write_maps(constructed(), tmp_path, stem="p"))


def replaced(_tmp_path) -> GridMaps:
    maps = constructed()
    return dataclasses.replace(maps, affinity=np.zeros_like(maps.affinity))


def store_hit(tmp_path) -> GridMaps:
    store = BlobStore(tmp_path / "store")
    key = "maps/" + "ab" * 32
    store.put(key, *GridMapsCodec.encode(constructed()))
    return GridMapsCodec.decode(*store.get(key))


BUILDERS = {
    "make_maps": made,
    "read_maps": read_back,
    "constructor": lambda _tmp_path: constructed(),
    "from_flat": lambda _tmp_path: adopted(),
    "replace": replaced,
    "store": store_hit,
    "copy": lambda _tmp_path: copy.copy(constructed()),
    "deepcopy": lambda _tmp_path: copy.deepcopy(constructed()),
    "pickle": lambda _tmp_path: pickle.loads(pickle.dumps(constructed())),
}


class TestOneBuffer:
    @pytest.mark.parametrize("how", sorted(BUILDERS))
    def test_every_channel_is_a_view_of_the_buffer(self, how, tmp_path):
        maps = BUILDERS[how](tmp_path)
        flat = maps.flat_maps
        assert flat.shape == ((len(TYPES) + 3) * int(np.prod(SHAPE)),)
        for name in CHANNELS:
            assert np.shares_memory(getattr(maps, name), flat), name
        np.testing.assert_array_equal(
            flat, np.concatenate([getattr(maps, name).reshape(-1)
                                  for name in CHANNELS]))
        # the buffer plus a 3-entry channel-base table, nothing else yet
        assert maps.nbytes == flat.nbytes + 3 * 8

    def test_the_constructor_copies_its_arrays_in(self):
        arrays = channel_arrays()
        maps = GridMaps(origin=ORIGIN, spacing=SPACING, type_names=TYPES,
                        **arrays)
        for name in CHANNELS:
            assert not np.shares_memory(getattr(maps, name), arrays[name])
            np.testing.assert_array_equal(getattr(maps, name), arrays[name])

    def test_replace_leaves_the_original_buffer_alone(self):
        maps = constructed()
        before = maps.flat_maps.copy()
        derived = dataclasses.replace(maps, affinity=maps.affinity + 1.0)
        assert not np.shares_memory(derived.flat_maps, maps.flat_maps)
        np.testing.assert_array_equal(maps.flat_maps, before)
        np.testing.assert_array_equal(derived.elec, maps.elec)

    def test_from_flat_adopts_its_buffer(self):
        flat = np.concatenate([a.reshape(-1)
                               for a in channel_arrays().values()])
        maps = GridMaps.from_flat(flat, origin=ORIGIN, spacing=SPACING,
                                  type_names=TYPES, shape=SHAPE)
        assert maps.flat_maps is flat


class TestWriteContract:
    """Regression: a constructed set used to score a snapshot taken
    at its first lookup, while a ``from_flat`` set saw later writes."""

    def test_a_write_through_a_channel_is_seen_by_the_next_lookup(self):
        coords = np.array([[0.3, 0.7, 0.2], [0.9, 1.4, 0.6]])
        type_idx = np.array([0, 1])
        params = (np.array([0.2, -0.3]), np.array([-0.1, 0.05]),
                  np.array([12.0, 20.0]))
        looked_up = []
        for maps in (constructed(), adopted()):
            before = maps.interatom_energy(coords, type_idx, *params)
            maps.affinity += 1.0
            after = maps.interatom_energy(coords, type_idx, *params)
            looked_up.append((before, after))
        (built_before, built_after), (flat_before, flat_after) = looked_up
        np.testing.assert_array_equal(built_before, flat_before)
        np.testing.assert_array_equal(built_after, flat_after)
        # the eight trilinear weights sum to one
        np.testing.assert_allclose(built_after, built_before + 1.0)


class TestBuiltCaseMemory:
    def test_a_cold_build_holds_its_maps_once(self):
        """Regression: the case held its maps twice (2.1x, peak 2.6x)
        once the first lookup had snapshotted them into the buffer; and
        the build's fresh per-tile and per-well temporaries peaked at
        1.71x its maps, where reused scratch buffers peak at ~1.15x."""
        build_test_case("1u4d")          # imports stay out of the trace
        tracemalloc.start()
        try:
            case = build_test_case("7cpa")
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        map_bytes = case.maps.flat_maps.nbytes
        assert map_bytes == sum(getattr(case.maps, name).nbytes
                                for name in CHANNELS)
        assert held <= 1.5 * map_bytes, (held, map_bytes)
        assert peak <= 1.3 * map_bytes, (peak, map_bytes)
        # the buffer plus its small index tables
        assert 0 < case.maps.nbytes - map_bytes < 0.01 * map_bytes


class TestStoreDigest:
    def test_a_store_loaded_case_keeps_its_recorded_digests(self, tmp_path):
        recorded = json.loads(DIGESTS.read_text())
        stored = store_round_trip(build_test_case("1u4d"), tmp_path)
        assert not stored.maps.flat_maps.flags.writeable   # mmap'd blob
        assert mismatches(recorded, "1u4d", case_digest(stored)) == []
