"""Disk-backed content-addressed blob store — the second cache tier.

:class:`ContentCache` bounds one process's memory, but at fleet scale the
expensive artefacts (fused flat grid buffers, assembled test cases) are
*shared*: every worker on a host re-parses the same ``.map`` text into
the same flat buffer.  The :class:`BlobStore` persists
those artefacts once, keyed by the same content digests the memory tier
uses, as mmap-able ``.npy`` blobs under a configurable root:

.. code-block:: text

    <root>/<kind>/<aa>/<digest>/
        meta.json        # codec name + shape/type metadata
        <name>.npy       # one file per array payload

Writers stage a blob in a private tmp directory (every file fsynced) and
publish it with one atomic ``rename`` — readers never observe a partial
blob, and a concurrent writer of the same key simply loses the rename
race and discards its copy.  Readers open arrays with
``np.load(mmap_mode="r")``, so a grid shared by eight workers costs one
page-cache copy, not eight heap copies.

Codecs translate between cached python objects and ``(arrays, meta)``
blob payloads; :class:`GridMapsCodec` and :class:`TestCaseCodec` cover
the two artefact kinds the serving layer caches.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
from pathlib import Path

import numpy as np

__all__ = ["BlobStore", "GridMapsCodec", "TestCaseCodec", "codec_for_key"]

_META_NAME = "meta.json"

#: characters allowed in a key segment (hex digests plus case names)
_SAFE = set("abcdefghijklmnopqrstuvwxyz"
            "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")


def _check_segment(seg: str) -> str:
    if not seg or seg.startswith(".") or any(c not in _SAFE for c in seg):
        raise ValueError(f"unsafe blob key segment {seg!r}")
    return seg


def fsync_dir(path: str | Path) -> None:
    """fsync a directory entry (rename durability); no-op where unsupported."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class BlobStore:
    """Content-addressed blob directory with atomic publish and mmap reads.

    Parameters
    ----------
    root:
        Store root; created on demand.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._seq = 0
        self.puts = 0
        self.put_races = 0
        self.gets = 0
        self.get_misses = 0

    # ------------------------------------------------------------------

    def _blob_dir(self, key: str) -> Path:
        """``<root>/<kind>/<aa>/<digest>`` for a ``kind/digest`` key."""
        kind, _, digest = key.partition("/")
        _check_segment(kind)
        _check_segment(digest)
        fan = digest[:2] if len(digest) >= 2 else "__"
        return self.root / kind / fan / digest

    def has(self, key: str) -> bool:
        return (self._blob_dir(key) / _META_NAME).is_file()

    def put(self, key: str, arrays: dict[str, np.ndarray],
            meta: dict) -> bool:
        """Publish a blob atomically; ``False`` if the key already exists
        (including losing the publish race to a concurrent writer)."""
        final = self._blob_dir(key)
        if (final / _META_NAME).is_file():
            return False
        with self._lock:
            self._seq += 1
            seq = self._seq
        tmp = self.root / ".tmp" / f"{os.getpid()}-{seq}-{final.name}"
        tmp.mkdir(parents=True, exist_ok=True)
        try:
            for name, arr in arrays.items():
                _check_segment(name)
                path = tmp / f"{name}.npy"
                with open(path, "wb") as fh:
                    np.save(fh, np.ascontiguousarray(arr))
                    fh.flush()
                    os.fsync(fh.fileno())
            meta_path = tmp / _META_NAME
            with open(meta_path, "w") as fh:
                json.dump(meta, fh, sort_keys=True)
                fh.flush()
                os.fsync(fh.fileno())
            fsync_dir(tmp)
            final.parent.mkdir(parents=True, exist_ok=True)
            try:
                os.rename(tmp, final)
            except OSError:
                # a concurrent writer published the same content first;
                # theirs is bit-identical by construction, drop ours
                self.put_races += 1
                return False
            fsync_dir(final.parent)
            self.puts += 1
            return True
        finally:
            if tmp.exists():
                shutil.rmtree(tmp, ignore_errors=True)

    def get(self, key: str):
        """``(arrays, meta)`` for a stored blob, or ``None`` on a miss.

        Arrays come back memory-mapped read-only.
        """
        blob = self._blob_dir(key)
        meta_path = blob / _META_NAME
        try:
            meta = json.loads(meta_path.read_text())
        except (OSError, ValueError):
            self.get_misses += 1
            return None
        arrays = {}
        try:
            for path in sorted(blob.glob("*.npy")):
                arrays[path.stem] = np.load(path, mmap_mode="r")
        except (OSError, ValueError):
            self.get_misses += 1
            return None
        self.gets += 1
        return arrays, meta

    def keys(self, kind: str | None = None):
        """Iterate stored keys (``kind/digest``), optionally one kind."""
        kinds = [self.root / _check_segment(kind)] if kind else [
            p for p in self.root.iterdir()
            if p.is_dir() and not p.name.startswith(".")]
        for kdir in kinds:
            if not kdir.is_dir():
                continue
            for fan in sorted(kdir.iterdir()):
                if not fan.is_dir():
                    continue
                for blob in sorted(fan.iterdir()):
                    if (blob / _META_NAME).is_file():
                        yield f"{kdir.name}/{blob.name}"

    def stats(self) -> dict:
        return {"root": str(self.root), "puts": self.puts,
                "put_races": self.put_races, "gets": self.gets,
                "get_misses": self.get_misses}


# ---------------------------------------------------------------------------
# codecs: cached object <-> (arrays, meta) blob payload


class GridMapsCodec:
    """Spill a :class:`~repro.docking.grids.GridMaps` as its fused flat
    buffer — its one storage and exactly what the hot-path gathers read,
    so a store hit hands workers a ready-to-use grid with zero parsing."""

    name = "gridmaps/v1"

    @staticmethod
    def encode(maps) -> tuple[dict, dict]:
        return ({"flat_maps": maps.flat_maps},
                {"codec": GridMapsCodec.name,
                 "origin": [float(v) for v in maps.origin],
                 "spacing": float(maps.spacing),
                 "type_names": list(maps.type_names),
                 "shape": [int(d) for d in maps.shape]})

    @staticmethod
    def decode(arrays: dict, meta: dict):
        from repro.docking.grids import GridMaps
        return GridMaps.from_flat(
            arrays["flat_maps"], origin=meta["origin"],
            spacing=meta["spacing"], type_names=meta["type_names"],
            shape=tuple(meta["shape"]))


class TestCaseCodec:
    """Spill a fully assembled library :class:`TestCase` (synthetic-case
    generation runs a native-pose refinement — by far the most expensive
    builder the cache fronts).  The grid rides as its flat buffer, the
    ligand as one ``.rlig`` record blob."""

    name = "testcase/v1"

    @staticmethod
    def encode(case) -> tuple[dict, dict]:
        from repro.io.rlig import encode_ligand
        arrays, meta = GridMapsCodec.encode(case.maps)
        arrays["ligand_blob"] = np.frombuffer(
            encode_ligand(case.ligand), dtype=np.uint8)
        arrays["receptor_coords"] = case.receptor.coords
        arrays["receptor_charges"] = case.receptor.charges
        arrays["native_genotype"] = case.native_genotype
        arrays["native_coords"] = case.native_coords
        meta.update({
            "codec": TestCaseCodec.name,
            "name": case.name,
            "receptor_name": case.receptor.name,
            "receptor_types": list(case.receptor.atom_types),
            "global_min_score": float(case.global_min_score),
        })
        return arrays, meta

    @staticmethod
    def decode(arrays: dict, meta: dict):
        from repro.docking.receptor import Receptor
        from repro.io.rlig import decode_ligand
        from repro.testcases.generator import TestCase
        maps = GridMapsCodec.decode(arrays, meta)
        ligand = decode_ligand(bytes(np.asarray(arrays["ligand_blob"])))
        receptor = Receptor(name=meta["receptor_name"],
                            atom_types=list(meta["receptor_types"]),
                            coords=np.array(arrays["receptor_coords"]),
                            charges=np.array(arrays["receptor_charges"]))
        return TestCase(name=meta["name"], ligand=ligand, receptor=receptor,
                        maps=maps,
                        native_genotype=np.array(arrays["native_genotype"]),
                        native_coords=np.array(arrays["native_coords"]),
                        global_min_score=meta["global_min_score"])


#: codec registry by key kind — ``maps/<digest>`` blobs hold flat grid
#: buffers, ``case/<name>`` blobs hold assembled library cases
_CODECS = {"maps": GridMapsCodec, "case": TestCaseCodec}


def codec_for_key(key: str):
    """The spill codec for a cache key's kind, or ``None`` (not spillable)."""
    return _CODECS.get(key.partition("/")[0])
