"""Content-addressed cache for receptor grids and parsed ligands.

A 1000-ligand virtual screen re-uses one receptor: without a cache every
job re-parses the ``.maps.fld`` index and its per-type ``.map`` files —
by far the most expensive part of small docking jobs.  The
:class:`ContentCache` keys everything by the SHA-256 of the *file bytes*
(plus grid parameters where relevant), so renamed or copied inputs still
hit, while any content change misses — and is bounded by a byte capacity
with LRU eviction, so a long-running worker cannot grow without limit.

Workers each own a private cache (caches are process-local; the service
layer aggregates the per-job hit/miss deltas into screen-level stats).
Optionally the cache fronts a shared :class:`~repro.serve.store.BlobStore`
disk tier: on a memory miss the store is consulted first, a stored blob
is *promoted* (decoded — for grids, mmap'd read-only with zero parsing),
and freshly built values are *demoted* (written through) so the next
process, or this one after an eviction, skips the build entirely.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.io.errors import ParseError

__all__ = ["ContentCache", "file_sha256", "maps_digest", "load_ligand",
           "load_maps", "load_case", "load_rlig_member", "open_rlig",
           "LigandShape", "ligand_shape"]

#: default worker cache capacity [bytes]
DEFAULT_CAPACITY = 256 * 1024 * 1024

#: streaming hash chunk [bytes] — bounds memory when digesting blobs of
#: any size (a multi-GB grid set must never land in the heap just to hash)
HASH_CHUNK = 1 << 20


def file_sha256(*paths: str | Path) -> str:
    """SHA-256 over the concatenated bytes of one or more files.

    Streams in fixed-size chunks; memory use is O(:data:`HASH_CHUNK`)
    regardless of file size.
    """
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            while True:
                chunk = fh.read(HASH_CHUNK)
                if not chunk:
                    break
                h.update(chunk)
    return h.hexdigest()


def maps_digest(fld_path: str | Path) -> str:
    """Content digest of a ``.maps.fld`` grid set.

    Covers the index *and* every referenced ``.map`` file, in index
    order — editing any single grid value changes the digest.  A
    referenced map that is missing on disk raises a structured
    :class:`ParseError` naming the index and the missing file.
    """
    fld_path = Path(fld_path)
    referenced = [fld_path]
    for line in fld_path.read_text().splitlines():
        if line.startswith("variable"):
            for token in line.split():
                if token.startswith("file="):
                    referenced.append(fld_path.parent / token[5:])
    for ref in referenced[1:]:
        if not ref.is_file():
            raise ParseError(
                fld_path,
                f"referenced map file {ref.name!r} not found next to index")
    return file_sha256(*referenced)


class ContentCache:
    """Byte-capacity-bounded LRU mapping content keys to parsed objects.

    Thread-safe; hit / miss / eviction counters are cumulative and
    :meth:`stats` snapshots are cheap, so per-job deltas can be taken by
    subtracting two snapshots.

    Parameters
    ----------
    capacity_bytes:
        Total size budget.  Entries larger than the whole capacity are
        returned to the caller but never stored (counted under
        ``oversize``).
    store:
        Optional :class:`~repro.serve.store.BlobStore` disk tier.  Keys
        whose kind has a registered spill codec are looked up there on a
        memory miss and written through after a build.
    """

    def __init__(self, capacity_bytes: int = DEFAULT_CAPACITY,
                 store=None) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self.store = store
        self._entries: OrderedDict[str, tuple[object, int]] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.oversize = 0
        self.races = 0
        self.disk_hits = 0
        self.disk_misses = 0
        self.disk_writes = 0

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def bytes_used(self) -> int:
        return self._bytes

    def _from_store(self, key: str):
        """Decode ``key`` from the disk tier; ``None`` on miss/corruption."""
        from repro.serve.store import codec_for_key
        codec = codec_for_key(key)
        if codec is None:
            return None
        got = self.store.get(key)
        if got is None:
            self.disk_misses += 1
            return None
        try:
            value = codec.decode(*got)
        except Exception:
            # unreadable blob: fall back to the builder rather than fail
            self.disk_misses += 1
            return None
        self.disk_hits += 1
        return value

    def _to_store(self, key: str, value) -> None:
        """Write a freshly built value through to the disk tier."""
        from repro.serve.store import codec_for_key
        codec = codec_for_key(key)
        if codec is None:
            return
        try:
            arrays, meta = codec.encode(value)
            if self.store.put(key, arrays, meta):
                self.disk_writes += 1
        except Exception:
            pass    # the store is an optimisation; never fail the job

    def get_or_build(self, key: str, builder, size_of=None):
        """Return the cached value for ``key``, building it on a miss.

        ``builder()`` produces the value; ``size_of(value)`` its byte
        cost (defaults to :func:`sizeof`).  The LRU order is refreshed on
        hits.  With a disk tier attached, a memory miss tries the store
        before the builder, and builder output is written through.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return entry[0]
            self.misses += 1
        value = None
        if self.store is not None:
            value = self._from_store(key)
        if value is None:
            value = builder()
            if self.store is not None:
                self._to_store(key, value)
        size = int((size_of or sizeof)(value))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                # a racing builder won: serve the winner's object so every
                # caller of one key holds the *same* instance (the
                # bit-identical-grids invariant), and drop ours
                self.races += 1
                self._entries.move_to_end(key)
                return entry[0]
            if size > self.capacity_bytes:
                self.oversize += 1
                return value
            self._entries[key] = (value, size)
            self._bytes += size
            while self._bytes > self.capacity_bytes:
                _, (_, evicted_size) = self._entries.popitem(last=False)
                self._bytes -= evicted_size
                self.evictions += 1
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def stats(self) -> dict:
        """Cumulative counters (JSON-ready)."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "oversize": self.oversize,
                "races": self.races,
                "disk_hits": self.disk_hits,
                "disk_misses": self.disk_misses,
                "disk_writes": self.disk_writes,
                "entries": len(self._entries),
                "bytes_used": self._bytes,
                "capacity_bytes": self.capacity_bytes,
                "hit_rate": self.hits / lookups if lookups else 0.0,
            }

    @staticmethod
    def delta(before: dict, after: dict) -> dict:
        """Per-job counter delta between two :meth:`stats` snapshots."""
        d = {k: after.get(k, 0) - before.get(k, 0)
             for k in ("hits", "misses", "evictions", "oversize", "races",
                       "disk_hits", "disk_misses", "disk_writes")}
        lookups = d["hits"] + d["misses"]
        d["hit_rate"] = d["hits"] / lookups if lookups else 0.0
        return d


def sizeof(value) -> int:
    """Byte-cost estimate for the objects the service layer caches.

    :class:`~repro.docking.grids.GridMaps` values (bare or nested inside
    a test case) are charged via :attr:`GridMaps.nbytes`, which includes
    the lazily-built fused flat buffer *up front* — the estimate is an
    upper bound on what the entry can grow to, so ``bytes_used`` stays
    within ``capacity_bytes`` even after post-insert flat-map builds.
    """
    from repro.docking.grids import GridMaps
    total = 1024
    if isinstance(value, GridMaps):
        return value.nbytes + total
    arrays = []
    if isinstance(value, np.ndarray):
        arrays.append(value)
    for attr in ("ref_coords", "charges", "coords",
                 "native_genotype", "native_coords"):
        arr = getattr(value, attr, None)
        if isinstance(arr, np.ndarray):
            arrays.append(arr)
    for attr in ("maps", "ligand", "receptor"):
        nested = getattr(value, attr, None)
        if isinstance(nested, GridMaps):
            total += nested.nbytes
        elif nested is not None:
            arrays.extend(a for a in (
                getattr(nested, n, None)
                for n in ("ref_coords", "charges", "coords"))
                if isinstance(a, np.ndarray))
    return sum(a.nbytes for a in arrays) + total


# ---------------------------------------------------------------------------
# cached loaders (the keys ARE the content addresses)


def load_ligand(path: str | Path, cache: ContentCache | None = None,
                digest: str | None = None):
    """Parse a PDBQT ligand through the cache (key: file SHA-256)."""
    from repro.io import read_pdbqt
    from repro.obs import get_tracer

    def build():
        with get_tracer().span("parse.ligand", path=str(path)):
            return read_pdbqt(path)

    if cache is None:
        return build()
    digest = digest or file_sha256(path)
    return cache.get_or_build(f"ligand/{digest}", build)


def load_maps(fld_path: str | Path, cache: ContentCache | None = None,
              digest: str | None = None):
    """Load AutoGrid maps through the cache.

    The key covers the bytes of the index and every referenced map file
    — i.e. the full grid content including spacing/shape parameters,
    which live in the map headers.  When the cache fronts a disk store,
    a warm store serves the grid as an mmap'd flat buffer with *no*
    ``parse.maps`` span at all.
    """
    from repro.io import read_maps
    from repro.obs import get_tracer

    def build():
        with get_tracer().span("parse.maps", path=str(fld_path)):
            return read_maps(fld_path)

    if cache is None:
        return build()
    digest = digest or maps_digest(fld_path)
    return cache.get_or_build(f"maps/{digest}", build)


# per-process pack reader table: one mmap per pack file, shared by every
# job in the worker (readers are cheap, but the index parse is not free).
# Keyed by real path -> (mtime_ns, size, reader); each distinct path
# string is resolved once (Path.resolve() costs ~35 us, a plain os.stat
# ~1.5 us, and both ligand_shape and load_rlig_member look a pack up
# once per job)
_RLIG_READERS: dict[str, tuple[int, int, object]] = {}
_RLIG_REALPATHS: dict[str, str] = {}
_RLIG_LOCK = threading.Lock()


def open_rlig(path: str | Path):
    """Process-wide shared :class:`~repro.io.rlig.RligReader` for a pack.

    Every call revalidates the file with one ``os.stat`` of its mtime and
    size, so a repacked file is re-opened (and the stale reader closed),
    not served stale.  Each distinct path string is resolved to its real
    path on first use only.
    """
    from repro.io.rlig import RligReader
    key = os.fspath(path)
    with _RLIG_LOCK:
        real = _RLIG_REALPATHS.get(key)
        if real is None:
            real = _RLIG_REALPATHS[key] = str(Path(key).resolve())
        st = os.stat(real)
        stamp = (st.st_mtime_ns, st.st_size)
        entry = _RLIG_READERS.get(real)
        if entry is None or entry[:2] != stamp:
            if entry is not None:
                entry[2].close()
            entry = _RLIG_READERS[real] = stamp + (RligReader(real),)
        return entry[2]


def load_rlig_member(pack: str | Path, index: int,
                     cache: ContentCache | None = None,
                     digest: str | None = None):
    """Decode ligand ``index`` from a ``.rlig`` pack through the cache.

    No ``parse.ligand`` span is emitted — the text parse happened once,
    at pack time; decoding is a couple of buffer slices (traced as
    ``pack.read``).
    """
    from repro.obs import get_tracer
    reader = open_rlig(pack)

    def build():
        with get_tracer().span("pack.read", pack=str(pack), index=index):
            return reader.read(index)

    if cache is None:
        return build()
    digest = digest or reader.sha256(index)
    return cache.get_or_build(f"ligand/{digest}", build)


def load_case(spec: dict, cache: ContentCache | None = None):
    """Assemble the :class:`~repro.testcases.generator.TestCase` a job
    spec describes, sharing parsed receptors/ligands via the cache.

    Spec kinds (see :class:`repro.serve.queue.DockingJob`):

    * ``{"kind": "case", "case": name}`` — a named library case;
    * ``{"kind": "case-ligand", "case": name, "ligand": path}`` — an
      external PDBQT ligand docked into a library case's maps;
    * ``{"kind": "files", "fld": path, "ligand": path}`` — AutoGrid maps
      plus a PDBQT ligand, fully file-based;
    * ``{"kind": "rlig", "pack": path, "index": i, "fld": path}`` — a
      ligand streamed by offset from a ``.rlig`` pack, docked into
      AutoGrid maps (or a library case's maps via ``"case"``).

    ``*_sha256`` entries (stamped by the screen layer at submit time) are
    reused as cache keys so workers skip re-hashing.
    """
    kind = spec.get("kind")
    if kind == "case":
        from repro.obs import get_tracer
        from repro.testcases import get_test_case

        def build():
            with get_tracer().span("grid.build", case=spec["case"]):
                return get_test_case(spec["case"])

        if cache is None:
            return build()
        return cache.get_or_build(f"case/{spec['case']}", build)
    if kind == "case-ligand":
        from repro.cli import replace_case_ligand
        base = load_case({"kind": "case", "case": spec["case"]}, cache)
        ligand = load_ligand(spec["ligand"], cache,
                             spec.get("ligand_sha256"))
        return replace_case_ligand(base, ligand)
    if kind == "files":
        from repro.cli import case_from_files
        if cache is None:
            return case_from_files(spec["fld"], spec["ligand"])
        maps = load_maps(spec["fld"], cache, spec.get("fld_sha256"))
        ligand = load_ligand(spec["ligand"], cache,
                             spec.get("ligand_sha256"))
        return _assemble_file_case(maps, ligand)
    if kind == "rlig":
        ligand = load_rlig_member(spec["pack"], spec["index"], cache,
                                  spec.get("ligand_sha256"))
        if "fld" in spec:
            maps = load_maps(spec["fld"], cache, spec.get("fld_sha256"))
            return _assemble_file_case(maps, ligand)
        from repro.cli import replace_case_ligand
        base = load_case({"kind": "case", "case": spec["case"]}, cache)
        return replace_case_ligand(base, ligand)
    raise ValueError(f"unknown job spec kind {kind!r}")


class LigandShape(NamedTuple):
    """How big a job's ligand is: the per-ligand loop bounds a lock-step
    cohort pads to its largest member (atoms, torsion steps, rotation
    list).  Tuples order atoms first, so sorting shapes sorts ligands by
    the atom lanes they occupy."""

    n_atoms: int
    n_rot: int
    n_rotlist: int

    @classmethod
    def of(cls, ligand) -> "LigandShape":
        return cls(ligand.n_atoms, ligand.n_rot, ligand.n_rotlist)


@lru_cache(maxsize=None)
def _case_shape(name: str) -> LigandShape:
    from repro.testcases.library import case_ligand
    return LigandShape.of(case_ligand(name))


def ligand_shape(spec: dict) -> LigandShape:
    """The shape of the ligand a job spec docks (kinds as in
    :func:`load_case`), without building the case.

    A ``.rlig`` member is sized from its record's meta header alone
    (:meth:`~repro.io.rlig.RligReader.meta`: no array is decoded); a
    PDBQT ligand is parsed; a named case grows only its ligand.  Raises
    what reading the ligand raises (:class:`OSError`,
    :class:`~repro.io.errors.ParseError`, ``ValueError`` for an unknown
    case or spec kind, ``KeyError`` for a spec missing its ligand).
    """
    kind = spec.get("kind")
    if kind == "case":
        return _case_shape(spec["case"])
    if kind in ("case-ligand", "files"):
        from repro.io import read_pdbqt
        return LigandShape.of(read_pdbqt(spec["ligand"]))
    if kind == "rlig":
        meta = open_rlig(spec["pack"]).meta(spec["index"])
        return LigandShape(meta["n_atoms"], len(meta["torsions"]),
                           meta["n_atoms"] + meta["n_moved"])
    raise ValueError(f"unknown job spec kind {kind!r}")


def _assemble_file_case(maps, ligand):
    """File-based case assembly against already-parsed maps/ligand.

    Mirrors :func:`repro.cli.case_from_files` but takes parsed objects so
    the cache, not the filesystem, is the source of truth.
    """
    from repro.docking.pose import calc_coords
    from repro.docking.receptor import Receptor
    from repro.testcases.generator import TestCase

    missing = set(ligand.atom_types) - set(maps.type_names)
    if missing:
        raise ValueError(f"maps lack atom types {sorted(missing)}")
    native = np.zeros(6 + ligand.n_rot)
    native[0:3] = (maps.box_lo + maps.box_hi) / 2.0
    placeholder = Receptor(name="from-maps", atom_types=["C"],
                           coords=np.array([[1e6, 1e6, 1e6]]),
                           charges=np.zeros(1))
    return TestCase(name=ligand.name, ligand=ligand, receptor=placeholder,
                    maps=maps, native_genotype=native,
                    native_coords=calc_coords(ligand, native),
                    global_min_score=float("-inf"))
