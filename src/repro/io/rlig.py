"""``.rlig`` — a compact binary ligand library ("pack") format.

Screening 10^5–10^6 ligands through text PDBQT means every worker
re-tokenises the same branch trees job after job.  A pack parses the
library *once* and stores each ligand as a struct-of-arrays record that
decodes with a couple of ``np.frombuffer`` calls — no text, no tree
reconstruction — and can be sliced by offset straight out of one file
handle, so cohorts stream to workers without directory walks.

File layout (all integers little-endian)::

    header   32 B   magic "RLIG" | u8 version | 3 B pad
                    | u64 n_ligands | u64 index_offset | u64 index_length
    records         back-to-back ligand records (see below)
    index           JSON: {"ligands": [{"name", "offset", "length",
                                        "sha256"}, ...]}

Record layout::

    u32 meta_length | meta JSON (padded with spaces to 8-B alignment)
    | coords  f8 (n_atoms, 3)   — centred reference conformation
    | charges f8 (n_atoms,)
    | bonds   i4 (n_bonds, 2)
    | moved   i4 (sum of torsion moved-counts,)

where the meta JSON carries ``name`` / ``atom_types`` / ``torsions`` (as
``[atom_a, atom_b, n_moved]`` triples indexing into the concatenated
``moved`` array) and the array lengths.  The meta header is also the
pack's size source: ``n_atoms`` and the per-torsion moved counts give a
ligand's atom count, N_rot and rotation-list length without decoding any
array (:meth:`RligReader.meta`, ~15 µs a record), which is how the
service sizes ``.rlig`` jobs for cohort packing and admission
(:func:`repro.serve.cache.ligand_shape`).  Meta JSON is serialised with
sorted keys, so encoding is deterministic: pack → read → pack is
byte-identical, and the per-record SHA-256 digests stored in the index
are stable content addresses (the screen layer stamps them into job
specs, so job identity at 10^6 ligands costs an index lookup, not a
hash over file bytes).

Truncated or corrupt packs raise :class:`~repro.io.errors.ParseError`
with the path and the structural reason.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
from pathlib import Path

import numpy as np

from repro.docking.ligand import Ligand, TorsionBond
from repro.io.errors import ParseError

__all__ = ["pack_rlig", "RligReader", "encode_ligand", "decode_ligand",
           "RLIG_VERSION"]

RLIG_MAGIC = b"RLIG"
RLIG_VERSION = 1

_HEADER = struct.Struct("<4sB3xQQQ")
_META_LEN = struct.Struct("<I")


def _align8(n: int) -> int:
    return (n + 7) & ~7


# ---------------------------------------------------------------------------
# single-record codec (also used by the blob store's TestCase codec)


def encode_ligand(ligand: Ligand) -> bytes:
    """One deterministic binary record for a parsed ligand."""
    coords = np.ascontiguousarray(ligand.ref_coords, dtype="<f8")
    charges = np.ascontiguousarray(ligand.charges, dtype="<f8")
    bonds = np.ascontiguousarray(
        np.asarray(ligand.bonds, dtype="<i4").reshape(-1, 2))
    moved = np.concatenate(
        [np.asarray(t.moved, dtype="<i4") for t in ligand.torsions]
    ) if ligand.torsions else np.empty(0, dtype="<i4")
    meta = {
        "name": ligand.name,
        "atom_types": list(ligand.atom_types),
        "n_atoms": int(coords.shape[0]),
        "n_bonds": int(bonds.shape[0]),
        "torsions": [[int(t.atom_a), int(t.atom_b), len(t.moved)]
                     for t in ligand.torsions],
    }
    meta_bytes = json.dumps(meta, sort_keys=True,
                            separators=(",", ":")).encode()
    padded = _align8(_META_LEN.size + len(meta_bytes)) - _META_LEN.size
    meta_bytes = meta_bytes.ljust(padded, b" ")
    return b"".join([_META_LEN.pack(len(meta_bytes)), meta_bytes,
                     coords.tobytes(), charges.tobytes(),
                     bonds.tobytes(), moved.tobytes()])


def _read_meta(buf: memoryview, path: str | Path) -> tuple[dict, int]:
    """A record's meta header and the offset of its first array; raises
    :class:`ParseError` when it is truncated or malformed."""
    if len(buf) < _META_LEN.size:
        raise ParseError(path, "record truncated before meta length")
    (meta_len,) = _META_LEN.unpack(buf[:_META_LEN.size])
    off = _META_LEN.size + meta_len
    if len(buf) < off:
        raise ParseError(path, "record truncated inside meta JSON")
    try:
        meta = json.loads(bytes(buf[_META_LEN.size:off]))
        fields = {"name": meta["name"], "atom_types": meta["atom_types"],
                  "n_atoms": int(meta["n_atoms"]),
                  "n_bonds": int(meta["n_bonds"]),
                  "torsions": meta["torsions"],
                  "n_moved": sum(int(t[2]) for t in meta["torsions"])}
    except (ValueError, KeyError, TypeError, IndexError):
        raise ParseError(path, "record meta JSON malformed") from None
    return fields, off


def decode_ligand(buf: bytes | memoryview,
                  path: str | Path = "<rlig record>") -> Ligand:
    """Invert :func:`encode_ligand`; raises :class:`ParseError` on a
    structurally truncated or malformed record."""
    buf = memoryview(buf)

    def fail(reason: str):
        raise ParseError(path, reason)

    meta, off = _read_meta(buf, path)
    n_atoms, n_bonds, n_moved = (meta["n_atoms"], meta["n_bonds"],
                                 meta["n_moved"])
    need = off + 8 * 3 * n_atoms + 8 * n_atoms + 4 * 2 * n_bonds + 4 * n_moved
    if len(buf) < need:
        fail(f"record truncated: need {need} bytes, have {len(buf)}")

    def take(count: int, dtype: str, itemsize: int) -> np.ndarray:
        nonlocal off
        arr = np.frombuffer(buf, dtype=dtype, count=count, offset=off)
        off += count * itemsize
        return arr

    coords = take(3 * n_atoms, "<f8", 8).reshape(n_atoms, 3)
    charges = take(n_atoms, "<f8", 8)
    bonds = take(2 * n_bonds, "<i4", 4).reshape(n_bonds, 2)
    moved = take(n_moved, "<i4", 4)
    tbs, pos = [], 0
    try:
        for a, b, k in meta["torsions"]:
            tbs.append(TorsionBond(int(a), int(b),
                                   tuple(int(m) for m in moved[pos:pos + k])))
            pos += int(k)
        ligand = Ligand(name=meta["name"],
                        atom_types=list(meta["atom_types"]),
                        ref_coords=coords.copy(), charges=charges.copy(),
                        bonds=[(int(i), int(j)) for i, j in bonds],
                        torsions=tbs)
    except (ValueError, TypeError) as exc:
        fail(f"record fails ligand validation: {exc}")
    # Ligand.__post_init__ re-centres, which is not exactly idempotent in
    # floating point; the stored coords are already centred, so restore
    # them bit-for-bit — this is what makes repacking byte-stable
    ligand.ref_coords = coords.copy()
    return ligand


# ---------------------------------------------------------------------------
# pack writer


def pack_rlig(out_path: str | Path, sources, names=None) -> int:
    """Write a ``.rlig`` pack; returns the number of ligands packed.

    ``sources`` is an iterable of parsed :class:`Ligand` objects and/or
    PDBQT paths (parsed here — this is the *one* parse the library ever
    pays).  ``names`` optionally overrides record names.
    """
    from repro.io.pdbqt import read_pdbqt
    out_path = Path(out_path)
    index = []
    tmp = out_path.with_name(f"{out_path.name}.tmp.{os.getpid()}")
    with open(tmp, "wb") as fh:
        fh.write(_HEADER.pack(RLIG_MAGIC, RLIG_VERSION, 0, 0, 0))
        for i, src in enumerate(sources):
            ligand = src if isinstance(src, Ligand) else read_pdbqt(src)
            if names is not None and names[i] != ligand.name:
                ligand = Ligand(names[i], list(ligand.atom_types),
                                ligand.ref_coords.copy(),
                                ligand.charges.copy(),
                                list(ligand.bonds), list(ligand.torsions))
            record = encode_ligand(ligand)
            index.append({"name": ligand.name, "offset": fh.tell(),
                          "length": len(record),
                          "sha256": hashlib.sha256(record).hexdigest()})
            fh.write(record)
        index_offset = fh.tell()
        index_bytes = json.dumps({"ligands": index}, sort_keys=True,
                                 separators=(",", ":")).encode()
        fh.write(index_bytes)
        fh.seek(0)
        fh.write(_HEADER.pack(RLIG_MAGIC, RLIG_VERSION, len(index),
                              index_offset, len(index_bytes)))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, out_path)
    return len(index)


# ---------------------------------------------------------------------------
# pack reader


class RligReader:
    """Random-access reader over a ``.rlig`` pack.

    The file is memory-mapped: reading ligand ``i`` slices its record out
    of the map and decodes it — no seeks, no text parsing — so cohort
    dispatch at position ``i`` is O(record size) regardless of library
    size.  Usable as a context manager; safe to share read-only across
    forked processes (each spawn-started worker opens its own).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        try:
            self._fh = open(self.path, "rb")
        except OSError as exc:
            raise ParseError(self.path, f"cannot open pack: {exc}") from exc
        try:
            size = self.path.stat().st_size
            if size < _HEADER.size:
                raise ParseError(self.path, "pack truncated before header")
            self._mm = mmap.mmap(self._fh.fileno(), 0, access=mmap.ACCESS_READ)
            magic, version, n, idx_off, idx_len = _HEADER.unpack(
                self._mm[:_HEADER.size])
            if magic != RLIG_MAGIC:
                raise ParseError(self.path, f"bad magic {magic!r}")
            if version != RLIG_VERSION:
                raise ParseError(self.path,
                                 f"unsupported pack version {version}")
            if idx_off + idx_len > size or idx_off < _HEADER.size:
                raise ParseError(
                    self.path,
                    f"pack truncated: index at {idx_off}+{idx_len} "
                    f"but file has {size} bytes")
            try:
                doc = json.loads(self._mm[idx_off:idx_off + idx_len])
                self.index = doc["ligands"]
            except (ValueError, KeyError):
                raise ParseError(self.path, "pack index malformed") from None
            if len(self.index) != n:
                raise ParseError(
                    self.path, f"pack index lists {len(self.index)} ligands, "
                               f"header says {n}")
            for ent in self.index:
                if ent["offset"] + ent["length"] > idx_off:
                    raise ParseError(
                        self.path,
                        f"record {ent['name']!r} overruns the index")
        except Exception:
            self.close()
            raise

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.index)

    @property
    def names(self) -> list[str]:
        return [ent["name"] for ent in self.index]

    def sha256(self, i: int) -> str:
        """Content digest of record ``i`` (precomputed at pack time)."""
        return self.index[i]["sha256"]

    def _record(self, i: int) -> memoryview:
        ent = self.index[i]
        return memoryview(self._mm)[ent["offset"]:
                                    ent["offset"] + ent["length"]]

    def read(self, i: int) -> Ligand:
        return decode_ligand(self._record(i), self.path)

    def meta(self, i: int) -> dict:
        """Record ``i``'s meta header alone (no array is decoded):
        ``name``, ``atom_types``, ``n_atoms``, ``n_bonds``, ``torsions``
        and their summed moved count ``n_moved``."""
        return _read_meta(self._record(i), self.path)[0]

    def read_bytes(self, i: int) -> bytes:
        """Raw record bytes (for re-hashing / verification)."""
        ent = self.index[i]
        return self._mm[ent["offset"]:ent["offset"] + ent["length"]]

    def __iter__(self):
        for i in range(len(self.index)):
            yield self.read(i)

    def close(self) -> None:
        mm = getattr(self, "_mm", None)
        if mm is not None:
            mm.close()
            self._mm = None
        fh = getattr(self, "_fh", None)
        if fh is not None:
            fh.close()
            self._fh = None

    def __enter__(self) -> "RligReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
