"""Manifest persistence: the append-only NDJSON result log.

Every screen and the gateway write one format, a directory of per-shard
append-only logs,

.. code-block:: text

    <manifest-dir>/
        meta.json            # version, n_shards, screen header, stats
        shard-0000.ndjson    # one JSON line per terminal JobResult
        shard-0001.ndjson    # ...

where a result lands in shard ``shard_for(job_id, n_shards)`` — the same
coordination-free content-hash partition the queue and gateway use — so
appends from independent screens or gateway shard runners never contend
on one file; ``n_shards=1`` is the small-screen case.  Appending is
O(record), where rewriting one JSON document per completion was
O(screen) (``BENCH_store_io.json``); a crash tears at most the final
line, which loaders skip.  Re-appended job ids (retries, resumed
overwrites) are resolved last-record-wins at load time and squeezed out
by periodic :meth:`ShardedManifest.compact`.

:func:`load_manifest_jobs` reads a log directory, and still reads the
retired single-file ``manifest.json`` format; nothing writes that
format any more.  :func:`rank_records` is the one ranking of terminal
records, for screens, the gateway and ``tools/merge_manifests.py``.

:func:`atomic_write_json` is the shared durable-write primitive (tmp in
the same directory, ``fsync``, atomic ``os.replace``, directory fsync);
the tmp name carries the PID and thread id so two writers pointed at
one path — even shard threads inside one process — cannot tear each
other's tmp file.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from repro.serve.queue import shard_for

__all__ = ["ShardedManifest", "atomic_write_json", "load_manifest_jobs",
           "rank_records"]

SHARDED_MANIFEST_VERSION = 1

#: version of the retired single-file ``manifest.json`` (read-only)
LEGACY_MANIFEST_VERSION = 1

_META_NAME = "meta.json"

#: appends per shard between automatic last-wins compactions
COMPACT_EVERY = 4096

#: appends per shard between fsyncs
FSYNC_EVERY = 64


def atomic_write_json(path: str | Path, payload: dict,
                      indent: int | None = 2) -> None:
    """Durably replace ``path`` with ``payload`` as JSON.

    The tmp file is written in the target directory, fsynced *before*
    the rename (a power cut can otherwise publish an empty rename), and
    named with the writer's PID *and* thread id so concurrent writers to
    the same path — worker processes or same-process shard threads —
    never truncate or steal each other's in-flight tmp.  The directory
    entry is fsynced after the replace where the platform allows it.
    """
    _replace_durably(Path(path),
                     lambda fh: json.dump(payload, fh, indent=indent))


def _replace_durably(path: Path, write) -> None:
    """Replace ``path`` with what ``write(fh)`` writes, the
    :func:`atomic_write_json` way."""
    tmp = path.with_name(
        f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}")
    with open(tmp, "w") as fh:
        write(fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    from repro.serve.store import fsync_dir
    fsync_dir(path.parent)


class ShardedManifest:
    """Append-only sharded result log: the screen and gateway manifest.

    Parameters
    ----------
    path:
        Manifest directory (created on demand).
    n_shards:
        Shard count for a *new* manifest; an existing directory's
        ``meta.json`` wins (the partition must stay stable across
        resumes).

    Every :data:`COMPACT_EVERY` appends a shard is compacted (last record
    wins); every :data:`FSYNC_EVERY` appends it is fsynced (each append is
    flushed to the OS immediately; a crash loses at most what the kernel
    had not yet written, and never more than the final, torn line).
    Appends, compactions and :meth:`close` hold one lock, so gateway
    shard threads can share a log: each record lands as one whole line.
    """

    def __init__(self, path: str | Path,
                 n_shards: int | None = None) -> None:
        self.path = Path(path)
        if self.path.is_file():
            raise ValueError(f"{self.path} is a single-file manifest, "
                             f"now read-only: write to a new path")
        self.path.mkdir(parents=True, exist_ok=True)
        meta = self._read_meta()
        if meta is not None:
            self.n_shards = int(meta["n_shards"])
        else:
            if n_shards is None or n_shards <= 0:
                raise ValueError(
                    f"new manifest log {self.path} needs n_shards >= 1")
            self.n_shards = int(n_shards)
            self.write_meta()
        self._handles: dict[int, object] = {}
        self._appends: dict[int, int] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------

    @staticmethod
    def is_sharded(path: str | Path) -> bool:
        """True if ``path`` is a manifest log directory."""
        return (Path(path) / _META_NAME).is_file()

    def shard_path(self, shard: int) -> Path:
        return self.path / f"shard-{shard:04d}.ndjson"

    def _read_meta(self) -> dict | None:
        try:
            meta = json.loads((self.path / _META_NAME).read_text())
        except (OSError, ValueError):
            return None
        if meta.get("version") != SHARDED_MANIFEST_VERSION:
            raise ValueError(
                f"unsupported sharded-manifest version {meta.get('version')!r}")
        return meta

    def write_meta(self, screen: dict | None = None,
                   stats: dict | None = None) -> None:
        """Durably (re)write ``meta.json``; job records live in shards."""
        prior = self._read_meta() or {}
        atomic_write_json(self.path / _META_NAME, {
            "version": SHARDED_MANIFEST_VERSION, "n_shards": self.n_shards,
            "written_at": time.time(),
            "screen": prior.get("screen") if screen is None else screen,
            "stats": prior.get("stats") if stats is None else stats})

    # ------------------------------------------------------------------

    def append(self, record: dict) -> int:
        """Append one terminal JobResult record; returns its shard."""
        job_id = record["job_id"]
        shard = shard_for(job_id, self.n_shards)
        line = json.dumps(record, separators=(",", ":")) + "\n"
        with self._lock:
            fh = self._handles.get(shard)
            if fh is None:
                path = self.shard_path(shard)
                fh = self._handles[shard] = open(path, "a")
                if fh.tell() and not _ends_with_newline(path):
                    fh.write("\n")     # a crash tore the last line: end it
            fh.write(line)
            fh.flush()
            n = self._appends.get(shard, 0) + 1
            self._appends[shard] = n
            if n % FSYNC_EVERY == 0:
                os.fsync(fh.fileno())
            if n % COMPACT_EVERY == 0:
                self.compact(shard)
        return shard

    def load(self) -> dict[str, dict]:
        """``job_id -> record`` across every shard, last record winning.

        A torn final line (crash mid-append) is skipped, not fatal.
        """
        out: dict[str, dict] = {}
        for shard in range(self.n_shards):
            for rec in self._read_shard(shard):
                out[rec["job_id"]] = rec
        return out

    def _read_shard(self, shard: int) -> list[dict]:
        path = self.shard_path(shard)
        if not path.is_file():
            return []
        records = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except ValueError:
                    continue    # torn tail from a crash mid-append
                if isinstance(rec, dict) and "job_id" in rec:
                    records.append(rec)
        return records

    def compact(self, shard: int | None = None) -> None:
        """Squeeze superseded records out of shard logs (last-wins),
        rewriting each file atomically."""
        shards = range(self.n_shards) if shard is None else [shard]
        with self._lock:
            for k in shards:
                records = self._read_shard(k)
                if not records:
                    continue
                latest: dict[str, dict] = {}
                for rec in records:
                    latest[rec["job_id"]] = rec
                if len(latest) == len(records):
                    continue        # nothing superseded
                fh = self._handles.pop(k, None)
                if fh is not None:
                    fh.close()
                lines = (json.dumps(rec, separators=(",", ":")) + "\n"
                         for rec in latest.values())
                _replace_durably(self.shard_path(k),
                                 lambda out: out.writelines(lines))

    def close(self) -> None:
        with self._lock:
            for fh in self._handles.values():
                try:
                    fh.flush()
                    os.fsync(fh.fileno())
                except (OSError, ValueError):
                    pass
                fh.close()
            self._handles.clear()

    def __enter__(self) -> "ShardedManifest":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _ends_with_newline(path: Path) -> bool:
    with open(path, "rb") as fh:
        fh.seek(-1, os.SEEK_END)
        return fh.read(1) == b"\n"


def load_manifest_jobs(path: str | Path) -> dict[str, dict]:
    """``job_id -> record`` from a manifest log directory.

    A plain file loads as the retired single-file JSON format (read
    only, for manifests written before the log was the only format).
    """
    path = Path(path)
    if ShardedManifest.is_sharded(path):
        with ShardedManifest(path) as sm:
            return sm.load()
    payload = json.loads(path.read_text())
    if payload.get("version") != LEGACY_MANIFEST_VERSION:
        raise ValueError(
            f"unsupported manifest version {payload.get('version')!r}")
    return payload.get("jobs", {})


def _docking_result(record: dict) -> dict | None:
    """The docking result of a terminal record: at ``record["result"]``
    in a :class:`JobResult` dict, one level deeper in a gateway record
    (whose ``result`` is the whole JobResult dict)."""
    result = record.get("result")
    if isinstance(result, dict) and "runs" not in result:
        result = result.get("result")
    if isinstance(result, dict) and result.get("runs"):
        return result
    return None


def rank_records(records) -> list[dict]:
    """Ranked hit list of terminal records, best score first.

    Ranks ``ok``/``cached`` records that carry a docking result, by best
    score (the min over runs) with ties broken by job id, so the order
    depends on neither completion order nor shard order.
    """
    scored = []
    for rec in records:
        result = _docking_result(rec)
        if rec.get("status") in ("ok", "cached") and result is not None:
            best = min(r["best_score"] for r in result["runs"])
            scored.append((best, rec["job_id"], rec, result))
    scored.sort(key=lambda row: row[:2])
    return [{"rank": k + 1, "label": rec.get("label", ""),
             "job_id": job_id, "best_score": best,
             "total_evals": result.get("total_evals"),
             "status": rec["status"]}
            for k, (best, job_id, rec, result) in enumerate(scored)]
