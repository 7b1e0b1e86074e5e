"""Store/I-O benchmark: the disk tier, the ``.rlig`` pack, the manifests.

Measures the serving layer's storage path — the pieces a million-ligand
screen leans on once docking itself is no longer the bottleneck:

* ``pack``     — ``.rlig`` encode and streamed decode throughput over a
  synthetic ligand library (``>= 10^4`` ligands in a full run);
* ``manifest`` — steady-state per-job cost of the NDJSON append log vs
  rewriting one JSON document of the same size on every completion (the
  O(n) rewrite the retired single-file manifest paid, timed through
  ``atomic_write_json``: the recorded reason the log is the only
  manifest format);
* ``store``    — grid-map load latency cold (text ``.map`` parse + flat
  build) vs warm (mmap'd ``.npy`` blob from the :class:`BlobStore`);
* ``screen``   — a small end-to-end :class:`VirtualScreen` from an
  ``.rlig`` pack, cold store vs warm store, with per-span counts from
  the trace log: a warm worker must show **zero** ``parse.ligand`` /
  ``parse.maps`` / ``grid.build`` spans, and the warm 2-shard manifest
  ranking must merge to exactly the cold 1-shard ranking.

The result is written as ``BENCH_store_io.json``; the committed copy at
the repository root is the baseline CI's bench gate checks a fresh
``--smoke`` run against (``tools/check_bench.py``).  As with the other
bench files, ``machine.numpy_ref_s`` records a fixed NumPy calibration
workload, and the ``metrics`` envelope (:func:`metrics`) states rates in
normalised units so two machines' files compare.

Usage::

    PYTHONPATH=src python benchmarks/bench_store_io.py --out BENCH_store_io.json
    PYTHONPATH=src python benchmarks/bench_store_io.py --smoke --out fresh.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
# the shared machine probe and the bench envelope
from bench_hot_path import SCHEMA, calibrate, metric  # noqa: E402

#: fractional drop of a machine-normalised rate that counts as a regression
BOUND = 0.50

#: span names that must not fire on a warm worker
_COLD_SPANS = ("parse.ligand", "parse.maps", "grid.build")

FULL = {"pack_n": 10_000, "manifest_jobs": 10_000, "manifest_shards": 8,
        "single_rewrites": 64, "screen_n": 24}
#: the smoke screen keeps the full ligand count: its warm jobs/s is gated
#: against the committed full row, and fewer jobs cannot amortise the
#: pool's start-up (6 ligands read ~0.6x of the 24-ligand rate)
SMOKE = {"pack_n": 512, "manifest_jobs": 1_000, "manifest_shards": 4,
         "single_rewrites": 16, "screen_n": FULL["screen_n"]}


# ----------------------------------------------------------------- pack

def _synth_ligand(rng: np.random.Generator, i: int):
    """A random chain molecule: 6-14 atoms, 1-2 torsions."""
    from repro.docking import Ligand, TorsionBond
    n = int(rng.integers(6, 15))
    types = list(rng.choice(["C", "A", "OA", "N", "HD"], size=n))
    coords = np.cumsum(rng.normal(0.0, 1.0, size=(n, 3)), axis=0)
    charges = rng.normal(0.0, 0.15, size=n)
    bonds = [(j, j + 1) for j in range(n - 1)]
    torsions = [TorsionBond(atom_a=1, atom_b=2,
                            moved=tuple(range(3, n)))]
    mid = n // 2
    if mid >= 4 and mid + 1 < n:
        torsions.append(TorsionBond(atom_a=mid - 1, atom_b=mid,
                                    moved=tuple(range(mid + 1, n))))
    return Ligand(name=f"synth-{i:06d}", atom_types=types,
                  ref_coords=coords, charges=charges,
                  bonds=bonds, torsions=torsions)


def bench_pack(n: int, workdir: Path) -> dict:
    from repro.io import RligReader, pack_rlig
    rng = np.random.default_rng(2024)
    ligands = [_synth_ligand(rng, i) for i in range(n)]

    pack_path = workdir / "library.rlig"
    t0 = time.perf_counter()
    pack_rlig(pack_path, ligands)
    pack_s = time.perf_counter() - t0

    with RligReader(pack_path) as reader:
        t0 = time.perf_counter()
        for i in range(n):
            reader.read(i)
        read_s = time.perf_counter() - t0

    pack_bytes = pack_path.stat().st_size
    return {
        "n_ligands": n,
        "pack_s": pack_s,
        "pack_ligands_per_s": n / pack_s,
        "read_s": read_s,
        "read_ligands_per_s": n / read_s,
        "pack_bytes": pack_bytes,
        "bytes_per_ligand": pack_bytes / n,
    }


# ------------------------------------------------------------- manifest

def _synth_record(i: int, rng: np.random.Generator) -> dict:
    return {"job_id": f"{i:016x}", "label": f"lig{i:06d}", "status": "ok",
            "attempts": 1, "worker_id": i % 4, "wall_seconds": 0.01,
            "result": {"runs": [{"best_score": float(rng.normal())}],
                       "total_evals": 300},
            "cache": None, "error": None, "extra": {}}


def bench_manifest(n_jobs: int, n_shards: int, single_rewrites: int,
                   workdir: Path) -> dict:
    """Steady-state per-completion cost, append log vs full rewrite."""
    from repro.serve import ShardedManifest, atomic_write_json

    rng = np.random.default_rng(7)
    records = [_synth_record(i, rng) for i in range(n_jobs)]

    sharded = ShardedManifest(workdir / "sharded", n_shards=n_shards)
    t0 = time.perf_counter()
    for rec in records:
        sharded.append(rec)
    sharded.close()
    append_s = time.perf_counter() - t0

    # the single-file path rewrites the whole document per completion;
    # measure the rewrite at final size (the steady state of a screen
    # that has already completed n_jobs results)
    jobs = {rec["job_id"]: rec for rec in records}
    payload = {"version": 1, "jobs": jobs}
    single_path = workdir / "manifest.json"
    t0 = time.perf_counter()
    for _ in range(single_rewrites):
        atomic_write_json(single_path, payload)
    single_s = time.perf_counter() - t0

    per_job_sharded = append_s / n_jobs
    per_job_single = single_s / single_rewrites
    return {
        "n_jobs": n_jobs,
        "n_shards": n_shards,
        "sharded_append_s": append_s,
        "sharded_s_per_job": per_job_sharded,
        "sharded_jobs_per_s": n_jobs / append_s,
        "single_rewrites_timed": single_rewrites,
        "single_s_per_job": per_job_single,
        "append_vs_rewrite_speedup": per_job_single / per_job_sharded,
    }


# ---------------------------------------------------------------- store

def bench_store(workdir: Path) -> dict:
    """Grid-map load: cold text parse vs warm mmap'd blob."""
    from repro.io import write_maps
    from repro.serve import BlobStore, ContentCache
    from repro.serve.cache import load_maps
    from repro.testcases import get_test_case

    case = get_test_case("1u4d")
    fld = write_maps(case.maps, workdir, stem="receptor")
    store = BlobStore(workdir / "store")

    cold_cache = ContentCache(1 << 28, store=store)
    t0 = time.perf_counter()
    cold = load_maps(fld, cold_cache)
    cold_s = time.perf_counter() - t0

    warm_cache = ContentCache(1 << 28, store=store)
    t0 = time.perf_counter()
    warm = load_maps(fld, warm_cache)
    warm_s = time.perf_counter() - t0

    if not np.array_equal(np.asarray(cold.affinity),
                          np.asarray(warm.affinity)):
        raise SystemExit("store round-trip is not bit-identical")
    return {
        "case": "1u4d",
        "grid_bytes": int(cold.nbytes),
        "cold_load_s": cold_s,
        "warm_load_s": warm_s,
        "speedup": cold_s / warm_s,
        "cold_cache": {k: cold_cache.stats()[k]
                       for k in ("disk_hits", "disk_misses", "disk_writes")},
        "warm_cache": {k: warm_cache.stats()[k]
                       for k in ("disk_hits", "disk_misses", "disk_writes")},
    }


# --------------------------------------------------------------- screen

def _count_spans(trace_path: Path) -> dict[str, int]:
    counts = {name: 0 for name in _COLD_SPANS}
    counts["pack.read"] = 0
    for line in trace_path.read_text().splitlines():
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue
        if rec.get("type") == "span" and rec.get("name") in counts:
            counts[rec["name"]] += 1
    return counts


def bench_screen(n_ligands: int, workdir: Path) -> dict:
    """End-to-end mini screen from an ``.rlig`` pack, cold vs warm store."""
    from repro.core import DockingConfig
    from repro.io import pack_rlig, write_maps
    from repro.search.lga import LGAConfig
    from repro.serve import VirtualScreen
    from repro.testcases import get_test_case

    config = DockingConfig(backend="baseline",
                           lga=LGAConfig(pop_size=8, max_evals=300,
                                         max_gens=6, ls_iters=5,
                                         ls_rate=0.25))
    case = get_test_case("1u4d")
    fld = write_maps(case.maps, workdir, stem="receptor")
    rng = np.random.default_rng(5)
    ligands = []
    for i in range(n_ligands):
        jitter = rng.normal(0, 0.05, size=case.ligand.ref_coords.shape)
        ligands.append(replace(case.ligand, name=f"lig{i:03d}",
                               ref_coords=case.ligand.ref_coords + jitter))
    pack = workdir / "screen.rlig"
    pack_rlig(pack, ligands)
    store = workdir / "store"

    def _run(tag: str, manifest_shards: int) -> tuple[dict, object]:
        trace = workdir / f"trace-{tag}.jsonl"
        screen = VirtualScreen(fld=fld, rlig=pack, config=config,
                               n_runs=1, seed=17)
        t0 = time.perf_counter()
        report = screen.run(workers=2, store=store,
                            manifest=workdir / f"manifest-{tag}",
                            manifest_shards=manifest_shards, trace=trace)
        wall = time.perf_counter() - t0
        section = {
            "wall_s": wall,
            "jobs_per_s": report.stats["jobs_per_second"],
            "spans": _count_spans(trace),
            "cache": {k: report.stats["cache"][k]
                      for k in ("hits", "misses", "disk_hits",
                                "disk_misses", "disk_writes")},
        }
        return section, report

    cold, cold_report = _run("cold", manifest_shards=1)
    warm, warm_report = _run("warm", manifest_shards=2)

    # the 2-shard warm manifest must merge to the cold 1-shard
    # ranking (same seed, same library => same jobs, same scores)
    from tools.merge_manifests import merge
    merged = merge([workdir / "manifest-warm"])

    def _strip(ranking):
        return [(r["job_id"], r["label"], r["best_score"])
                for r in ranking]

    identical = (_strip(merged["ranking"]) == _strip(cold_report.ranking)
                 == _strip(warm_report.ranking))
    return {
        "case": "1u4d",
        "n_ligands": n_ligands,
        "cold": cold,
        "warm": warm,
        "rankings_identical": bool(identical),
    }


# ----------------------------------------------------------------- main

def metrics(doc: dict) -> list[dict]:
    """The file's gated envelope, derived from its raw sections.

    Rates scale inversely with machine slowness, so the compared number
    is ``rate x numpy_ref_s`` (work units per calibration unit).  The
    limits are the disk tier's reasons to exist: a warm store-backed
    screen re-parses no input and rebuilds no grid, the cold screen shows
    the contrast (or the trace plumbing broke and the warm zero means
    nothing), the sharded warm manifest merges to the single-file
    ranking, and sharded appends beat full rewrites per completion.
    """
    ref_s = doc["machine"]["numpy_ref_s"]
    screen = doc["screen"]

    def rate(name: str, per_s: float) -> dict:
        return metric(name, "1/ref", "higher", per_s * ref_s, BOUND,
                      smoke=True)

    def cold_path_spans(side: str) -> int:
        return sum(screen[side]["spans"][name] for name in _COLD_SPANS)

    return [
        rate("pack.ligands_per_ref", doc["pack"]["pack_ligands_per_s"]),
        rate("pack.reads_per_ref", doc["pack"]["read_ligands_per_s"]),
        rate("manifest.appends_per_ref",
             doc["manifest"]["sharded_jobs_per_s"]),
        rate("screen.warm.jobs_per_ref", screen["warm"]["jobs_per_s"]),
        metric("manifest.append_vs_rewrite", "x", "higher",
               doc["manifest"]["append_vs_rewrite_speedup"], min=2.0),
        metric("screen.warm.cold_path_spans", "count", "lower",
               cold_path_spans("warm"), max=0),
        metric("screen.cold.cold_path_spans", "count", "higher",
               cold_path_spans("cold"), min=1),
        metric("screen.rankings_identical", "bool", "higher",
               screen["rankings_identical"], min=1),
    ]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small fast run for CI (fewer ligands and jobs)")
    ap.add_argument("--out", default="BENCH_store_io.json",
                    help="output JSON path (default BENCH_store_io.json)")
    args = ap.parse_args(argv)
    params = SMOKE if args.smoke else FULL

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    print("calibrating machine ...", flush=True)
    ref_s = calibrate()
    doc = {
        "schema": SCHEMA,
        "bench": "store_io",
        "mode": "smoke" if args.smoke else "full",
        "machine": {
            "numpy_ref_s": ref_s,
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }

    with tempfile.TemporaryDirectory(prefix="bench_store_io_") as tmp:
        # every section gets its own directory — the store sections must
        # not warm each other's blob stores (both use the same case)
        def _subdir(name: str) -> Path:
            path = Path(tmp) / name
            path.mkdir()
            return path

        print(f"pack: {params['pack_n']} synthetic ligands ...", flush=True)
        doc["pack"] = bench_pack(params["pack_n"], _subdir("pack"))
        print(f"  {doc['pack']['pack_ligands_per_s']:.0f} lig/s pack, "
              f"{doc['pack']['read_ligands_per_s']:.0f} lig/s read, "
              f"{doc['pack']['bytes_per_ligand']:.0f} B/ligand")

        print(f"manifest: {params['manifest_jobs']} jobs x "
              f"{params['manifest_shards']} shards ...", flush=True)
        doc["manifest"] = bench_manifest(
            params["manifest_jobs"], params["manifest_shards"],
            params["single_rewrites"], _subdir("manifest"))
        print(f"  sharded {doc['manifest']['sharded_jobs_per_s']:.0f} "
              f"appends/s; append-vs-rewrite speedup "
              f"{doc['manifest']['append_vs_rewrite_speedup']:.1f}x")

        print("store: cold parse vs warm mmap ...", flush=True)
        doc["store"] = bench_store(_subdir("store"))
        print(f"  cold {doc['store']['cold_load_s'] * 1e3:.1f} ms, "
              f"warm {doc['store']['warm_load_s'] * 1e3:.1f} ms "
              f"({doc['store']['speedup']:.1f}x)")

        print(f"screen: {params['screen_n']} ligands, cold vs warm store "
              f"...", flush=True)
        doc["screen"] = bench_screen(params["screen_n"],
                                     _subdir("screen"))
        print(f"  cold spans {doc['screen']['cold']['spans']}")
        print(f"  warm spans {doc['screen']['warm']['spans']}")
        print(f"  rankings identical: "
              f"{doc['screen']['rankings_identical']}")

    doc["metrics"] = metrics(doc)
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True)
                              + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
