"""Helpers shared by the workloads: machine probe, statistics, inputs."""

from __future__ import annotations

import math
import os
import resource
import time

import numpy as np

#: the complex every workload docks into (its grid maps fix the atom types
#: a library ligand may use)
MAP_CASE = "7cpa"


def calibrate() -> float:
    """Wall seconds of the fixed NumPy probe that ``BENCH_*.json`` files
    record as ``numpy_ref_s`` (``benchmarks/bench_hot_path.calibrate``):
    GEMM, gathers, transcendentals and reductions, best of four passes."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((192, 192))
    b = rng.standard_normal((192, 192))
    idx = rng.integers(0, a.size, size=200_000)
    best = math.inf
    for _ in range(4):              # the first pass warms BLAS up
        t0 = time.perf_counter()
        acc = a.copy()
        for _ in range(30):
            acc = acc @ b
            acc /= np.maximum(np.abs(acc).max(), 1.0)
            g = np.take(a.reshape(-1), idx)
            acc[0, 0] += float(np.sum(np.exp(-0.5 * g * g)))
        best = min(best, time.perf_counter() - t0)
    return best


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        return math.nan
    k = max(1, math.ceil(q / 100.0 * len(xs)))
    return float(xs[k - 1])


def steal_s() -> float:
    """CPU seconds the hypervisor has taken from this VM since boot (the
    ``steal`` column of ``/proc/stat``; 0 where it is not available)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def ledger_evals(lga) -> int:
    """Score evaluations one ADADELTA LGA run bills under ``lga``.

    Mirrors the engine's eval ledger: every generation scores the
    population and refines ``round(ls_rate * pop)`` members for
    ``ls_iters`` fused evaluations each; a run that exits on the
    generation cap pays one final population scoring, a run that hits
    ``max_evals`` right after scoring does not.
    """
    n_ls = int(round(lga.ls_rate * lga.pop_size))
    evals = gens = 0
    while evals < lga.max_evals and gens < lga.max_gens:
        evals += lga.pop_size
        if evals >= lga.max_evals:
            return evals
        evals += n_ls * lga.ls_iters
        gens += 1
    return evals + lga.pop_size


def mixed_ligands(rng: np.random.Generator, n: int, allowed: set[str],
                  prefix: str = "lig"):
    """``n`` seeded ligands with rotatable-bond counts spread evenly over
    0..15 (shuffled), every atom type one of ``allowed``.

    Uses the generator the repository builds its own test-case ligands
    with, so the shapes are the ones the docking code is written for.
    """
    from repro.testcases.generator import _grow_ligand

    n_rots = np.resize(np.arange(16), n)
    rng.shuffle(n_rots)
    out = []
    for i, n_rot in enumerate(n_rots):
        lig = _grow_ligand(rng, f"{prefix}{i:04d}", int(n_rot))
        extra = set(lig.atom_types) - allowed
        if extra:
            raise ValueError(f"{lig.name} uses atom types {sorted(extra)} "
                             f"that the {MAP_CASE} maps lack")
        out.append(lig)
    return out


def warm_store(store_dir) -> None:
    """Write the 7cpa case into a disk store, as a first screen would."""
    from repro.serve.cache import ContentCache, load_case
    from repro.serve.store import BlobStore
    from repro.testcases.library import clear_cache

    clear_cache()          # every set-up builds the case, as a cold one does
    load_case({"kind": "case", "case": MAP_CASE},
              ContentCache(store=BlobStore(store_dir)))
