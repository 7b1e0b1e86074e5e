#!/usr/bin/env python
"""Precision frontier of the reduction backends (``BENCH_precision.json``).

Every reduction backend trades accuracy, modelled cost and fault
robustness differently; this benchmark measures all three axes for the
full registry — the FP32 SIMT tree, the FP64 reference, both Tensor
Core paper variants and the Ozaki-scheme guaranteed-accuracy backends —
and writes one JSON file (``BENCH_precision.json`` at the repository
root is the committed baseline):

* **accuracy** — max / mean output-ulp error against the float64 ground
  truth over seeded adversarial input families (uniform, mixed
  magnitude, catastrophic cancellation, subnormals, leading batch
  dims).  For the Ozaki backends the analytic guarantee
  ``n * 2**(e_ref - k*w) + 1 output ulp`` (see
  :mod:`repro.reduction.ozaki`) is additionally checked sample by
  sample and recorded as ``guaranteed_bound_ok``;
* **modelled cost** — reduction-region lane-slot cycles and the
  reduction share of one ADADELTA iteration under
  :class:`repro.simt.costmodel.KernelCostModel` (A100, block 64, the
  7cpa-sized workload) — the frontier's x-axis;
* **fault susceptibility** — for the MMA-routed backends, inject one
  additive fault into the energy row of every scheduled accumulator
  tile in turn (via :func:`repro.tensorcore.mma.fault_hook`) and count
  the fraction of sites whose corruption survives to the reduced
  energy lane.  The Ozaki slicing attenuates low-order-slice faults by
  ``2**-(j*SLICE_BITS)``, so its extra issue sites are *less*
  dangerous, not more;
* **E50** — evaluations to 50% docking success on a small seeded LGA
  grid per backend, the end-to-end consequence of reduction error.

The ``metrics`` envelope (:func:`metrics`) gates them.

Usage::

    PYTHONPATH=src python benchmarks/bench_precision_frontier.py \
        --smoke --out fresh-precision.json

CI's bench gate checks the fresh file against the committed baseline
with ``tools/check_bench.py`` (ULP-bound and E50 gates).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_hot_path import SCHEMA, calibrate, metric  # noqa: E402

#: fractional rise of a max-ulp error or an E50 that counts as a regression
BOUND = 0.30

#: every registered backend; keep in sync with repro.reduction.api
BACKENDS = ("baseline", "warp-shuffle", "tc-fp16", "tcec-tf32", "exact",
            "ozaki-k2", "ozaki-k3", "chained-ozaki")

#: backends whose tiles flow through the simulated MMA unit
MMA_BACKENDS = ("tc-fp16", "tcec-tf32", "ozaki-k2", "ozaki-k3",
                "chained-ozaki")

#: cost-model configuration of the frontier's x-axis (paper defaults)
COST = {"device": "A100", "block_size": 64,
        "workload": {"n_rotlist": 130, "n_atoms": 40, "n_intra": 220,
                     "n_genes": 22, "n_blocks": 128}}

#: absolute energy change that counts as a propagated fault
FAULT_TOL = 1e-4

#: full grid: a flexible ligand (torsions exercise the gradient
#: reductions) with enough runs to damp run-level E50 variance
E50_FULL = {"case": "5kao", "n_runs": 16, "max_evals": 3000, "seed": 2025,
            "lga": {"pop_size": 16, "max_evals": 3000, "max_gens": 60,
                    "ls_iters": 20, "ls_rate": 0.25}}
#: smoke grid: the rigid easy case — every backend succeeds, so the CI
#: well-formedness gate (finite baseline E50) never flakes
E50_SMOKE = {"case": "1u4d", "n_runs": 4, "max_evals": 1000, "seed": 2025,
             "lga": {"pop_size": 10, "max_evals": 1000, "max_gens": 25,
                     "ls_iters": 10, "ls_rate": 0.25}}


# ----------------------------------------------------------------------
# adversarial input families (seeded, shared by every backend)

def _families(rng: np.random.Generator, n_samples: int) -> list[tuple[str, np.ndarray]]:
    out = []
    for i in range(n_samples):
        n = int(rng.integers(5, 200))
        out.append(("uniform", rng.normal(size=(n, 4))))
        scale = np.exp2(rng.integers(-18, 19, size=(n, 4)).astype(np.float64))
        out.append(("mixed-magnitude", rng.normal(size=(n, 4)) * scale))
        half = rng.normal(size=(n, 4)) * 1e4
        tail = rng.normal(size=(n, 4))
        out.append(("cancellation",
                    np.concatenate([half, -half, tail], axis=-2)))
        out.append(("subnormal",
                    rng.normal(size=(n, 4)) * np.float64(2.0) ** -135))
        out.append(("batched", rng.normal(size=(3, 2, max(n // 4, 5), 4))
                    * np.exp2(rng.integers(-8, 9))))
    return out


def _ulp_errors(out: np.ndarray, ref64: np.ndarray) -> np.ndarray:
    """|out - ref| in units of the float32 output ulp at the reference."""
    ref32 = ref64.astype(np.float32)
    ulp = np.abs(np.spacing(ref32)).astype(np.float64)
    ulp = np.maximum(ulp, np.finfo(np.float32).smallest_subnormal)
    return np.abs(out.astype(np.float64) - ref64) / ulp


def measure_accuracy(name: str, samples) -> dict:
    from repro.reduction.api import get_reduction_backend
    from repro.reduction.ozaki import ozaki_error_bound

    backend = get_reduction_backend(name)
    k = getattr(backend, "k", None)
    errs: list[float] = []
    per_family: dict[str, float] = {}
    bound_ok: bool | None = None if k is None else True
    for family, vectors in samples:
        out = backend.reduce4(vectors)
        ref64 = np.asarray(vectors, dtype=np.float64).sum(axis=-2)
        e = _ulp_errors(out, ref64)
        finite = e[np.isfinite(e)]
        if finite.size:
            errs.extend(finite.ravel().tolist())
            worst = float(finite.max())
            per_family[family] = max(per_family.get(family, 0.0), worst)
        if k is not None:
            ref32 = ref64.astype(np.float32)
            bound = (ozaki_error_bound(vectors, k)
                     + np.abs(np.spacing(ref32)))
            gap = np.abs(out.astype(np.float64) - ref32.astype(np.float64))
            if not np.all(gap <= bound):
                bound_ok = False
    arr = np.asarray(errs)
    return {
        "n_samples": len(samples),
        "max_ulp_err": float(arr.max()) if arr.size else 0.0,
        "mean_ulp_err": float(arr.mean()) if arr.size else 0.0,
        "per_family_max_ulp": {f: round(v, 4)
                               for f, v in sorted(per_family.items())},
        "guaranteed_bound_ok": bound_ok,
    }


# ----------------------------------------------------------------------
# modelled cost (the frontier's x-axis; no wall-clock noise)

def modelled_cost(name: str) -> dict | None:
    from repro.simt.costmodel import KernelCostModel, KernelWorkload

    if name not in _cost_keys():
        return None
    wl = KernelWorkload(**COST["workload"])
    cost = KernelCostModel(COST["device"], COST["block_size"],
                           name).iteration_cost(wl)
    reduce_cycles = (cost.clock.cycles("reduction")
                     + cost.clock.cycles("reduction_overhead"))
    return {
        "reduce_slot_cycles": round(reduce_cycles, 1),
        "iteration_us": round(cost.seconds * 1e6, 4),
        "tensor_fraction": round(cost.tensor_fraction(), 4),
    }


def _cost_keys() -> tuple[str, ...]:
    from repro.simt.costmodel import REDUCTION_BACKENDS
    return REDUCTION_BACKENDS


# ----------------------------------------------------------------------
# fault susceptibility (single-site exhaustive tile injection)

class _SiteFault:
    """Tile hook that corrupts exactly one scheduled MMA issue.

    ``target < 0`` counts sites without corrupting (census pass).  The
    perturbation lands in the energy row of the accumulator (row 3 of
    the extracted ``W`` column) — the lane the docking score reads.
    """

    def __init__(self, target: int = -1, delta: float = 1.0) -> None:
        self.target = target
        self.delta = delta
        self.calls = 0

    def __call__(self, tile: np.ndarray, site: str) -> np.ndarray:
        if self.calls == self.target:
            tile = np.array(tile, copy=True)
            tile[..., 3, 0] += np.asarray(self.delta, dtype=tile.dtype)
        self.calls += 1
        return tile


def measure_susceptibility(name: str, rng: np.random.Generator) -> dict | None:
    from repro.reduction.api import get_reduction_backend
    from repro.tensorcore.mma import fault_hook

    if name not in MMA_BACKENDS:
        return None
    backend = get_reduction_backend(name)
    vectors = rng.normal(size=(130, 4))        # 3 packed tiles per slice
    census = _SiteFault()
    with fault_hook(census):
        clean = backend.reduce4(vectors)
    flipped = 0
    for site in range(census.calls):
        probe = _SiteFault(target=site)
        with fault_hook(probe):
            faulty = backend.reduce4(vectors)
        if abs(float(faulty[3]) - float(clean[3])) > FAULT_TOL:
            flipped += 1
    return {
        "sites": census.calls,
        "flipped": flipped,
        "susceptibility": round(flipped / census.calls, 4),
    }


# ----------------------------------------------------------------------
# E50 grid (end-to-end accuracy consequence)

def measure_e50(name: str, spec: dict) -> dict:
    from repro.analysis import estimate_e50, evaluate_run
    from repro.search.cohort import CohortLGA
    from repro.search.lga import LGAConfig
    from repro.testcases import get_test_case

    case = get_test_case(spec["case"])
    runner = CohortLGA([case.scoring()], name, LGAConfig(**spec["lga"]),
                       seeds=spec["seed"])
    t0 = time.perf_counter()
    [results] = runner.run(spec["n_runs"])
    wall = time.perf_counter() - t0
    outcomes = [evaluate_run(r, case) for r in results]
    budgets = [r.evals_used for r in results]
    est = estimate_e50([o.first_success_score for o in outcomes], budgets)
    return {
        "e50_score": (round(est.e50, 1) if math.isfinite(est.e50)
                      else None),
        "success_rate": round(est.success_rate, 4),
        "n_runs": est.n_runs,
        "wall_s": round(wall, 3),
    }


# ----------------------------------------------------------------------

def metrics(doc: dict) -> list[dict]:
    """The file's gated envelope, derived from its raw sections.

    ULP errors are deterministic (seeded families; the smoke grid draws a
    prefix of the full grid's samples), so every run carries them.  E50
    values compare only between files that measured the same grid, so
    their names carry a digest of ``e50_config``.  The baseline backend's
    E50 must be finite: an all-failure grid means the budget starves the
    search and the per-backend numbers are censoring artifacts.
    """
    backends = doc["backends"]
    out = [metric("backends", "count", "higher", len(backends), min=6)]
    for name, rec in backends.items():
        # the exact reference must stay correctly rounded
        exact = {"max": 0.5} if name == "exact" else {}
        out.append(metric(f"{name}.max_ulp_err", "ulp", "lower",
                          rec["max_ulp_err"], BOUND, smoke=True, **exact))
        if rec["guaranteed_bound_ok"] is not None:
            out.append(metric(f"{name}.guaranteed_bound_ok", "bool",
                              "higher", rec["guaranteed_bound_ok"], min=1))
    grid = hashlib.sha256(json.dumps(doc["e50_config"], sort_keys=True)
                          .encode()).hexdigest()[:8]
    out.append(metric("e50.baseline_finite", "bool", "higher",
                      backends["baseline"]["e50"]["e50_score"] is not None,
                      min=1))
    out += [metric(f"e50.{grid}.{name}", "evals", "lower",
                   rec["e50"]["e50_score"], BOUND)
            for name, rec in backends.items()
            if rec["e50"]["e50_score"] is not None]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH_precision.json")
    ap.add_argument("--smoke", action="store_true",
                    help="reduced grid for CI (fewer ULP samples, "
                         "smaller E50 budget)")
    args = ap.parse_args(argv)

    n_samples = 4 if args.smoke else 16
    e50_spec = E50_SMOKE if args.smoke else E50_FULL

    rng = np.random.default_rng(42)
    samples = _families(rng, n_samples)
    print(f"precision frontier: {len(BACKENDS)} backends, "
          f"{len(samples)} adversarial samples, "
          f"E50 grid {e50_spec['case']} x {e50_spec['n_runs']} runs")

    doc = {
        "schema": SCHEMA,
        "bench": "precision",
        "machine": {"numpy_ref_s": round(calibrate(), 4)},
        "cost_model": COST,
        "ulp_study": {"seed": 42, "n_samples": len(samples)},
        "e50_config": e50_spec,
        "backends": {},
    }
    for name in BACKENDS:
        rec = measure_accuracy(name, samples)
        rec["cost"] = modelled_cost(name)
        rec["fault"] = measure_susceptibility(
            name, np.random.default_rng(7))
        rec["e50"] = measure_e50(name, e50_spec)
        doc["backends"][name] = rec
        cost = rec["cost"]
        fault = rec["fault"]
        print(f"  {name:14s} max ulp {rec['max_ulp_err']:10.3g}  "
              f"cycles {cost['reduce_slot_cycles'] if cost else '—':>10}  "
              f"suscept {fault['susceptibility'] if fault else '—':>6}  "
              f"E50 {rec['e50']['e50_score']}")

    doc["metrics"] = metrics(doc)
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True)
                              + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
