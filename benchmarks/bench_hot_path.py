"""Hot-path benchmark: evals/s of the batched docking pipeline.

Measures the end-to-end LGA throughput (score evaluations per second,
the denominator of the paper's µs/eval metric) of the lock-step engine
(:class:`~repro.search.cohort.CohortLGA`; single-ligand rows are a cohort
of one, timed from construction to the last run, as
:meth:`DockingEngine.dock` runs it) on the reference ADADELTA dock
config, once per reduction back-end, and breaks the wall time into stages
from one traced pass's :mod:`repro.obs` spans (summed per name):

* ``score``   — GA-phase population scoring (``lga.score``),
* ``ga``      — selection / crossover / mutation (``lga.ga_generation``),
* ``ls``      — ADADELTA local search (``lga.ls``),
* ``reduce4`` — the seven per-iteration reductions inside ``ls``
  (``reduction.reduce4``, one span per gradient call).

A full run also records the multi-ligand cohort sweeps and a ``screen``
section — the single-ligand throughput at the screening configuration
(few runs per ligand) that the cohort engine's speedup gate compares
against within the same file.

The result is written as ``BENCH_hot_path.json``; the committed copy at
the repository root is the performance baseline CI's bench gate compares
a fresh ``--smoke`` run against (see ``tools/check_bench.py``).  Because
absolute evals/s is machine-dependent, every file also records
``numpy_ref_s`` — the wall time of a fixed NumPy calibration workload —
and its ``metrics`` envelope (:func:`metrics`) states throughput in
machine-normalised units (evals per calibration unit).

Usage::

    PYTHONPATH=src python benchmarks/bench_hot_path.py --out BENCH_hot_path.json
    PYTHONPATH=src python benchmarks/bench_hot_path.py --smoke --out fresh.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tools.check_bench import SCHEMA, metric  # noqa: E402

#: fractional drop of a machine-normalised rate that counts as a regression
BOUND = 0.30
#: cohort width whose throughput must beat the single-ligand screen row
GATE_SIZE = "16"

#: back-ends benchmarked by the full reference run (the paper's three
#: configurations plus the exact float64 reference and the warp-shuffle
#: SIMT variant)
REFERENCE_BACKENDS = ("baseline", "warp-shuffle", "tc-fp16", "tcec-tf32",
                      "exact")
#: quick subset for the CI smoke job
SMOKE_BACKENDS = ("baseline", "tc-fp16", "tcec-tf32")
#: cohort widths of the multi-ligand sweep (homogeneous 7cpa copies, so
#: evals/s across sizes is apples-to-apples) and of the mixed sweep
#: (set-of-42 prefix, so pad_ratio reflects real heterogeneity)
COHORT_SIZES = (1, 4, 8, 16, 32)
COHORT_MIXED_SIZES = (4, 8, 16, 32)
COHORT_SMOKE_SIZES = (1, 4)

REFERENCE = {
    "case": "7cpa",
    "n_runs": 8,
    "seed": 11,
    "lga": {"pop_size": 30, "max_evals": 6000, "max_gens": 100,
            "ls_iters": 10, "ls_rate": 0.3},
}
SMOKE = {
    "case": "1u4d",
    "n_runs": 4,
    "seed": 11,
    "lga": {"pop_size": 10, "max_evals": 1000, "max_gens": 20,
            "ls_iters": 5, "ls_rate": 0.3},
}
#: per-ligand workload of a triage virtual screen: few runs per ligand,
#: so the run-batched single-ligand path works on narrow fronts
#: (gradient batches of ``n_runs * ceil(ls_rate * pop)`` = 18 rows).
#: This is the configuration cohorts exist for — the cohort sweeps run
#: it, and the ``screen`` section records the single-ligand (cohort of
#: one) throughput at the *same* config so the cohort speedup gate
#: compares like with like within one file.  (At the ``reference``
#: config's n_runs=8 the single path already amortises over wide
#: 72-row batches, which is a batch-size study, not a screening one.)
SCREEN = {
    "case": "7cpa",
    "n_runs": 2,
    "seed": 11,
    "lga": {"pop_size": 30, "max_evals": 3000, "max_gens": 100,
            "ls_iters": 10, "ls_rate": 0.3},
}


def calibrate() -> float:
    """Wall seconds of a fixed NumPy workload (machine-speed proxy).

    Mixes the primitives the docking hot path leans on — GEMM, gathers,
    elementwise transcendentals, reductions — so the ratio of two
    machines' ``numpy_ref_s`` approximates the ratio of their hot-path
    speeds.  Deterministic by construction (seeded, fixed iteration
    count); best-of-3 to shed scheduler noise.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((192, 192))
    b = rng.standard_normal((192, 192))
    idx = rng.integers(0, a.size, size=200_000)
    best = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = a.copy()
        for _ in range(30):
            acc = acc @ b
            acc /= np.maximum(np.abs(acc).max(), 1.0)
            g = np.take(a.reshape(-1), idx)
            acc[0, 0] += float(np.sum(np.exp(-0.5 * g * g)))
        best = min(best, time.perf_counter() - t0)
    return best


def _build(config: dict):
    from repro.search.lga import LGAConfig
    from repro.testcases import get_test_case

    case = get_test_case(config["case"])
    return case.scoring(), LGAConfig(**config["lga"])


def _stage_breakdown(records: list[dict]) -> dict:
    """Sum a traced pass's stage spans into per-stage seconds."""
    spans: dict[str, float] = {}
    for rec in records:
        if rec.get("type") == "span":
            spans[rec["name"]] = spans.get(rec["name"], 0.0) + rec["dur_s"]
    return {"score_s": spans.get("lga.score"),
            "ga_s": spans.get("lga.ga_generation"),
            "ls_s": spans.get("lga.ls"),
            "reduce4_s": spans.get("reduction.reduce4")}


def measure(config: dict, backend: str, repeats: int) -> dict:
    """Best-of-``repeats`` throughput plus one traced stage breakdown."""
    from repro.obs import configure, disable
    from repro.search.cohort import CohortLGA

    scoring, lga = _build(config)
    n_runs, seed = config["n_runs"], config["seed"]

    # untraced timing passes (the tracer's per-span bookkeeping must not
    # pollute the evals/s number)
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        [results] = CohortLGA([scoring], backend, lga, seeds=seed).run(
            n_runs)
        wall = time.perf_counter() - t0
        total_evals = int(sum(r.evals_used for r in results))
        if best is None or total_evals / wall > best["evals_per_s"]:
            best = {
                "wall_s": round(wall, 4),
                "total_evals": total_evals,
                "evals_per_s": round(total_evals / wall, 1),
                "best_score": round(min(r.best_score for r in results), 6),
            }

    # one traced pass for the stage breakdown (overhead excluded above)
    tracer = configure(None, source="bench-hot-path")
    CohortLGA([scoring], backend, lga, seeds=seed).run(n_runs)
    best["stages"] = _stage_breakdown(tracer.records())
    disable()
    return best


def measure_cohort(case_names: list[str], config: dict, backend: str,
                   repeats: int) -> dict:
    """Best-of-``repeats`` lock-step cohort throughput for ``case_names``.

    Construction (ligand packing) is inside the timed region, as in
    :func:`measure`.
    """
    from repro.search.cohort import CohortLGA
    from repro.search.lga import LGAConfig
    from repro.testcases import get_test_case

    cases = [get_test_case(n) for n in case_names]
    lga = LGAConfig(**config["lga"])
    seeds = [np.random.SeedSequence(entropy=config["seed"], spawn_key=(i,))
             for i in range(len(cases))]
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        runner = CohortLGA([c.scoring() for c in cases], backend, lga,
                           seeds=seeds)
        results = runner.run(config["n_runs"])
        wall = time.perf_counter() - t0
        total = int(sum(r.evals_used for per_lig in results
                        for r in per_lig))
        if best is None or total / wall > best["evals_per_s"]:
            best = {
                "cohort": len(cases),
                "wall_s": round(wall, 4),
                "total_evals": total,
                "evals_per_s": round(total / wall, 1),
                "pad_ratio": round(float(runner.cohort.pack.pad_ratio), 4),
            }
    return best


def run_cohort_section(config: dict, backend: str, sizes: tuple[int, ...],
                       repeats: int, mixed: bool = False) -> dict:
    from repro.testcases.library import SET_OF_42

    section = {"case": "set-of-42-prefix" if mixed else config["case"],
               "n_runs": config["n_runs"], "seed": config["seed"],
               "lga": dict(config["lga"]), "backend": backend,
               "sizes": {}}
    for size in sizes:
        if mixed:
            names = [n for n, _ in SET_OF_42[:size]]
        else:
            names = [config["case"]] * size
        print(f"  cohort {size:3d}   ", end="", flush=True)
        rec = measure_cohort(names, config, backend, repeats)
        section["sizes"][str(size)] = rec
        print(f"{rec['evals_per_s']:10.0f} evals/s   "
              f"(wall {rec['wall_s']:.2f}s, {rec['total_evals']} evals, "
              f"pad {rec['pad_ratio']:.1%})")
    one = section["sizes"].get("1")
    if one is not None:
        for rec in section["sizes"].values():
            rec["speedup_vs_1"] = round(
                rec["evals_per_s"] / one["evals_per_s"], 3)
    return section


def run_section(config: dict, backends: tuple[str, ...],
                repeats: int) -> dict:
    section = {"case": config["case"], "n_runs": config["n_runs"],
               "seed": config["seed"], "lga": dict(config["lga"]),
               "backends": {}}
    for backend in backends:
        print(f"  {backend:14s}", end="", flush=True)
        rec = measure(config, backend, repeats)
        section["backends"][backend] = rec
        print(f"{rec['evals_per_s']:10.0f} evals/s   "
              f"(wall {rec['wall_s']:.2f}s, {rec['total_evals']} evals)")
    return section


def metrics(doc: dict) -> list[dict]:
    """The file's gated envelope, derived from its raw sections.

    Throughput is machine-normalised — evals/s times the machine's
    ``numpy_ref_s``, i.e. evals per calibration unit — so a CI runner's
    smoke run compares with the committed file.  The cohort speedup is a
    ratio of two rows measured in the same run, so it needs no scaling.
    """
    ref_s = doc["machine"]["numpy_ref_s"]

    def rate(name: str, rec: dict, **smoke) -> dict:
        return metric(f"{name}.evals_per_ref", "evals/ref", "higher",
                      rec["evals_per_s"] * ref_s, BOUND, **smoke)

    out = [rate(f"smoke.{b}", rec, smoke=True)
           for b, rec in doc["smoke"]["backends"].items()]
    out += [rate(f"cohort_smoke.{size}", rec, smoke=True)
            for size, rec in doc["cohort_smoke"]["sizes"].items()]
    if doc["screen"] is not None:
        single = doc["screen"]["backends"]["baseline"]
        out.append(rate("screen.baseline", single))
        cohort = doc["cohort"]["sizes"][GATE_SIZE]
        out.append(metric(f"cohort.{GATE_SIZE}_vs_single", "x", "higher",
                          cohort["evals_per_s"] / single["evals_per_s"],
                          min=2.0))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH_hot_path.json",
                    help="output JSON path")
    ap.add_argument("--smoke", action="store_true",
                    help="small case only, best of 3 (CI bench gate)")
    ap.add_argument("--cohort", type=int, default=None, metavar="N",
                    help="quick mode: measure the single-ligand reference "
                         "baseline and one homogeneous cohort of N, print "
                         "the speedup, and exit (no file written)")
    args = ap.parse_args(argv)
    repeats = 3 if args.smoke else 2      # timing passes (best-of)

    if args.cohort is not None:
        print("single-ligand screen config (baseline backend):")
        single = measure(SCREEN, "baseline", repeats)
        print(f"  single        {single['evals_per_s']:10.0f} evals/s")
        print(f"cohort {args.cohort} (homogeneous {SCREEN['case']}):")
        rec = measure_cohort([SCREEN["case"]] * args.cohort,
                             SCREEN, "baseline", repeats)
        ratio = rec["evals_per_s"] / single["evals_per_s"]
        print(f"  cohort {args.cohort:3d}    {rec['evals_per_s']:10.0f} "
              f"evals/s   ({ratio:.2f}x single, "
              f"pad {rec['pad_ratio']:.1%})")
        return 0

    doc = {
        "schema": SCHEMA,
        "bench": "hot_path",
        "machine": {
            "numpy_ref_s": round(calibrate(), 4),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "smoke": None,
        "reference": None,
        "screen": None,
        "cohort_smoke": None,
        "cohort": None,
        "cohort_mixed": None,
    }

    print("smoke case:")
    doc["smoke"] = run_section(SMOKE, SMOKE_BACKENDS, repeats)
    print("cohort smoke sweep:")
    doc["cohort_smoke"] = run_cohort_section(
        SMOKE, "baseline", COHORT_SMOKE_SIZES, repeats)

    if not args.smoke:
        print("reference case:")
        doc["reference"] = run_section(REFERENCE, REFERENCE_BACKENDS,
                                       repeats)
        print("screen config, single-ligand:")
        doc["screen"] = run_section(SCREEN, ("baseline",), repeats)
        print("cohort sweep (homogeneous, screen config):")
        doc["cohort"] = run_cohort_section(
            SCREEN, "baseline", COHORT_SIZES, repeats)
        print("cohort sweep (mixed set-of-42 prefix, screen config):")
        doc["cohort_mixed"] = run_cohort_section(
            SCREEN, "baseline", COHORT_MIXED_SIZES, max(1, repeats - 1),
            mixed=True)

    doc["metrics"] = metrics(doc)
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
