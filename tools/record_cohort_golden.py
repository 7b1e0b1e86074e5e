"""Record the reference docks of ``tests/data/golden_cohort.json``.

Every dock that ``tests/test_cohort_golden.py`` and the AutoStop tests
compare the lock-step engine against is run here through
``DockingEngine.dock`` and stored bit-exactly: scores as float hex,
genotypes as the hex of their float64 bytes.  A reduction back-end the
cost model cannot price (``warp-shuffle``) has no ``DockingConfig``, so
its docks run through :func:`lockstep_runs` and store runs only.

Usage (from the repository root)::

    PYTHONPATH=src python tools/record_cohort_golden.py [--out PATH]

The committed file was recorded at commit 702d64f, whose
``DockingEngine.dock`` still ran the solo engines (a lock-step runner for
one ligand, and a per-run scalar loop under AutoStop), with
:func:`lockstep_runs` calling that solo lock-step runner.  The scalar loop
billed one extra population pass to every run it stopped early (AutoStop
or an exhausted budget) and reported the first run's generation count;
the AutoStop tests account for both.  Re-recording from a later tree
therefore differs from the committed file only in the AutoStop docks'
``evals_used``, ``total_evals`` and ``generations``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "tests" / "data" / "golden_cohort.json"

#: small-but-real config of the cohort suite: two runs, a couple of
#: generations of GA + LS
BASE = dict(pop_size=8, max_evals=300, max_gens=10, ls_iters=3, ls_rate=0.3)
#: LGAConfig keyword arguments per config label (``ga`` is a GAConfig dict)
CONFIGS = {
    "base": BASE,
    "sw": dict(BASE, ls_method="sw"),
    "proportional": dict(BASE, ga={"selection": "proportional"}),
    # budget small enough that members stop in different generations
    "budget": dict(BASE, max_evals=40, max_gens=50),
    "gens0": dict(BASE, max_gens=0),
    # every run stops on its first scoring pass
    "autostop-budget": dict(pop_size=8, max_evals=8, max_gens=50,
                            ls_iters=8, ls_rate=0.25, autostop=True),
    # runs converge and stop in different generations (1u4d seed 2:
    # generations 14, 16, 14)
    "autostop": dict(pop_size=8, max_evals=2000, max_gens=50, ls_iters=8,
                     ls_rate=0.25, autostop=True, autostop_window=5,
                     autostop_tolerance=0.5),
}
MIXED = ("1u4d", "1xoz", "7cpa")
BACKENDS = ("baseline", "warp-shuffle", "tc-fp16", "tcec-tf32", "exact")
#: entropy of the suite's spawned per-slot seeds ``SeedSequence(99, (i,))``
ENTROPY = 99


def docks() -> list[tuple[str, str, str, int | list, int]]:
    """``(config, backend, case, seed, n_runs)`` of every reference dock.

    ``seed`` is a plain int, or ``[entropy, i]`` for the suite's spawned
    sequence of cohort slot ``i``.
    """
    out = []
    for backend in BACKENDS:
        out += [("base", backend, c, [ENTROPY, i], 2)
                for i, c in enumerate(MIXED)]
    # duplicate-ligand cohorts: 7cpa in slots 0..2, 1u4d in slots 0..1
    out += [("base", "baseline", "7cpa", [ENTROPY, i], 2) for i in (0, 1)]
    out.append(("base", "baseline", "1u4d", [ENTROPY, 1], 2))
    for label in ("sw", "proportional", "budget", "gens0"):
        out += [(label, "baseline", c, [ENTROPY, i], 2)
                for i, c in enumerate(MIXED)]
    # one plain-int seed broadcast to every member (DockingConfig's
    # default back-end)
    out += [("base", "tcec-tf32", c, 7, 1) for c in ("1u4d", "1xoz")]
    out += [("autostop-budget", "baseline", c, 3, 2)
            for c in ("1u4d", "5kao", "7cpa")]
    out += [("autostop", "baseline", "1u4d", 2, 3)]
    out += [("autostop", "baseline", c, 2, 2) for c in ("5kao", "7cpa")]
    return out


def key(config: str, backend: str, case: str, seed, n_runs: int) -> str:
    tag = f"{seed[0]}.{seed[1]}" if isinstance(seed, list) else str(seed)
    return f"{config}/{backend}/{case}/{tag}/r{n_runs}"


def lga_config(kwargs: dict):
    from repro.search.ga import GAConfig
    from repro.search.lga import LGAConfig
    kw = dict(kwargs)
    if "ga" in kw:
        kw["ga"] = GAConfig(**kw["ga"])
    return LGAConfig(**kw)


def seed_of(seed):
    if isinstance(seed, list):
        return np.random.SeedSequence(entropy=seed[0], spawn_key=(seed[1],))
    return seed


def genes_hex(g) -> str:
    return np.asarray(g, dtype=np.float64).tobytes().hex()


def lockstep_runs(case, backend: str, lga, seed, n_runs: int) -> list:
    """One ligand's lock-step runs under a reduction-only back-end."""
    from repro.search.cohort import CohortLGA
    return CohortLGA([case.scoring()], backend, lga, seeds=seed).run(
        n_runs)[0]


def record() -> dict:
    from repro.core import DockingConfig, DockingEngine
    from repro.simt.costmodel import REDUCTION_BACKENDS
    from repro.testcases import get_test_case

    entries = {}
    for config, backend, case, seed, n_runs in docks():
        lga = lga_config(CONFIGS[config])
        entry = {"config": config, "backend": backend, "case": case,
                 "seed": seed, "n_runs": n_runs}
        if backend in REDUCTION_BACKENDS:
            res = DockingEngine(get_test_case(case), DockingConfig(
                backend=backend, lga=lga)).dock(n_runs, seed=seed_of(seed))
            runs = res.runs
            entry.update(
                total_evals=res.total_evals, generations=res.generations,
                final_rmsds=[float(v).hex() for v in res.final_rmsds])
        else:
            runs = lockstep_runs(get_test_case(case), backend, lga,
                                 seed_of(seed), n_runs)
        entry["runs"] = [{
            "best_score": float(r.best_score).hex(),
            "best_genotype": genes_hex(r.best_genotype),
            "evals_used": r.evals_used,
            "generations": r.generations,
            "history": [[int(e), float(s).hex(), genes_hex(g)]
                        for e, s, g in r.history],
        } for r in runs]
        entries[key(config, backend, case, seed, n_runs)] = entry
    return {"configs": CONFIGS, "docks": entries}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", type=Path, default=OUT)
    args = ap.parse_args(argv)
    data = record()
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(data['docks'])} docks to {args.out}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
