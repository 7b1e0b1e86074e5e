"""Shared infrastructure for the paper-reproduction benchmarks.

Scaling: the paper's experiments use 42 cases x 20-100 LGA runs x 2.5M
evaluations — hours of GPU time.  The Python benchmarks default to a
scaled-down grid that preserves the *relative* comparisons (who wins, by
roughly what factor); set ``REPRO_BENCH_SCALE=full`` for the larger grid.

The E50 experiments are cached per (case, backend) within a pytest session
so Figure 1 and Figure 3 share their reference measurements.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pytest

from repro.analysis import estimate_e50, evaluate_run
from repro.search.cohort import CohortLGA
from repro.search.lga import LGAConfig
from repro.testcases import SET_OF_42, get_test_case


@dataclass(frozen=True)
class BenchScale:
    """Experiment sizes for the current scale."""

    name: str
    e50_cases: tuple[str, ...]
    e50_runs: int
    e50_max_evals: int
    table3_runs: int
    speedup_cases: tuple[str, ...]


_QUICK = BenchScale(
    name="quick",
    e50_cases=("1yv3", "2bm2", "3ce3", "5kao", "1jyq", "7cpa"),
    e50_runs=12,
    e50_max_evals=12_000,
    table3_runs=8,
    speedup_cases=("1u4d", "1yv3", "1ywr", "2bm2", "3ce3", "1kzk",
                   "5kao", "1jyq", "1ig3", "1n1m", "1r8o", "1y6b",
                   "7cpa", "1w9u", "1gpk", "2brb", "1nja", "1yvf",
                   "2j47", "3er5", "1z95"),
)

_FULL = BenchScale(
    name="full",
    e50_cases=("1u4d", "1xoz", "1yv3", "1owe", "1ywr", "2bm2", "1r55",
               "3ce3", "1hfs", "1ig3", "1l7f", "7cpa"),
    e50_runs=24,
    e50_max_evals=20_000,
    table3_runs=20,
    speedup_cases=tuple(n for n, _ in SET_OF_42),
)


def bench_scale() -> BenchScale:
    return _FULL if os.environ.get("REPRO_BENCH_SCALE") == "full" else _QUICK


#: LGA configuration for the E50 experiments (scaled-down paper defaults)
def e50_lga_config(max_evals: int) -> LGAConfig:
    return LGAConfig(pop_size=30, max_evals=max_evals, max_gens=300,
                     ls_iters=100, ls_rate=0.15)


_E50_CACHE: dict[tuple[str, str], dict] = {}


def run_e50_experiment(case_name: str, backend: str, n_runs: int,
                       max_evals: int, seed: int = 2025) -> dict:
    """E50 (score and RMSD criteria) for one case under one back-end."""
    key = (case_name, backend)
    if key in _E50_CACHE:
        return _E50_CACHE[key]
    case = get_test_case(case_name)
    runner = CohortLGA([case.scoring()], backend,
                       e50_lga_config(max_evals), seeds=seed)
    [results] = runner.run(n_runs)
    outcomes = [evaluate_run(r, case) for r in results]
    budgets = [r.evals_used for r in results]
    score = estimate_e50([o.first_success_score for o in outcomes], budgets)
    rmsd = estimate_e50([o.first_success_rmsd for o in outcomes], budgets)
    out = {"case": case_name, "backend": backend,
           "e50_score": score, "e50_rmsd": rmsd}
    _E50_CACHE[key] = out
    return out


@pytest.fixture(scope="session")
def scale():
    return bench_scale()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(7)


# ---------------------------------------------------------------------------
# local-search quality experiment (matched starts; the low-variance probe of
# the mechanism behind Figures 1/3)

_LS_CACHE: dict[tuple[str, str], dict] = {}

#: cases used by the LS-quality panels (flexible ligands, where clash
#: phases during descent exercise the reductions hardest)
LS_QUALITY_CASES = ("5kao", "1jyq", "1ig3", "7cpa")


def run_ls_quality(case_name: str, backend: str, n_starts: int = 192,
                   perturbation: float = 1.0, iters: int = 150,
                   seed: int = 77) -> dict:
    """Matched-start ADADELTA descents: success / catastrophic-failure
    counts for one case and back-end.

    Every back-end gets the *same* starting genotypes (native pose
    perturbed by N(0, perturbation) per gene), so differences reflect
    local-search quality, not sampling luck.  Final poses are re-scored
    with the FP32 scoring function (ground truth).
    """
    key = (case_name, backend)
    if key in _LS_CACHE:
        return _LS_CACHE[key]
    from repro.docking.cohort import CohortGradientCalculator, CohortScoring
    from repro.search.adadelta import AdadeltaConfig, AdadeltaLocalSearch

    case = get_test_case(case_name)
    sf = case.scoring()
    rng = np.random.default_rng(seed)
    glen = case.native_genotype.size
    starts = case.native_genotype[None, :] \
        + rng.normal(0.0, perturbation, (n_starts, glen))
    ls = AdadeltaLocalSearch(
        CohortGradientCalculator(CohortScoring([sf]), backend),
        AdadeltaConfig(max_iters=iters))
    best_x, _, _ = ls.minimize(starts)
    true_scores = sf.score(best_x)
    out = {
        "case": case_name,
        "backend": backend,
        "n_starts": n_starts,
        "converged": int(np.sum(true_scores
                                <= case.global_min_score + 1.0)),
        "failed": int(np.sum(true_scores > 0.0)),
        "median_final": float(np.median(true_scores)),
    }
    _LS_CACHE[key] = out
    return out
