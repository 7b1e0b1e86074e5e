#!/usr/bin/env python3
"""Mini accuracy study: how the reduction back-end changes search quality.

A scaled-down version of the paper's Section 4 analysis: run the same LGA
search (same seeds) under the three reduction back-ends and compare
success rates and E50 estimates for both criteria on one medium case.

Run:  python examples/accuracy_study.py        (~2-3 minutes)
"""

from repro.analysis import estimate_e50, evaluate_run, format_curves, \
    success_curve
from repro.search import CohortLGA, LGAConfig
from repro.testcases import get_test_case

N_RUNS = 12
CASE = "7cpa"


def main() -> None:
    case = get_test_case(CASE)
    cfg = LGAConfig(pop_size=30, max_evals=12_000, max_gens=300,
                    ls_iters=100, ls_rate=0.15)
    print(f"Case {case.name} (N_rot={case.n_rot}), {N_RUNS} LGA runs, "
          f"budget {cfg.max_evals} evals/run\n")
    print(f"{'backend':>10s} {'score succ':>10s} {'E50 score':>10s} "
          f"{'rmsd succ':>10s} {'E50 rmsd':>10s}")

    curves = {}
    for backend in ("baseline", "tc-fp16", "tcec-tf32"):
        [runs] = CohortLGA([case.scoring()], backend, cfg, seeds=99).run(
            N_RUNS)
        outcomes = [evaluate_run(r, case) for r in runs]
        budgets = [r.evals_used for r in runs]
        times_score = [o.first_success_score for o in outcomes]
        curves[backend] = success_curve(times_score, budgets)
        e_s = estimate_e50(times_score, budgets)
        e_r = estimate_e50([o.first_success_rmsd for o in outcomes], budgets)

        def fmt(e):
            return "   (inf)" if e.e50 == float("inf") else f"{e.e50:10.0f}"

        print(f"{backend:>10s} {e_s.n_success:7d}/{N_RUNS:<2d} {fmt(e_s)} "
              f"{e_r.n_success:7d}/{N_RUNS:<2d} {fmt(e_r)}")

    print()
    print(format_curves(curves, title="success probability vs evaluation "
                                      "budget (score criterion)"))
    print()
    print("Expected shape (paper Figures 1 and 3): tc-fp16 needs more")
    print("evaluations than the FP32 baseline; tcec-tf32 matches it.")
    print()
    print(f"Caveat: with only {N_RUNS} runs per back-end at scaled-down")
    print("budgets, single-case E50 carries substantial run-to-run variance")
    print("(back-end trajectories decorrelate chaotically), so individual")
    print("seeds can flip orderings.  The statistically solid comparison is")
    print("benchmarks/bench_fig1_e50_fp16.py's matched-start panel; the")
    print("kernel-level numerics are pinned in tests/test_docking_gradients.py.")


if __name__ == "__main__":
    main()
