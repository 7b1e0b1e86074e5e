"""Tests for the AutoStop / heuristics extension features (-A / -H)."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.search import AutoStop, CohortLGA, LGAConfig, heuristic_max_evals
from tests.test_cohort_golden import assert_matches_recorded

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_cohort.json").read_text())


def _run(scoring, config, seed):
    """One LGA run: a cohort of one ligand, one run."""
    [[run]] = CohortLGA([scoring], "baseline", config, seeds=seed).run(1)
    return run


class TestAutoStop:
    def test_validation(self):
        with pytest.raises(ValueError):
            AutoStop(window=1)
        with pytest.raises(ValueError):
            AutoStop(tolerance=0.0)

    def test_no_stop_before_min_generations(self):
        a = AutoStop(window=3, min_generations=10)
        for _ in range(9):
            assert not a.observe(1.0)

    def test_stops_on_converged_trajectory(self):
        a = AutoStop(window=5, tolerance=0.1, min_generations=5)
        stopped = False
        for _ in range(10):
            stopped = a.observe(-12.0)
            if stopped:
                break
        assert stopped

    def test_keeps_running_on_improving_trajectory(self):
        a = AutoStop(window=5, tolerance=0.1, min_generations=5)
        for g in range(30):
            assert not a.observe(-float(g))   # improving by 1.0 each gen

    def test_reset(self):
        a = AutoStop(window=2, min_generations=2)
        a.observe(1.0)
        a.reset()
        assert a.generations_observed == 0


class TestHeuristics:
    def test_monotone_in_nrot(self):
        budgets = [heuristic_max_evals(n) for n in range(0, 33, 4)]
        assert budgets == sorted(budgets)

    def test_cap(self):
        assert heuristic_max_evals(60) == 2_500_000

    def test_small_ligand_floor(self):
        assert heuristic_max_evals(0) == 100_000

    def test_scale(self):
        assert heuristic_max_evals(0, scale=0.01) == 1_000

    def test_validation(self):
        with pytest.raises(ValueError):
            heuristic_max_evals(-1)


class TestAutoStopInLGA:
    def test_early_termination_saves_evals(self, case_small):
        base_cfg = dict(pop_size=10, max_evals=5_000, max_gens=100,
                        ls_iters=8, ls_rate=0.2)
        plain = _run(case_small.scoring(), LGAConfig(**base_cfg), 0)
        stopped = _run(case_small.scoring(),
                       LGAConfig(**base_cfg, autostop=True,
                                 autostop_window=5, autostop_tolerance=0.5),
                       0)
        # the rigid test case converges quickly -> autostop saves budget
        assert stopped.evals_used < plain.evals_used
        # and still finds a good pose
        assert stopped.best_score <= case_small.global_min_score + 2.0

    def test_engine_routes_autostop(self, case_small):
        from repro import DockingConfig, DockingEngine
        cfg = DockingConfig(
            backend="baseline",
            lga=LGAConfig(pop_size=8, max_evals=2_000, max_gens=50,
                          ls_iters=8, ls_rate=0.25, autostop=True,
                          autostop_window=5, autostop_tolerance=0.5))
        res = DockingEngine(case_small, cfg).dock(n_runs=2, seed=1)
        assert np.isfinite(res.best_score)


def _golden_docks(config: str):
    return [e for e in GOLDEN["docks"].values() if e["config"] == config]


def _dock(entry, **kwargs):
    from repro import DockingConfig, DockingEngine
    from repro.testcases import get_test_case
    cfg = LGAConfig(**GOLDEN["configs"][entry["config"]])
    return DockingEngine(get_test_case(entry["case"]), DockingConfig(
        backend=entry["backend"], lga=cfg)).dock(
        entry["n_runs"], seed=entry["seed"], **kwargs)


class TestAutoStopLockStep:
    """AutoStop as a per-run freeze inside the lock-step engine."""

    @pytest.mark.parametrize("config", ["autostop-budget", "autostop"])
    def test_matches_recorded_runs_without_double_billing(self, config):
        # the recorded scalar loop re-scored the unchanged population of
        # every run it stopped early (AutoStop or budget) and billed that
        # pass again; every run here stops early, so each bills exactly
        # one population pass less and is otherwise bit-identical
        for entry in _golden_docks(config):
            pop = GOLDEN["configs"][config]["pop_size"]
            res = _dock(entry)
            assert_matches_recorded(res.runs, entry["runs"],
                                    f"{config}/{entry['case']}",
                                    evals_offset=pop)
            assert res.total_evals == entry["total_evals"] \
                - pop * entry["n_runs"]

    def test_budget_exit_bills_one_population_pass(self):
        [entry] = [e for e in _golden_docks("autostop-budget")
                   if e["case"] == "1u4d"]
        res = _dock(entry)
        assert [r.evals_used for r in res.runs] == [8, 8]

    def test_generations_is_the_lock_step_count(self):
        # runs stop at 14, 16 and 14: the dock ran 16 generations, whatever
        # the run order
        [entry] = [e for e in _golden_docks("autostop")
                   if e["case"] == "1u4d"]
        res = _dock(entry)
        assert [r.generations for r in res.runs] == [14, 16, 14]
        assert res.generations == 16

    def test_on_generation_is_called(self):
        [entry] = [e for e in _golden_docks("autostop")
                   if e["case"] == "1u4d"]
        seen = []
        _dock(entry, on_generation=lambda g, e: seen.append((g, e)))
        assert [g for g, _ in seen] == list(range(1, 17))

    def test_watchdog_bounds_an_autostop_job(self):
        from repro import DockingConfig
        from repro.robustness import WatchdogTimeout
        from repro.serve import DockingJob
        from repro.serve.pool import execute_job
        cfg = DockingConfig(backend="baseline", lga=LGAConfig(
            **GOLDEN["configs"]["autostop"]))
        job = DockingJob(spec={"kind": "case", "case": "1u4d"}, config=cfg,
                         n_runs=2, seed=0)
        with pytest.raises(WatchdogTimeout):
            execute_job(job, wall_seconds=1e-9)

    @pytest.mark.parametrize("ls_method", ["ad", "sw"])
    def test_autostop_only_truncates_runs(self, case_small, ls_method):
        # a stopped run's lanes keep riding the batch, so every run's
        # trajectory is the AutoStop-free one cut at its stop: histories
        # are prefixes (the Solis-Wets draws come from the ligand's
        # reserved stream either way)
        from repro import DockingConfig, DockingEngine
        base = dict(pop_size=8, max_evals=3_000, max_gens=40, ls_iters=6,
                    ls_rate=0.25, ls_method=ls_method)
        docks = [DockingEngine(case_small, DockingConfig(
            backend="baseline", lga=LGAConfig(**base, **extra))).dock(3, 4)
            for extra in ({}, dict(autostop=True, autostop_window=5,
                                   autostop_tolerance=0.5))]
        plain, stopped = docks
        assert any(r.generations < 40 for r in stopped.runs)
        for a, b in zip(stopped.runs, plain.runs):
            assert a.evals_used <= b.evals_used
            n = len(a.history)
            assert [(e, v) for e, v, _ in a.history] \
                == [(e, v) for e, v, _ in b.history[:n]]
            assert all(e <= a.evals_used for e, _, _ in b.history[:n])
            assert all(e > a.evals_used for e, _, _ in b.history[n:])
