"""Tests for the search layer: GA operators, ADADELTA, Solis-Wets, LGA."""

import numpy as np
import pytest

from repro.docking import CohortGradientCalculator, CohortScoring, \
    ScoringFunction
from repro.docking.genotype import genotype_length
from repro.search import (
    AdadeltaConfig,
    AdadeltaLocalSearch,
    CohortLGA,
    GAConfig,
    GeneticAlgorithm,
    LGAConfig,
    SolisWetsConfig,
)
from repro.search.cohort import CohortSolisWets


def _runs(scoring, config, seed, n_runs):
    """``n_runs`` lock-step runs of one ligand (a cohort of one)."""
    [runs] = CohortLGA([scoring], "baseline", config, seeds=seed).run(n_runs)
    return runs


class TestGAConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GAConfig(tournament_size=0)
        with pytest.raises(ValueError):
            GAConfig(crossover_rate=1.5)
        with pytest.raises(ValueError):
            GAConfig(mutation_rate=-0.1)
        with pytest.raises(ValueError):
            GAConfig(n_elite=-1)


class TestGeneticOperators:
    def _ga(self, seed=0, **kwargs):
        return GeneticAlgorithm(GAConfig(**kwargs),
                                np.random.default_rng(seed))

    def test_selection_prefers_fitter(self):
        ga = self._ga(tournament_p=1.0)
        scores = np.array([5.0, 1.0, 3.0, 4.0, 2.0])
        picks = ga.select_parents(scores, 2000)
        # the fittest individual (index 1) must be picked most often
        counts = np.bincount(picks, minlength=5)
        assert counts[1] == counts.max()

    def test_crossover_swaps_contiguous_block(self):
        ga = self._ga(crossover_rate=1.0)
        a = np.zeros((50, 10))
        b = np.ones((50, 10))
        children = ga.crossover(a, b)
        for row in children:
            # values only from the two parents
            assert set(np.unique(row)) <= {0.0, 1.0}
            # the ones form one contiguous block (two-point crossover)
            ones = np.nonzero(row == 1.0)[0]
            if ones.size:
                assert ones[-1] - ones[0] + 1 == ones.size

    def test_crossover_rate_zero_copies_parent_a(self):
        ga = self._ga(crossover_rate=0.0)
        a = np.zeros((20, 6))
        b = np.ones((20, 6))
        np.testing.assert_array_equal(ga.crossover(a, b), a)

    def test_mutation_rate_zero_is_identity(self):
        ga = self._ga(mutation_rate=0.0)
        genes = np.random.default_rng(1).normal(size=(10, 8))
        np.testing.assert_array_equal(ga.mutate(genes), genes)

    def test_mutation_changes_some_genes(self):
        ga = self._ga(mutation_rate=0.5)
        genes = np.zeros((40, 8))
        out = ga.mutate(genes)
        changed = np.mean(out != genes)
        assert 0.3 < changed < 0.7

    def test_elitism_preserves_best(self):
        ga = self._ga(n_elite=1)
        genes = np.random.default_rng(2).normal(size=(12, 6))
        scores = np.arange(12, dtype=float)
        scores[7] = -10.0          # individual 7 is the best
        out = ga.next_generation(genes, scores)
        np.testing.assert_array_equal(out[0], genes[7])

    def test_next_generation_shape(self):
        ga = self._ga()
        genes = np.random.default_rng(3).normal(size=(15, 9))
        out = ga.next_generation(genes, np.random.default_rng(4).random(15))
        assert out.shape == genes.shape


class TestAdadelta:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdadeltaConfig(rho=1.5)
        with pytest.raises(ValueError):
            AdadeltaConfig(eps=0.0)
        with pytest.raises(ValueError):
            AdadeltaConfig(max_iters=0)

    def test_minimizes_quadratic(self):
        """On a plain quadratic the optimiser must reduce the objective."""
        class Quad:
            def __call__(self, x):
                return np.sum(x ** 2, axis=1), 2.0 * x
        ls = AdadeltaLocalSearch(Quad(), AdadeltaConfig(max_iters=200))
        x0 = np.full((3, 4), 3.0)
        best_x, best_e, evals = ls.minimize(x0)
        assert np.all(best_e < np.sum(x0 ** 2, axis=1))
        assert evals == 3 * 200

    def test_tracks_best_not_last(self):
        """The returned genotype is the best seen, even if later iterations
        wander away."""
        calls = {"n": 0}

        class Bumpy:
            def __call__(self, x):
                calls["n"] += 1
                e = np.sum(x ** 2, axis=1)
                return e, -x  # ascent direction: moves away from optimum
        ls = AdadeltaLocalSearch(Bumpy(), AdadeltaConfig(max_iters=20))
        x0 = np.ones((1, 2))
        best_x, best_e, _ = ls.minimize(x0)
        np.testing.assert_array_equal(best_x, x0)   # first point was best

    def test_nonfinite_gradient_guard(self):
        class NanGrad:
            def __call__(self, x):
                g = np.full_like(x, np.nan)
                return np.sum(x ** 2, axis=1), g
        ls = AdadeltaLocalSearch(NanGrad(), AdadeltaConfig(max_iters=5))
        best_x, best_e, _ = ls.minimize(np.ones((2, 3)))
        assert np.all(np.isfinite(best_x))

    def test_improves_docking_pose(self, case_7cpa):
        sf = case_7cpa.scoring()
        ls = AdadeltaLocalSearch(
            CohortGradientCalculator(CohortScoring([sf]), "exact"),
            AdadeltaConfig(max_iters=60))
        rng = np.random.default_rng(0)
        x0 = case_7cpa.native_genotype[None, :] + rng.normal(0, 0.5, (1, 21))
        e0 = sf.score(x0)
        _, best_e, _ = ls.minimize(x0)
        assert best_e[0] < e0[0]


class TestSolisWets:
    def test_minimizes_docking_pose(self, butane_like, small_maps):
        sf = ScoringFunction(butane_like, small_maps)
        ls = CohortSolisWets(CohortScoring([sf]),
                             SolisWetsConfig(max_iters=40),
                             [np.random.default_rng(1)])
        rng = np.random.default_rng(2)
        x0 = rng.normal(size=(4, genotype_length(butane_like)))
        e0 = sf.score(x0)
        best_x, best_e, evals = ls.minimize_cohort(x0[None], [0])
        assert np.all(best_e <= e0)
        assert evals > 0


class TestLGA:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            LGAConfig(pop_size=1)
        with pytest.raises(ValueError):
            LGAConfig(ls_method="fire")
        with pytest.raises(ValueError):
            LGAConfig(ls_rate=1.5)

    @pytest.mark.parametrize("pop", [0, 1, -3])
    def test_screening_budget_validates_before_dividing(self, pop):
        """Regression: ``pop=0`` raised ``ZeroDivisionError`` (the CLI's
        ``screen`` / ``inject`` and the gateway shorthand use this rule)."""
        with pytest.raises(ValueError, match="pop_size must be >= 2"):
            LGAConfig.screening(pop, 1_000, 5)
        cfg = LGAConfig.screening(8, 1_000, 5)
        assert (cfg.max_gens, cfg.ls_rate, cfg.ls_iters) == (125, 0.25, 5)

    def _config(self):
        return LGAConfig(pop_size=10, max_evals=800, max_gens=20,
                         ls_iters=10, ls_rate=0.2)

    def test_run_respects_budget(self, case_small):
        [res] = _runs(case_small.scoring(), self._config(), 0, 1)
        # one trailing scoring pass may exceed the cap by <= pop evals
        assert res.evals_used <= 800 + 10 + 10 * 2 * 10
        assert res.generations <= 20

    def test_history_is_monotone_improving(self, case_small):
        [res] = _runs(case_small.scoring(), self._config(), 1, 1)
        scores = [s for _, s, _ in res.history]
        assert scores == sorted(scores, reverse=True)
        evals = [e for e, _, _ in res.history]
        assert evals == sorted(evals)

    def test_best_score_matches_history_tail(self, case_small):
        [res] = _runs(case_small.scoring(), self._config(), 2, 1)
        assert res.best_score == res.history[-1][1]

    def test_solis_wets_method(self, case_small):
        cfg = LGAConfig(pop_size=8, max_evals=500, max_gens=10,
                        ls_method="sw", ls_iters=5, ls_rate=0.25)
        [res] = _runs(case_small.scoring(), cfg, 3, 1)
        assert np.isfinite(res.best_score)


class TestParallelLGA:
    """Several runs of one ligand in lock step."""

    def test_matches_distributional_behaviour(self, case_small):
        """Lock-step runs behave like independent runs: all finish, report
        finite scores, and differ across seeds."""
        cfg = LGAConfig(pop_size=10, max_evals=600, max_gens=15,
                        ls_iters=8, ls_rate=0.2)
        results = _runs(case_small.scoring(), cfg, 5, 6)
        assert len(results) == 6
        scores = [r.best_score for r in results]
        assert all(np.isfinite(s) for s in scores)
        assert len(set(np.round(scores, 6))) > 1   # runs are independent

    def test_same_seed_reproducible(self, case_small):
        cfg = LGAConfig(pop_size=8, max_evals=400, max_gens=10,
                        ls_iters=5, ls_rate=0.25)
        sf = case_small.scoring()
        a = _runs(sf, cfg, 9, 3)
        b = _runs(sf, cfg, 9, 3)
        assert [r.best_score for r in a] == [r.best_score for r in b]

    def test_solis_wets_batched(self, case_small):
        cfg = LGAConfig(pop_size=8, max_evals=500, max_gens=10,
                        ls_method="sw", ls_iters=5, ls_rate=0.25)
        results = _runs(case_small.scoring(), cfg, 3, 4)
        assert len(results) == 4
        assert all(np.isfinite(r.best_score) for r in results)
