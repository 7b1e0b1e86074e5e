"""Hot-path regression suite: golden bit-identity + eval accounting.

The golden file ``tests/data/golden_hot_path.json`` was recorded from the
scalar (pre-fusion) implementation *after* the two eval-accounting fixes,
so it pins down two things at once:

* the batched pipeline (fused ``reduce4``, batched GA generation, fused
  grid gathers, in-place ADADELTA) is **bit-identical** per seed and
  backend to the straightforward scalar code it replaced — scores and
  genotypes are compared by float *hex*, not tolerance;
* ``evals_used`` follows the fixed ledger semantics (no double final
  scoring on a mid-loop break, no truncated local-search shares).

The accounting tests below additionally hand-count a full trace and
exercise the two fixed bugs directly, so a regression points at the exact
rule that broke rather than just "golden mismatch".
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.docking.grids import GridMaps
from repro.search.cohort import CohortLGA
from repro.search.ga import GAConfig, GeneticAlgorithm, next_generation_batched
from repro.search.lga import LGAConfig
from repro.testcases import get_test_case

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_hot_path.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

_CASES = [(cname, backend)
          for cname, cfg in GOLDEN.items()
          for backend in sorted(cfg["backends"])]


# ----------------------------------------------------------------------
# golden determinism: seed -> bit-identical results, all backends


@pytest.mark.parametrize("cname,backend", _CASES,
                         ids=[f"{c}-{b}" for c, b in _CASES])
def test_golden_bit_identical(cname, backend):
    cfg = GOLDEN[cname]
    scoring = get_test_case(cfg["case"]).scoring()
    lga = LGAConfig(**cfg["lga"])
    [results] = CohortLGA([scoring], backend, lga,
                          seeds=cfg["seed"]).run(cfg["n_runs"])
    expected = cfg["backends"][backend]["runs"]
    assert len(results) == len(expected)
    for r, (res, exp) in enumerate(zip(results, expected)):
        # float hex comparison == bit identity
        assert res.best_score.hex() == exp["best_score"], f"run {r} score"
        assert [float(v).hex() for v in res.best_genotype] \
            == exp["best_genotype"], f"run {r} genotype"
        assert res.evals_used == exp["evals_used"], f"run {r} evals"
        assert res.generations == exp["generations"], f"run {r} gens"
        assert [h[0] for h in res.history] == exp["history_evals"]
        assert [float(h[1]).hex() for h in res.history] \
            == exp["history_scores"]


# ----------------------------------------------------------------------
# eval-budget accounting


class _CountingScore:
    """Wraps a runner's scoring ``score``, counting batch calls."""

    def __init__(self, scoring):
        self._inner = scoring.score
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self._inner(*args)


class _StubLocalSearch:
    """Local search that does nothing but report a fixed eval bill."""

    def __init__(self, n_evals):
        self.n_evals = n_evals

    def minimize(self, genotypes, max_iters=None):
        g = np.asarray(genotypes, dtype=np.float64)
        return g.copy(), np.zeros(g.shape[0]), self.n_evals


def test_no_double_scoring_on_mid_loop_break():
    """When the budget is exhausted right after a scoring pass, that pass
    *is* the final scoring: the run must not score the (unchanged)
    population again, which previously inflated ``evals_used`` by pop and
    wasted a population scoring pass."""
    scoring = get_test_case("1u4d").scoring()
    pop = 8
    lga = LGAConfig(pop_size=pop, max_evals=pop,  # break on first pass
                    max_gens=50, ls_iters=2, ls_rate=0.25)
    plga = CohortLGA([scoring], "baseline", lga, seeds=13)
    counter = _CountingScore(plga.cohort)
    plga.cohort.score = counter
    [results] = plga.run(2)
    assert counter.calls == 1                    # one batched pass, no re-score
    for res in results:
        assert res.evals_used == pop             # evals at the break, not 2*pop
        assert res.generations == 0


def test_ls_remainder_distributed_not_truncated():
    """7 LS evals over R=2 runs must bill 4 + 3, not 3 + 3 (the old
    ``// R`` truncation dropped the remainder every generation)."""
    scoring = get_test_case("1u4d").scoring()
    lga = LGAConfig(pop_size=8, max_evals=10_000, max_gens=1,
                    ls_iters=2, ls_rate=0.25)
    plga = CohortLGA([scoring], "baseline", lga, seeds=5)
    plga.local_search = _StubLocalSearch(7)
    [results] = plga.run(2)
    # per run: gen-1 scoring (8) + LS share + final scoring (8)
    assert results[0].evals_used == 8 + 4 + 8
    assert results[1].evals_used == 8 + 3 + 8


def test_evals_used_matches_hand_counted_trace():
    """Full hand-counted ledger over 2 generations, R = 2, pop = 8.

    Each generation: population scoring bills pop = 8 per run; the stub
    local search bills 7 evals, split 4 (run 0) + 3 (run 1).  After
    max_gens = 2 the loop exits at the *condition* (not mid-loop), so one
    final scoring pass (+8) runs.

        run 0:  8 + 4  +  8 + 4  +  8  = 32
        run 1:  8 + 3  +  8 + 3  +  8  = 30
    """
    scoring = get_test_case("1u4d").scoring()
    lga = LGAConfig(pop_size=8, max_evals=10_000, max_gens=2,
                    ls_iters=2, ls_rate=0.25)
    plga = CohortLGA([scoring], "baseline", lga, seeds=21)
    plga.local_search = _StubLocalSearch(7)
    counter = _CountingScore(plga.cohort)
    plga.cohort.score = counter
    [results] = plga.run(2)
    assert counter.calls == 3                    # 2 generations + final
    assert results[0].evals_used == 32
    assert results[1].evals_used == 30
    assert all(res.generations == 2 for res in results)
    # history eval stamps use the per-run ledger (run 1 lags run 0)
    for res, offset in zip(results, (4, 3)):
        for evals, _score, _geno in res.history:
            assert evals in (8, 8 + offset + 8, 8 + offset + 8 + offset + 8)


# ----------------------------------------------------------------------
# GridMaps.type_index LUT


def _tiny_maps():
    shape = (4, 4, 4)
    rng = np.random.default_rng(0)
    return GridMaps(origin=np.zeros(3), spacing=0.5,
                    type_names=["C", "OA", "HD"],
                    affinity=rng.random((3,) + shape),
                    elec=rng.random(shape),
                    desolv_v=rng.random(shape),
                    desolv_s=rng.random(shape))


def test_type_index_lut_built_once():
    maps = _tiny_maps()
    lut = maps._type_lut
    assert lut == {"C": 0, "OA": 1, "HD": 2}
    idx = maps.type_index(["HD", "C", "C", "OA"])
    assert idx.tolist() == [2, 0, 0, 1]
    assert idx.dtype == np.int64
    # repeated lookups reuse the table built in __post_init__
    maps.type_index(["OA"])
    assert maps._type_lut is lut


def test_type_index_unknown_type():
    maps = _tiny_maps()
    with pytest.raises(ValueError, match="no grid map for atom type 'N'"):
        maps.type_index(["C", "N"])


# ----------------------------------------------------------------------
# batched GA == scalar GA, per-run streams


def _spawn_gas(cfg, seed, n):
    rngs = [np.random.Generator(np.random.PCG64(s))
            for s in np.random.SeedSequence(seed).spawn(n)]
    return [GeneticAlgorithm(cfg, rng) for rng in rngs]


@pytest.mark.parametrize("selection", ["tournament", "proportional"])
@pytest.mark.parametrize("n_elite,tsize", [(1, 2), (0, 3), (2, 2)])
def test_next_generation_batched_matches_scalar(selection, n_elite, tsize):
    cfg = GAConfig(selection=selection, n_elite=n_elite,
                   tournament_size=tsize)
    R, pop, glen = 4, 10, 9
    rng = np.random.default_rng(77)
    genes = rng.normal(size=(R, pop, glen))
    scores = rng.normal(size=(R, pop))

    scalar_gas = _spawn_gas(cfg, 123, R)
    batched_gas = _spawn_gas(cfg, 123, R)

    expected = np.stack([scalar_gas[r].next_generation(genes[r], scores[r])
                         for r in range(R)])
    got = next_generation_batched(batched_gas, genes.copy(), scores.copy())
    # bit-identical, including the RNG draws
    np.testing.assert_array_equal(got, expected)
    # the generators must be left in the same stream position
    for sg, bg in zip(scalar_gas, batched_gas):
        assert sg.rng.integers(0, 2**31) == bg.rng.integers(0, 2**31)


def test_next_generation_batched_many_generations():
    """Stream alignment holds across chained generations (draw-order
    contract, not just single-step luck)."""
    cfg = GAConfig()
    R, pop, glen = 3, 8, 7
    rng = np.random.default_rng(5)
    genes_s = rng.normal(size=(R, pop, glen))
    genes_b = genes_s.copy()
    def scores_of(g):
        return g.sum(axis=-1)  # deterministic pseudo-scores

    scalar_gas = _spawn_gas(cfg, 42, R)
    batched_gas = _spawn_gas(cfg, 42, R)
    for _ in range(5):
        scores = scores_of(genes_s)
        genes_s = np.stack([
            scalar_gas[r].next_generation(genes_s[r], scores[r])
            for r in range(R)])
        genes_b = next_generation_batched(batched_gas, genes_b,
                                          scores_of(genes_b))
        np.testing.assert_array_equal(genes_b, genes_s)
