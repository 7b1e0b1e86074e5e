"""Cohort golden suite: bit-identity of the lock-step engine.

The cohort engine's contract (``src/repro/docking/cohort.py``) is that
packing N ligands into one lock-step LGA changes *nothing* about any
individual ligand's trajectory: every score, genotype, eval count and
history entry is bit-identical (float hex, not tolerance) to the same
ligand docked alone with the same spawned seed.  The single-ligand
reference is ``tests/data/golden_cohort.json``, recorded from the solo
engines by ``tools/record_cohort_golden.py``.  These tests pin that
contract across:

* all five reduction backends on a mixed-size cohort (heterogeneous
  atom/torsion/pair counts exercise the padded struct-of-arrays path);
* duplicate-ligand cohorts (the identity-grouped / uniform fast paths,
  including the pair-free ligand whose intra tables are empty);
* both local-search methods, proportional selection, the eval-budget
  early exit and the ``max_gens=0`` degenerate config;
* RNG-stream isolation: dropping a member must not perturb the others;
* the per-ligand eval ledger, which feeds the throughput metrics.

The recorded bits hold only on NumPy's AVX-512 loops (``pytest -v``
prints the SIMD extensions NumPy found): on its AVX2 loops four cases
here fail at every commit, which reproduces on an AVX-512 host with::

    NPY_DISABLE_CPU_FEATURES=X86_V4,AVX512_ICL,AVX512_SPR \\
        PYTHONPATH=src python -m pytest -q tests/test_cohort_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import DockingConfig
from repro.core.engine import DockingEngine, dock_cohort
from repro.search.cohort import CohortLGA
from repro.search.ga import GAConfig, GeneticAlgorithm, next_generation_batched
from repro.search.lga import LGAConfig
from repro.testcases import get_test_case

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_cohort.json").read_text())
#: LGAConfig per recorded config label
CONFIGS = {label: LGAConfig(**{**kw, "ga": GAConfig(**kw["ga"])}
                            if "ga" in kw else kw)
           for label, kw in GOLDEN["configs"].items()}
#: heterogeneous cohort: 1u4d has no torsions (and no intra pairs),
#: 1xoz / 7cpa differ in atoms, torsions and pair counts
MIXED = ("1u4d", "1xoz", "7cpa")
BACKENDS = ("baseline", "warp-shuffle", "tc-fp16", "tcec-tf32", "exact")
N_RUNS = 2
#: entropy of the recorded per-slot seeds
ENTROPY = 99


def _seeds(n, entropy=ENTROPY):
    return [np.random.SeedSequence(entropy=entropy, spawn_key=(i,))
            for i in range(n)]


def _hex(genes) -> str:
    return np.asarray(genes, dtype=np.float64).tobytes().hex()


def _recorded(config, backend, case, seed, n_runs=N_RUNS) -> dict:
    """The recorded single-ligand dock; ``seed`` is an int or the slot
    index of a spawned suite seed."""
    tag = str(seed) if isinstance(seed, int) else f"{ENTROPY}.{seed[0]}"
    return GOLDEN["docks"][f"{config}/{backend}/{case}/{tag}/r{n_runs}"]


def _assert_runs_equal(cohort_runs, single_runs, label):
    assert len(cohort_runs) == len(single_runs), label
    for r, (a, b) in enumerate(zip(cohort_runs, single_runs)):
        where = f"{label} run {r}"
        assert float(a.best_score).hex() == float(b.best_score).hex(), where
        assert a.best_genotype.tobytes() == b.best_genotype.tobytes(), where
        assert a.evals_used == b.evals_used, where
        assert a.generations == b.generations, where
        assert len(a.history) == len(b.history), where
        for (e1, v1, g1), (e2, v2, g2) in zip(a.history, b.history):
            assert e1 == e2 and float(v1).hex() == float(v2).hex() \
                and g1.tobytes() == g2.tobytes(), f"{where} history"


def assert_matches_recorded(runs, recorded, label, evals_offset=0):
    """``runs`` equal a recorded dock's runs bit for bit; the recorded
    ``evals_used`` minus ``evals_offset`` is the expected ledger."""
    assert len(runs) == len(recorded), label
    for r, (a, b) in enumerate(zip(runs, recorded)):
        where = f"{label} run {r}"
        assert float(a.best_score).hex() == b["best_score"], where
        assert _hex(a.best_genotype) == b["best_genotype"], where
        assert a.evals_used == b["evals_used"] - evals_offset, where
        assert a.generations == b["generations"], where
        assert [[e, float(v).hex(), _hex(g)] for e, v, g in a.history] \
            == b["history"], f"{where} history"


def _compare_cohort(names, config="base", backend="baseline",
                    n_runs=N_RUNS):
    cases = [get_test_case(n) for n in names]
    seeds = _seeds(len(cases))
    cohort = CohortLGA([c.scoring() for c in cases], backend=backend,
                       config=CONFIGS[config], seeds=seeds).run(n_runs)
    for i, name in enumerate(names):
        single = _recorded(config, backend, name, (i,), n_runs)["runs"]
        assert_matches_recorded(cohort[i], single, f"{name}/{backend}")


# ----------------------------------------------------------------------
# cohort vs single bit-identity


@pytest.mark.parametrize("backend", BACKENDS)
def test_mixed_cohort_bit_identical_all_backends(backend):
    _compare_cohort(MIXED, "base", backend)


def test_single_member_cohort():
    _compare_cohort(("7cpa",))


def test_duplicate_ligand_cohort_uniform_path():
    # all slots share one ligand object -> identity-grouped uniform fast
    # path (flat reshape views, representative coefficient rows)
    _compare_cohort(("7cpa", "7cpa", "7cpa"))


def test_duplicate_pair_free_cohort():
    # torsion-free ligand: empty intra pair tables (P == 0) through the
    # uniform fast path's explicit-row reshapes
    _compare_cohort(("1u4d", "1u4d"))


def test_mixed_cohort_with_duplicates():
    # duplicates inside a heterogeneous cohort: grouped contractions for
    # the repeated ligand, per-slot paths for the rest
    _compare_cohort(("7cpa", "1u4d", "7cpa"))


def test_solis_wets_cohort():
    _compare_cohort(MIXED, "sw")


def test_proportional_selection_cohort():
    _compare_cohort(MIXED, "proportional")


def test_eval_budget_exit_cohort():
    # budget small enough that members trip the scored-final break in
    # different generations
    _compare_cohort(MIXED, "budget")


def test_max_gens_zero_cohort():
    _compare_cohort(MIXED, "gens0")


@pytest.mark.parametrize("names", [MIXED, ("7cpa", "1u4d", "7cpa")])
def test_cohort_scores_match_scalar_reference(names):
    # ScoringFunction.score is the scalar reference of the packed kernels
    from repro.docking.cohort import CohortScoring
    from repro.docking.genotype import random_genotypes
    scorings = [get_test_case(n).scoring() for n in names]
    cohort = CohortScoring(scorings)
    rng = np.random.default_rng(3)
    genes = np.zeros((len(names), 16, cohort.pack.G))
    for a, sf in enumerate(scorings):
        genes[a, :, :sf.ligand.n_rot + 6] = random_genotypes(
            rng, 16, sf.ligand, sf.maps.box_lo, sf.maps.box_hi)
    got = cohort.score(genes)
    for a, sf in enumerate(scorings):
        want = sf.score(genes[a, :, :sf.ligand.n_rot + 6])
        assert got[a].tobytes() == want.tobytes(), names[a]


# ----------------------------------------------------------------------
# RNG-stream isolation


def test_dropping_a_member_does_not_perturb_the_rest():
    cfg = CONFIGS["base"]
    cases = [get_test_case(n) for n in MIXED]
    seeds = _seeds(3)
    full = CohortLGA([c.scoring() for c in cases], config=cfg,
                     seeds=seeds).run(N_RUNS)
    dropped = CohortLGA([cases[0].scoring(), cases[2].scoring()], config=cfg,
                        seeds=[seeds[0], seeds[2]]).run(N_RUNS)
    _assert_runs_equal(full[0], dropped[0], "drop/slot0")
    _assert_runs_equal(full[2], dropped[1], "drop/slot2")


# ----------------------------------------------------------------------
# engine-level dock_cohort and the per-ligand eval ledger


def test_dock_cohort_matches_engine_dock():
    cfg = DockingConfig(lga=CONFIGS["base"])
    cases = [get_test_case(n) for n in MIXED]
    seeds = _seeds(3)
    results = dock_cohort(cases, cfg, n_runs=N_RUNS, seeds=seeds)
    for i, case in enumerate(cases):
        single = DockingEngine(case, cfg).dock(N_RUNS, seed=seeds[i])
        want = _recorded("base", cfg.backend, case.name, (i,))
        for got in (results[i], single):
            assert got.case_name == case.name
            assert_matches_recorded(got.runs, want["runs"],
                                    f"engine/{case.name}")
            # ledger: the per-ligand totals feed evals/s metrics and must
            # count exactly the single-path evaluations
            assert got.total_evals == want["total_evals"]
            assert got.total_evals == sum(r.evals_used for r in got.runs)
            assert got.generations == want["generations"]
            assert [float(v).hex() for v in got.final_rmsds] \
                == want["final_rmsds"]
        _assert_runs_equal(results[i].runs, single.runs,
                           f"cohort-vs-solo/{case.name}")


def test_dock_cohort_seed_broadcast_and_validation():
    cfg = DockingConfig(lga=CONFIGS["base"])
    cases = [get_test_case("1u4d"), get_test_case("1xoz")]
    with pytest.raises(ValueError, match="seeds"):
        dock_cohort(cases, cfg, n_runs=1, seeds=_seeds(3))
    assert dock_cohort([], cfg) == []
    # one int seed broadcasts: every member sees the same stream a
    # single-ligand dock would
    results = dock_cohort(cases, cfg, n_runs=1, seeds=7)
    for case, got in zip(cases, results):
        want = _recorded("base", cfg.backend, case.name, 7, n_runs=1)
        assert_matches_recorded(got.runs, want["runs"],
                                f"broadcast/{case.name}")


# ----------------------------------------------------------------------
# batched GA selection fallback


def _spawned_rngs(entropy, n=3):
    return [np.random.Generator(np.random.PCG64(s))
            for s in np.random.SeedSequence(entropy).spawn(n)]


def test_proportional_batched_matches_scalar():
    genes = np.random.default_rng(1).normal(size=(3, 10, 7))
    scores = np.random.default_rng(2).normal(size=(3, 10))
    scores[1] = 5.0     # degenerate: all-equal scores, zero total weight
    cfg = GAConfig(selection="proportional")
    gas_b = [GeneticAlgorithm(cfg, r) for r in _spawned_rngs(7)]
    gas_s = [GeneticAlgorithm(cfg, r) for r in _spawned_rngs(7)]
    out_b = next_generation_batched(gas_b, genes, scores)
    out_s = np.stack([gas_s[r].next_generation(genes[r], scores[r])
                      for r in range(3)])
    assert out_b.tobytes() == out_s.tobytes()


def test_tournament_batched_matches_scalar():
    genes = np.random.default_rng(1).normal(size=(3, 10, 7))
    scores = np.random.default_rng(2).normal(size=(3, 10))
    cfg = GAConfig()
    gas_b = [GeneticAlgorithm(cfg, r) for r in _spawned_rngs(8)]
    gas_s = [GeneticAlgorithm(cfg, r) for r in _spawned_rngs(8)]
    out_b = next_generation_batched(gas_b, genes, scores)
    out_s = np.stack([gas_s[r].next_generation(genes[r], scores[r])
                      for r in range(3)])
    assert out_b.tobytes() == out_s.tobytes()
