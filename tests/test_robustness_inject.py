"""Tests for repro.robustness.inject: deterministic fault injection and the
end-to-end recovery demonstration."""

import numpy as np
import pytest

from repro.reduction.api import SimtReduction, TcFp16Reduction
from repro.robustness import FaultLedger, GuardedReduction
from repro.robustness.inject import (
    OVERFLOW_VALUE,
    FaultInjector,
    InjectingReduction,
    build_injected_backend,
)
from repro.tensorcore.mma import MMA_K, MMA_M, MMA_N, fault_hook, mma


def blocks(n_blocks=12, n=8, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_blocks, n, 4)).astype(np.float32)


def out4(n_blocks, seed=0):
    """A reduce4 *output* — one (4,) lane group per block."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_blocks, 4)).astype(np.float32)


class TestFaultInjector:
    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            FaultInjector(-0.1)
        with pytest.raises(ValueError, match="rate"):
            FaultInjector(1.5)
        with pytest.raises(ValueError, match="mode"):
            FaultInjector(0.1, mode="gamma-ray")
        with pytest.raises(ValueError, match="lanes"):
            FaultInjector(0.1, lanes="two")

    def test_zero_rate_never_injects(self):
        inj = FaultInjector(0.0)
        out, mask = inj.corrupt_blocks(out4(12))
        assert not mask.any() and inj.n_injected == 0
        assert inj.n_seen == 12

    def test_stride_is_exact(self):
        # rate 0.25 -> period 4 -> every 4th block: indices 3, 7, 11
        inj = FaultInjector(0.25, mode="nan")
        _, mask = inj.corrupt_blocks(out4(12))
        assert np.flatnonzero(mask).tolist() == [3, 7, 11]
        assert inj.n_injected == 3

    def test_stride_spans_batches(self):
        # the schedule is global: chunking the stream must not change it
        inj = FaultInjector(0.2, mode="nan")
        hits = []
        offset = 0
        for size in (3, 7, 1, 9, 5):
            _, mask = inj.corrupt_blocks(out4(size, seed=size))
            hits += (np.flatnonzero(mask) + offset).tolist()
            offset += size
        assert hits == [4, 9, 14, 19, 24]
        assert inj.n_injected == 5 and inj.n_seen == 25

    def test_reset_replays_identical_faults(self):
        v = out4(12)
        inj = FaultInjector(0.5, mode="bitflip", seed=3)
        a, mask_a = inj.corrupt_blocks(v)
        inj.reset()
        b, mask_b = inj.corrupt_blocks(v)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(mask_a, mask_b)

    def test_modes(self):
        v = out4(12)
        for mode, check in [
                ("nan", lambda x: np.isnan(x).any()),
                ("inf", lambda x: np.isinf(x).any()),
                ("overflow", lambda x: (x == np.float32(OVERFLOW_VALUE)).any()),
        ]:
            out, mask = FaultInjector(1.0, mode=mode).corrupt_blocks(v)
            assert mask.all()
            assert all(check(out[i]) for i in range(len(out))), mode

    def test_overflow_value_is_silent_poison(self):
        # finite (passes isfinite), past FP16 range (caught by the guard's
        # overflow check), negative (wins best-energy comparisons)
        assert np.isfinite(OVERFLOW_VALUE)
        assert abs(OVERFLOW_VALUE) > 65504.0
        assert OVERFLOW_VALUE < 0

    def test_bitflip_changes_exactly_one_block(self):
        v = out4(4)
        out, mask = FaultInjector(0.25, mode="bitflip",
                                  seed=1).corrupt_blocks(v)
        assert np.flatnonzero(mask).tolist() == [3]
        diff = np.any(out != v, axis=-1)
        assert np.flatnonzero(diff).tolist() == [3]

    def test_lanes_all_corrupts_whole_block(self):
        v = out4(4)
        out, mask = FaultInjector(0.25, mode="nan",
                                  lanes="all").corrupt_blocks(v)
        assert np.isnan(out[3]).all()
        assert not np.isnan(out[:3]).any()


class TestTileInjection:
    def test_corrupt_tiles_stride(self):
        tiles = np.zeros((10, 16, 16), dtype=np.float32)
        inj = FaultInjector(0.2, mode="nan")
        out = inj.corrupt_tiles(tiles)
        bad = [i for i in range(10) if np.isnan(out[i]).any()]
        assert bad == [4, 9]
        assert inj.n_injected == 2

    def test_mma_fault_hook_round_trip(self):
        a = np.ones((MMA_M, MMA_K), dtype=np.float32)
        b = np.ones((MMA_K, MMA_N), dtype=np.float32)
        c = np.zeros((MMA_M, MMA_N), dtype=np.float32)
        clean = mma(a, b, c)
        inj = FaultInjector(1.0, mode="nan", seed=0)
        with fault_hook(inj.tile_hook(element=(0, 0))):
            hit = mma(a, b, c)
        assert np.isnan(hit[0, 0]) and inj.n_injected == 1
        # hook restored on exit: next issue is clean again
        np.testing.assert_array_equal(mma(a, b, c), clean)

    def test_tile_hook_site_filter(self):
        a = np.ones((MMA_M, MMA_K), dtype=np.float32)
        b = np.ones((MMA_K, MMA_N), dtype=np.float32)
        c = np.zeros((MMA_M, MMA_N), dtype=np.float32)
        inj = FaultInjector(1.0, mode="nan")
        with fault_hook(inj.tile_hook(sites=("tcec-simt-acc",))):
            out = mma(a, b, c)  # site "mma-accumulator": filtered out
        assert np.isfinite(out).all() and inj.n_injected == 0


class TestInjectingReduction:
    def test_records_ground_truth_mask(self):
        inj = FaultInjector(0.25, mode="nan")
        backend = InjectingReduction(SimtReduction(), inj)
        out = backend.reduce4(blocks(8))
        assert backend.last_injected_mask.tolist() == [
            False, False, False, True, False, False, False, True]
        assert np.isnan(out[3]).any() and np.isnan(out[7]).any()

    def test_proxies_accumulator_format(self):
        backend = InjectingReduction(TcFp16Reduction(), FaultInjector(0.0))
        assert backend.accumulator_format == "fp16"
        # so the guard's overflow auto-detection sees through the wrapper
        assert GuardedReduction(backend).check_overflow
        assert not hasattr(
            InjectingReduction(SimtReduction(), FaultInjector(0.0)),
            "accumulator_format")

    def test_guard_attributes_injections_exactly(self):
        led = FaultLedger()
        guard, inj = build_injected_backend(
            base="baseline", policy="degrade", rate=0.25, mode="nan",
            ledger=led)
        guard.reduce4(blocks(20))
        assert inj.n_injected == 5
        assert led.by_site == {"injected": 5}
        assert led.blocks_recovered == 5


class TestCorruptGridMaps:
    def test_grid_faults_are_unrecoverable(self):
        # NaN inputs defeat any reduction order: the degrade fallback
        # re-reduces and still sees NaN -> the unrecoverable ledger path
        v = blocks(4)
        v[1, 0, 2] = np.nan
        guard = GuardedReduction(SimtReduction(), policy="degrade")
        guard.reduce4(v)
        assert guard.ledger.blocks_unrecoverable == 1


class TestEndToEndRecovery:
    """The acceptance demonstration: faults injected into tc-fp16 at rate
    1e-3; ``degrade`` restores best-score parity with the FP32 baseline
    while ``ignore`` measurably degrades it, with exact fault accounting.

    Uses the deterministic ADADELTA refinement path (the hot loop the
    paper's Figure 1 degradation flows through) so the comparison is free
    of genetic-algorithm sampling noise.
    """

    CASE, BATCH, ITERS, RATE = "7cpa", 64, 80, 1e-3

    @pytest.fixture(scope="class")
    def study(self):
        from repro.docking.cohort import (CohortGradientCalculator,
                                          CohortScoring)
        from repro.docking.genotype import random_genotypes
        from repro.search.adadelta import AdadeltaConfig, AdadeltaLocalSearch
        from repro.testcases import get_test_case

        sf = get_test_case(self.CASE).scoring()
        rng = np.random.default_rng(0)
        genes = random_genotypes(rng, self.BATCH, sf.ligand,
                                 sf.maps.box_lo, sf.maps.box_hi)

        def refine(backend):
            ls = AdadeltaLocalSearch(
                CohortGradientCalculator(CohortScoring([sf]), backend),
                AdadeltaConfig(max_iters=self.ITERS))
            best_x, _, _ = ls.minimize(genes)
            true = sf.score(best_x)  # re-score exactly: no reporting bias
            return {"best": float(true.min()), "mean": float(true.mean())}

        out = {"baseline": refine("baseline")}
        for policy in ("ignore", "degrade"):
            backend, injector = build_injected_backend(
                base="tc-fp16", policy=policy, rate=self.RATE,
                mode="overflow", seed=0, lanes="all")
            out[policy] = refine(backend)
            out[policy]["injected"] = injector.n_injected
            out[policy]["ledger"] = backend.ledger
        return out

    def test_ledger_reports_exact_injected_count(self, study):
        for policy in ("ignore", "degrade"):
            led = study[policy]["ledger"]
            injected = study[policy]["injected"]
            # stride-deterministic: one fault per 1/rate blocks seen
            assert injected == led.blocks_checked * self.RATE // 1
            assert led.by_site["injected"] == injected
            assert injected > 0

    def test_degrade_restores_baseline_parity(self, study):
        drift = abs(study["degrade"]["best"] - study["baseline"]["best"])
        assert drift < 0.25, study

    def test_ignore_measurably_degrades(self, study):
        loss = study["ignore"]["best"] - study["baseline"]["best"]
        assert loss > 0.5, study
        # ensemble-wide, silent corruption is catastrophic: poisoned
        # energies lock the best-pose bookkeeping onto garbage poses
        assert study["ignore"]["mean"] > study["baseline"]["mean"] + 100.0

    def test_degrade_repairs_every_injected_fault(self, study):
        led = study["degrade"]["ledger"]
        assert led.blocks_recovered == led.blocks_faulty
        assert led.blocks_unrecoverable == 0


class TestEngineIntegration:
    def test_config_validation(self):
        from repro.core import DockingConfig
        with pytest.raises(ValueError, match="fault policy"):
            DockingConfig(fault_policy="panic")
        with pytest.raises(ValueError, match="inject_rate"):
            DockingConfig(fault_policy="degrade", inject_rate=2.0)
        with pytest.raises(ValueError, match="fault_policy"):
            DockingConfig(inject_rate=0.1)  # injection needs a guard

    def test_engine_reports_fault_stats(self):
        from repro.core import DockingConfig, DockingEngine
        from repro.search.lga import LGAConfig
        from repro.testcases import get_test_case
        cfg = DockingConfig(
            backend="tc-fp16", fault_policy="degrade", inject_rate=0.01,
            inject_mode="nan",
            lga=LGAConfig(pop_size=8, max_evals=400, max_gens=8,
                          ls_iters=4, ls_rate=0.25))
        result = DockingEngine(get_test_case("1u4d"), cfg).dock(
            n_runs=2, seed=1)
        fs = result.fault_stats
        assert fs is not None
        assert fs["blocks_checked"] > 0
        assert fs["by_site"].get("injected", 0) > 0
        assert fs["blocks_recovered"] > 0
        assert np.isfinite(result.best_score)

    def test_unguarded_run_has_no_fault_stats(self):
        from repro.core import DockingConfig, DockingEngine
        from repro.search.lga import LGAConfig
        from repro.testcases import get_test_case
        cfg = DockingConfig(
            lga=LGAConfig(pop_size=8, max_evals=200, max_gens=4,
                          ls_iters=4, ls_rate=0.25))
        result = DockingEngine(get_test_case("1u4d"), cfg).dock(
            n_runs=1, seed=1)
        assert result.fault_stats is None

    def test_us_per_eval_nan_on_zero_evals(self):
        import math
        from repro.core.engine import DockingResult
        r = DockingResult(case_name="x", config=None, runs=[], outcomes=[],
                          total_evals=0, generations=0, runtime_seconds=0.0)
        assert math.isnan(r.us_per_eval)


class TestSoloQuarantine:
    """A solo dock is a cohort of one: a guard trip under ``raise``
    quarantines it exactly like a cohort member instead of raising."""

    ARGS = ["-case", "1u4d", "-nrun", "2", "--evals", "400", "--pop", "8",
            "--lsit", "4", "-seed", "1", "--tensor", "tc-fp16",
            "--fault-policy", "raise", "--inject-rate", "0.01",
            "--inject-mode", "nan"]

    @staticmethod
    def _config():
        from repro.core import DockingConfig
        from repro.search.lga import LGAConfig
        return DockingConfig(
            backend="tc-fp16", fault_policy="raise", inject_rate=0.01,
            inject_mode="nan",
            lga=LGAConfig(pop_size=8, max_evals=400, max_gens=8,
                          ls_iters=4, ls_rate=0.25))

    def test_raise_policy_returns_quarantine_record(self):
        from repro.core import DockingEngine
        from repro.testcases import get_test_case
        result = DockingEngine(get_test_case("1u4d"), self._config()).dock(
            n_runs=2, seed=1)
        q = result.quarantine
        assert q is not None
        assert (q["lane"], q["name"], q["reason"]) \
            == (0, "1u4d", "guard-raise")
        assert "reduction blocks" in q["detail"]
        # the best-so-far poses survive the freeze
        assert all(np.isfinite(r.best_score) for r in result.runs)
        assert result.fault_stats["blocks_faulty"] >= 1

    def test_pool_dead_letters_with_lane_quarantine(self):
        from repro.serve import DockingJob, WorkerPool
        job = DockingJob(spec={"kind": "case", "case": "1u4d"},
                         config=self._config(), n_runs=2, seed=1)
        pool = WorkerPool(workers=0, retries=2, backoff=0.0)
        [res] = list(pool.map([job]))
        assert res.status == "dead"
        assert res.error["error_type"] == "LaneQuarantine"
        assert res.error["message"].startswith("guard-raise: ")
        # the same job trips the same guard again: no retry
        assert res.attempts == 1
        assert pool.dead_letters == [res]

    def test_cli_prints_quarantine(self, capsys):
        from repro.cli import main
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "Quarantined at generation" in out
        assert "guard-raise" in out
