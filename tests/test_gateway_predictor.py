"""Tests of the cost-model runtime predictor behind SLO admission.

The committed-file test is the PR's acceptance gate: fitted against the
calibration traces shipped in ``BENCH_gateway.json``, the predictor's
p50 relative error on those same traces must stay within 30%.
"""

import math

import pytest

from repro.io import pack_rlig, write_pdbqt
from repro.simt.predictor import (DEFAULT_BENCH_PATH, JobShape,
                                  RuntimePredictor, shape_from_case)
from repro.testcases.library import case_ligand

SMALL = JobShape(n_atoms=20, n_rot=2, n_rotlist=20, n_intra=10,
                 n_genes=8)
LARGE = JobShape(n_atoms=120, n_rot=16, n_rotlist=130, n_intra=300,
                 n_genes=22)


def _entries(per_eval_small=1e-4, per_eval_large=4e-4, backend="baseline"):
    """Two synthetic calibration traces with known per-eval cost."""
    return [
        {"case": "small", "backend": backend, "total_evals": 1000,
         "wall_s": per_eval_small * 1000},
        {"case": "large", "backend": backend, "total_evals": 1000,
         "wall_s": per_eval_large * 1000},
    ]


def _predictor(**kw):
    return RuntimePredictor(shapes={"small": SMALL, "large": LARGE},
                            entries=_entries(), ref_s=1.0, **kw)


class TestCommittedBenchGate:
    """Acceptance: p50 rel err <= 30% on the committed traces."""

    def test_committed_file_exists_and_loads(self):
        p = RuntimePredictor.from_bench(DEFAULT_BENCH_PATH)
        assert p.shapes and p.entries
        assert p.coeff_a >= 0 and p.coeff_b >= 0

    def test_p50_relative_error_within_gate(self):
        acc = RuntimePredictor.from_bench(DEFAULT_BENCH_PATH).accuracy()
        assert acc["n"] >= 3
        assert acc["p50_rel_err"] <= 0.30
        for rec in acc["entries"]:
            assert math.isfinite(rec["rel_err"])
            assert rec["predicted_s"] > 0

    def test_known_cases_price_from_committed_table(self):
        p = RuntimePredictor.from_bench(DEFAULT_BENCH_PATH)
        shape = p.shape_for_spec({"kind": "case", "case": "7cpa"})
        assert shape == p.shapes["7cpa"]


class TestFitAndPrediction:
    def test_prediction_scales_linearly_with_budget(self):
        p = _predictor()
        one = p.predict_seconds(SMALL, 1000)
        ten = p.predict_seconds(SMALL, 10_000)
        assert one > 0
        assert ten == pytest.approx(10 * one)

    def test_bigger_shape_predicts_slower(self):
        p = _predictor()
        assert p.eval_seconds(LARGE) > p.eval_seconds(SMALL)

    def test_fit_recovers_known_affine_law(self):
        """Traces generated as ``y = a + b x`` of the model proxy are
        reproduced exactly by the fit (two points, affine map)."""
        a, b = 2e-5, 1500.0
        probe = RuntimePredictor(shapes={"small": SMALL, "large": LARGE},
                                 entries=_entries(), ref_s=1.0)
        entries = [
            {"case": name, "backend": "baseline", "total_evals": 1000,
             "wall_s": 1000 * (a + b * probe.model_eval_seconds(shape))}
            for name, shape in (("small", SMALL), ("large", LARGE))]
        p = RuntimePredictor(shapes={"small": SMALL, "large": LARGE},
                             entries=entries, ref_s=1.0)
        assert p.coeff_a == pytest.approx(a, rel=1e-6)
        assert p.coeff_b == pytest.approx(b, rel=1e-6)
        assert p.predict_seconds(SMALL, 1000) == pytest.approx(
            entries[0]["wall_s"], rel=1e-6)

    def test_machine_factor_rescales(self):
        slow = RuntimePredictor(shapes={"small": SMALL, "large": LARGE},
                                entries=_entries(), ref_s=1.0,
                                local_ref_s=2.0)
        fast = _predictor()
        assert slow.machine_factor == pytest.approx(2.0)
        assert slow.predict_seconds(SMALL, 1000) == pytest.approx(
            2 * fast.predict_seconds(SMALL, 1000))

    def test_coefficients_never_negative(self):
        # anti-correlated traces: slope clamps, fit falls back flat
        entries = _entries(per_eval_small=4e-4, per_eval_large=1e-4)
        p = RuntimePredictor(shapes={"small": SMALL, "large": LARGE},
                             entries=entries, ref_s=1.0)
        assert p.coeff_a >= 0 and p.coeff_b >= 0
        assert p.eval_seconds(SMALL) > 0

    def test_needs_at_least_one_entry(self):
        with pytest.raises(ValueError, match="calibration"):
            RuntimePredictor(shapes={}, entries=[], ref_s=1.0)


class TestBackendFactors:
    def test_slower_backend_learns_multiplier(self):
        """A backend measured 2x slower than the baseline fit predicts
        2x — the host emulates tensor-core reductions, it does not get
        their speedup."""
        probe = _predictor()
        base = [
            {"case": name, "backend": "baseline", "total_evals": 1000,
             "wall_s": 1000 * (1e-5
                               + 1500 * probe.model_eval_seconds(shape))}
            for name, shape in (("small", SMALL), ("large", LARGE))]
        entries = base + [dict(e, backend="tc-fp16",
                               wall_s=2 * e["wall_s"]) for e in base]
        p = RuntimePredictor(shapes={"small": SMALL, "large": LARGE},
                             entries=entries, ref_s=1.0)
        assert p.backend_factor["tc-fp16"] == pytest.approx(2.0,
                                                            rel=1e-6)
        assert p.eval_seconds(SMALL, backend="tc-fp16") == pytest.approx(
            2 * p.eval_seconds(SMALL, backend="baseline"), rel=1e-6)

    def test_unseen_backend_predicts_with_factor_one(self):
        p = _predictor()
        assert "tcec-bf16" not in p.backend_factor
        raw_fit = p.coeff_a + p.coeff_b * p.model_eval_seconds(SMALL)
        assert p.eval_seconds(SMALL, backend="tcec-bf16") == \
            pytest.approx(raw_fit)

    def test_exact_no_longer_aliases_baseline(self):
        """Regression (PR 10): "exact" used to be folded into the
        "baseline" calibration column, polluting the baseline fit with
        FP64 traces.  It now calibrates under its own name; with no
        exact traces committed it predicts with factor 1.0 (the raw
        shape fit), like any unseen backend."""
        p = _predictor()
        assert RuntimePredictor._backend_key("exact") == "exact"
        raw_fit = p.coeff_a + p.coeff_b * p.model_eval_seconds(SMALL)
        assert p.eval_seconds(SMALL, backend="exact") == \
            pytest.approx(raw_fit)

    def test_exact_traces_do_not_pollute_baseline_fit(self):
        probe = _predictor()
        base = [
            {"case": name, "backend": "baseline", "total_evals": 1000,
             "wall_s": 1000 * (1e-5
                               + 1500 * probe.model_eval_seconds(shape))}
            for name, shape in (("small", SMALL), ("large", LARGE))]
        # FP64 traces measured 3x slower must land in their own column,
        # not skew the baseline coefficients
        entries = base + [dict(e, backend="exact",
                               wall_s=3 * e["wall_s"]) for e in base]
        clean = RuntimePredictor(shapes={"small": SMALL, "large": LARGE},
                                 entries=base, ref_s=1.0)
        p = RuntimePredictor(shapes={"small": SMALL, "large": LARGE},
                             entries=entries, ref_s=1.0)
        assert (p.coeff_a, p.coeff_b) == pytest.approx(
            (clean.coeff_a, clean.coeff_b), rel=1e-9)
        assert p.backend_factor["exact"] == pytest.approx(3.0, rel=1e-6)


class TestShapeResolution:
    def test_unknown_case_name_falls_back_to_nearest_nrot(self):
        p = _predictor()
        shape = p.shape_for_spec({"kind": "case", "case": "no-such"})
        assert shape in (SMALL, LARGE)

    def test_file_and_rlig_ligands_price_from_their_exact_shape(
            self, tmp_path):
        """A PDBQT or ``.rlig`` ligand prices from its own atoms,
        torsions and rotation list, scaled as ``TestCase.workload``
        scales a case: 7cpa's ligand docked from a file gets 7cpa's
        committed row (its scaled atom count is a table row, so the
        intra-pair estimate lands on that row exactly)."""
        p = RuntimePredictor.from_bench(DEFAULT_BENCH_PATH)
        ligand = case_ligand("7cpa")
        pdbqt = tmp_path / "lig.pdbqt"
        write_pdbqt(ligand, pdbqt)
        pack = tmp_path / "lib.rlig"
        pack_rlig(pack, [ligand])
        specs = [{"kind": "case-ligand", "case": "7cpa",
                  "ligand": str(pdbqt)},
                 {"kind": "rlig", "pack": str(pack), "index": 0,
                  "case": "7cpa"}]
        for spec in specs:
            assert p.shape_for_spec(spec) == p.shapes["7cpa"], spec

    def test_rlig_ligands_are_not_one_stand_in_shape(self, tmp_path):
        p = RuntimePredictor.from_bench(DEFAULT_BENCH_PATH)
        pack = tmp_path / "lib.rlig"
        pack_rlig(pack, [case_ligand(n) for n in ("1u4d", "7cpa", "2brb")])
        shapes = [p.shape_for_spec({"kind": "rlig", "pack": str(pack),
                                    "index": i, "case": "7cpa"})
                  for i in range(3)]
        assert [s.n_rot for s in shapes] == [0, 15, 20]
        seconds = [p.predict_seconds(s, 1000) for s in shapes]
        assert seconds == sorted(seconds) and seconds[0] < seconds[2]

    def test_shape_from_case_matches_committed_table(self):
        from repro.testcases import get_test_case
        p = RuntimePredictor.from_bench(DEFAULT_BENCH_PATH)
        built = shape_from_case(get_test_case("1u4d"))
        assert built == p.shapes["1u4d"]
