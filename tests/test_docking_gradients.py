"""Tests for the gradient kernel — the seven reductions and their accuracy."""

import numpy as np
import pytest

from repro.docking import CohortGradientCalculator, CohortScoring, \
    ScoringFunction
from repro.docking.cohort import GENE_GRADIENT_CLAMP
from repro.docking.genotype import genotype_length
from repro.reduction import TcecReduction


def _gradient(sf, backend):
    """The gradient calculator of a one-ligand cohort."""
    return CohortGradientCalculator(CohortScoring([sf]), backend)


class TestGradientCorrectness:
    def _setup(self, butane_like, small_maps):
        sf = ScoringFunction(butane_like, small_maps)
        return sf, _gradient(sf, "exact")

    def test_energy_matches_scoring(self, butane_like, small_maps):
        """The reduced energy lane equals the scoring function's value (up
        to reduction rounding)."""
        sf, gc = self._setup(butane_like, small_maps)
        rng = np.random.default_rng(0)
        g = rng.normal(size=(6, genotype_length(butane_like))) * 0.5
        e_grad, _ = gc(g)
        e_sf = sf.score(g)
        np.testing.assert_allclose(e_grad, e_sf, rtol=1e-4, atol=1e-3)

    def test_gradient_matches_finite_difference(self, butane_like,
                                                small_maps):
        sf, gc = self._setup(butane_like, small_maps)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, genotype_length(butane_like))) * 0.4
        _, grad = gc(x)
        if np.any(np.abs(grad) >= GENE_GRADIENT_CLAMP * 0.99):
            pytest.skip("clamped point; FD comparison not meaningful")
        eps = 1e-5
        fd = np.zeros_like(grad)
        for k in range(x.shape[1]):
            xp, xm = x.copy(), x.copy()
            xp[0, k] += eps
            xm[0, k] -= eps
            fd[0, k] = (sf.score(xp)[0] - sf.score(xm)[0]) / (2 * eps)
        np.testing.assert_allclose(grad, fd, rtol=0.05, atol=0.05)

    def test_gradient_7cpa_finite_difference(self, case_7cpa):
        """Same check on the realistic case (translation/orientation/
        torsion blocks all present)."""
        sf = case_7cpa.scoring()
        gc = _gradient(sf, "exact")
        rng = np.random.default_rng(3)
        x = case_7cpa.native_genotype[None, :] \
            + rng.normal(0, 0.15, (1, case_7cpa.native_genotype.size))
        _, grad = gc(x)
        if np.any(np.abs(grad) >= GENE_GRADIENT_CLAMP * 0.99):
            pytest.skip("clamped point; FD comparison not meaningful")
        eps = 1e-5
        fd = np.zeros_like(grad)
        for k in range(x.shape[1]):
            xp, xm = x.copy(), x.copy()
            xp[0, k] += eps
            xm[0, k] -= eps
            fd[0, k] = (sf.score(xp)[0] - sf.score(xm)[0]) / (2 * eps)
        err = np.abs(grad - fd) / (np.abs(fd) + 1e-2)
        assert float(np.max(err)) < 0.05

    def test_gradient_clamped(self, butane_like, small_maps):
        _, gc = self._setup(butane_like, small_maps)
        # a pose far outside the box has a huge out-of-box pull
        x = np.zeros((1, genotype_length(butane_like)))
        x[0, 0] = 500.0
        _, grad = gc(x)
        assert np.all(np.abs(grad) <= GENE_GRADIENT_CLAMP)

    def test_batched_matches_single(self, butane_like, small_maps):
        _, gc = self._setup(butane_like, small_maps)
        rng = np.random.default_rng(2)
        g = rng.normal(size=(4, genotype_length(butane_like))) * 0.3
        e_b, gr_b = gc(g)
        for k in range(4):
            e_s, gr_s = gc(g[k][None])
            assert e_b[k] == pytest.approx(e_s[0], rel=1e-6)
            np.testing.assert_allclose(gr_b[k], gr_s[0], rtol=1e-6)


class TestBackendEffects:
    def test_backend_changes_energy_slightly(self, case_7cpa):
        """Different reduction back-ends give different (but close) energies
        away from clashes — and identical gradients structure."""
        sf = case_7cpa.scoring()
        rng = np.random.default_rng(4)
        x = case_7cpa.native_genotype[None, :] + rng.normal(0, 0.1, (1, 21))
        e = {}
        for backend in ("exact", "baseline", "tcec-tf32", "tc-fp16"):
            e[backend], _ = _gradient(sf, backend)(x)
        assert e["baseline"][0] == pytest.approx(e["exact"][0], abs=1e-3)
        assert e["tcec-tf32"][0] == pytest.approx(e["exact"][0], abs=1e-3)
        # FP16 path deviates measurably more
        fp16_err = abs(e["tc-fp16"][0] - e["exact"][0])
        tcec_err = abs(e["tcec-tf32"][0] - e["exact"][0])
        assert fp16_err > tcec_err

    def test_backend_instance_accepted(self, butane_like, small_maps):
        sf = ScoringFunction(butane_like, small_maps)
        gc = _gradient(sf, TcecReduction())
        assert gc.backend.name == "tcec-tf32"

    def test_fp16_gradient_error_larger(self, case_7cpa):
        """Per-gene gradient error ordering: fp16 >> tcec (Figure 1 vs 3
        at the kernel level)."""
        sf = case_7cpa.scoring()
        rng = np.random.default_rng(5)
        x = case_7cpa.native_genotype[None, :] + rng.normal(0, 0.3, (1, 21))
        _, g_exact = _gradient(sf, "exact")(x)
        _, g_fp16 = _gradient(sf, "tc-fp16")(x)
        _, g_tcec = _gradient(sf, "tcec-tf32")(x)
        # a non-finite fp16 gradient (accumulator overflow) is the extreme
        # form of the error — count it as a huge deviation
        diff16 = np.abs(g_fp16 - g_exact)
        err16 = float(np.max(np.nan_to_num(diff16, nan=1e9, posinf=1e9)))
        err_ec = float(np.max(np.abs(g_tcec - g_exact)))
        assert np.all(np.isfinite(g_tcec))
        assert err_ec <= err16

    def test_translation_gradient_is_atom_sum(self, butane_like, small_maps):
        """Gtrans equals the sum of per-atom gradients (exact backend)."""
        sf = ScoringFunction(butane_like, small_maps)
        gc = _gradient(sf, "exact")
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, genotype_length(butane_like))) * 0.3
        from repro.docking.pose import calc_coords
        coords = calc_coords(butane_like, x)
        _, g_atoms = gc.atom_gradients(coords[None], gc.cohort.pack)
        g_atoms = g_atoms[0]
        _, grad = gc(x)
        expect = g_atoms.sum(axis=1)[0]
        clamped = np.clip(expect, -GENE_GRADIENT_CLAMP, GENE_GRADIENT_CLAMP)
        np.testing.assert_allclose(grad[0, 0:3], clamped, rtol=1e-4)
