"""Tests for the reduction back-ends (Equations 1-4 and the SIMT baseline)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.reduction import (
    SimtReduction,
    TcFp16Reduction,
    TcecReduction,
    build_p_matrix,
    build_q_matrix,
    get_reduction_backend,
    pack_vectors,
    simt_tree_reduce,
    unpack_result,
)
from repro.reduction.api import ExactReduction
from repro.reduction.simt_backend import _tree_reduce_inplace, tree_width


class TestMatrices:
    def test_p_is_all_ones(self):
        p = build_p_matrix()
        assert p.shape == (16, 16)
        np.testing.assert_array_equal(p, np.ones((16, 16), np.float32))

    def test_q_block_identity_structure(self):
        q = build_q_matrix()
        i4 = np.eye(4, dtype=np.float32)
        for br in range(4):
            for bc in range(4):
                np.testing.assert_array_equal(
                    q[4 * br: 4 * br + 4, 4 * bc: 4 * bc + 4], i4)

    def test_pack_layout_matches_equation2(self):
        """Column c holds vectors 4c..4c+3 component-first."""
        n = 64
        vecs = np.zeros((n, 4), dtype=np.float32)
        for k in range(n):
            vecs[k] = [k + 0.0, k + 0.25, k + 0.5, k + 0.75]  # x,y,z,e tags
        a = pack_vectors(vecs)[0]
        # A[4j+i, c] = component i of vector 4c+j
        for c in range(16):
            for j in range(4):
                for i in range(4):
                    k = 4 * c + j
                    assert a[4 * j + i, c] == vecs[k, i]

    def test_pack_pads_with_zeros(self):
        vecs = np.ones((10, 4), dtype=np.float32)
        a = pack_vectors(vecs)
        assert a.shape == (1, 16, 16)
        assert a.sum() == 40.0

    def test_pack_multiple_tiles(self):
        vecs = np.ones((130, 4), dtype=np.float32)
        a = pack_vectors(vecs)
        assert a.shape == (3, 16, 16)

    def test_pack_rejects_bad_shape(self):
        with pytest.raises(ValueError, match=r"\(\.\.\., n, 4\)"):
            pack_vectors(np.ones((10, 3), np.float32))

    def test_equation_pipeline_exact_in_fp64(self):
        """A x P then Q x V reproduces the four sums exactly in fp64."""
        rng = np.random.default_rng(1)
        vecs = rng.normal(size=(64, 4)).astype(np.float32)
        a = pack_vectors(vecs)[0].astype(np.float64)
        v = a @ build_p_matrix().astype(np.float64)
        w = build_q_matrix().astype(np.float64) @ v
        got = unpack_result(w)
        np.testing.assert_allclose(got, vecs.astype(np.float64).sum(axis=0),
                                   rtol=1e-12)

    def test_unpack_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="16, 16"):
            unpack_result(np.zeros((8, 8)))


class TestSimtTree:
    def test_matches_exact_sum_closely(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=500).astype(np.float32)
        got = simt_tree_reduce(v)
        np.testing.assert_allclose(got, v.astype(np.float64).sum(), rtol=1e-5)

    def test_power_of_two_input(self):
        v = np.arange(256, dtype=np.float32)
        assert simt_tree_reduce(v) == v.sum()

    def test_empty_input(self):
        out = simt_tree_reduce(np.zeros((3, 0), np.float32))
        np.testing.assert_array_equal(out, np.zeros(3, np.float32))

    def test_single_element(self):
        assert simt_tree_reduce(np.array([7.0], np.float32)) == 7.0

    def test_axis_argument(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(4, 100)).astype(np.float32)
        np.testing.assert_array_equal(simt_tree_reduce(v, axis=-1),
                                      simt_tree_reduce(v.T, axis=0))

    def test_tree_order_differs_from_sequential(self):
        """The tree sum is a *different* FP32 rounding than naive left-fold —
        documents that the baseline's numerics are order-dependent."""
        rng = np.random.default_rng(4)
        v = (rng.normal(size=1023) * 1e3).astype(np.float32)
        tree = float(simt_tree_reduce(v))
        seq = float(np.float32(0.0))
        acc = np.float32(0.0)
        for x in v:
            acc = np.float32(acc + x)
        seq = float(acc)
        exact = float(v.astype(np.float64).sum())
        assert abs(tree - exact) <= abs(seq - exact) * 10  # both close; tree usually closer


    @pytest.mark.parametrize("n", [0, 1, 2, 8, 9, 32, 33, 64, 65])
    def test_in_place_helper_bit_equals_copying_reduce(self, n):
        """The cohort engine fills a tree-width scratch buffer and
        reduces it in place; every sum must match simt_tree_reduce's
        copy-and-pad path bit for bit."""
        rng = np.random.default_rng(n)
        vals = (rng.standard_normal((3, 5, n))
                * 10.0 ** rng.integers(-6, 6, (3, 5, n))).astype(np.float32)
        buf = np.zeros((3, 5, tree_width(n)), dtype=np.float32)
        buf[..., :n] = vals
        got = _tree_reduce_inplace(buf)
        want = simt_tree_reduce(vals)
        assert got.shape == want.shape == (3, 5)
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_tree_width(self):
        assert [tree_width(n) for n in (0, 1, 2, 3, 8, 9)] \
            == [0, 1, 2, 4, 8, 16]


class TestBackends:
    def _vectors(self, seed=5, n=300, pop=3, scale=10.0):
        rng = np.random.default_rng(seed)
        return (rng.normal(size=(pop, n, 4)) * scale).astype(np.float32)

    def test_registry(self):
        assert isinstance(get_reduction_backend("baseline"), SimtReduction)
        assert isinstance(get_reduction_backend("tc-fp16"), TcFp16Reduction)
        assert isinstance(get_reduction_backend("tcec-tf32"), TcecReduction)
        assert isinstance(get_reduction_backend("exact"), ExactReduction)

    def test_registry_passthrough(self):
        b = TcecReduction()
        assert get_reduction_backend(b) is b

    def test_registry_unknown(self):
        with pytest.raises(ValueError, match="unknown reduction backend"):
            get_reduction_backend("simd-scan")

    def test_cost_keys(self):
        assert SimtReduction().cost_key == "baseline"
        assert TcFp16Reduction().cost_key == "tc-fp16"
        assert TcecReduction().cost_key == "tcec-tf32"

    @pytest.mark.parametrize("name", ["baseline", "tc-fp16", "tcec-tf32", "exact"])
    def test_shapes(self, name):
        v = self._vectors()
        out = get_reduction_backend(name).reduce4(v)
        assert out.shape == (3, 4)
        assert out.dtype == np.float32

    def test_accuracy_ordering_matches_paper(self):
        """tc-fp16 is the least accurate; tcec-tf32 restores (and here beats)
        the FP32 baseline — the core claim behind Figures 1 and 3."""
        v = self._vectors(n=512)
        exact = v.astype(np.float64).sum(axis=1)
        errs = {}
        for name in ("baseline", "tc-fp16", "tcec-tf32"):
            got = get_reduction_backend(name).reduce4(v)
            errs[name] = np.max(np.abs(got - exact) / (np.abs(exact) + 1e-9))
        assert errs["tc-fp16"] > 10 * errs["baseline"]
        assert errs["tcec-tf32"] <= errs["baseline"] * 2

    def test_fp16_overflow_destroys_reduction(self):
        """Gradient spikes beyond FP16 range (steep vdW clashes) saturate in
        the Schieffer-Peng path but survive TCEC/TF32."""
        v = np.zeros((1, 64, 4), dtype=np.float32)
        v[0, 0, 0] = 1e6
        v[0, 1, 0] = 123.0
        exact = v.astype(np.float64).sum(axis=1)
        fp16 = get_reduction_backend("tc-fp16").reduce4(v)
        tcec = get_reduction_backend("tcec-tf32").reduce4(v)
        assert not np.isclose(fp16[0, 0], exact[0, 0], rtol=1e-3)
        np.testing.assert_allclose(tcec[0, 0], exact[0, 0], rtol=1e-6)

    def test_single_vector(self):
        v = np.array([[[1.0, 2.0, 3.0, 4.0]]], dtype=np.float32)
        for name in ("baseline", "tc-fp16", "tcec-tf32"):
            out = get_reduction_backend(name).reduce4(v)
            np.testing.assert_allclose(out[0], [1, 2, 3, 4], atol=2e-3)


vec_arrays = arrays(np.float32, (97, 4),
                    elements=st.floats(min_value=-50, max_value=50, width=32))


@given(vec_arrays)
@settings(max_examples=30, deadline=None)
def test_tcec_reduction_close_to_exact(vecs):
    exact = vecs.astype(np.float64).sum(axis=0)
    got = TcecReduction().reduce4(vecs)
    scale = np.abs(vecs).sum(axis=0) + 1.0
    assert np.all(np.abs(got - exact) <= scale * 2.0 ** -18)


@given(vec_arrays)
@settings(max_examples=30, deadline=None)
def test_baseline_reduction_close_to_exact(vecs):
    exact = vecs.astype(np.float64).sum(axis=0)
    got = SimtReduction().reduce4(vecs)
    scale = np.abs(vecs).sum(axis=0) + 1.0
    assert np.all(np.abs(got - exact) <= scale * 2.0 ** -16)


class TestWarpShuffle:
    def test_matches_exact_closely(self):
        from repro.reduction.simt_backend import warp_shuffle_reduce
        rng = np.random.default_rng(9)
        v = rng.normal(size=(3, 500)).astype(np.float32)
        got = warp_shuffle_reduce(v)
        exact = v.astype(np.float64).sum(axis=-1)
        np.testing.assert_allclose(got, exact, rtol=1e-5)

    def test_single_warp_matches_tree(self):
        """For exactly 32 values the shuffle butterfly IS the tree."""
        from repro.reduction.simt_backend import warp_shuffle_reduce
        rng = np.random.default_rng(10)
        v = rng.normal(size=32).astype(np.float32)
        assert warp_shuffle_reduce(v) == simt_tree_reduce(v)

    def test_empty(self):
        from repro.reduction.simt_backend import warp_shuffle_reduce
        out = warp_shuffle_reduce(np.zeros((2, 0), np.float32))
        np.testing.assert_array_equal(out, np.zeros(2, np.float32))

    def test_backend_registered(self):
        from repro.reduction.api import WarpShuffleReduction
        b = get_reduction_backend("warp-shuffle")
        assert isinstance(b, WarpShuffleReduction)
        assert b.cost_key == "baseline"
        rng = np.random.default_rng(11)
        vecs = rng.normal(size=(2, 100, 4)).astype(np.float32)
        exact = vecs.astype(np.float64).sum(axis=1)
        np.testing.assert_allclose(b.reduce4(vecs), exact, rtol=1e-4,
                                   atol=1e-4)

    def test_same_accuracy_class_as_baseline(self):
        rng = np.random.default_rng(12)
        vecs = (rng.normal(size=(4, 300, 4)) * 10).astype(np.float32)
        exact = vecs.astype(np.float64).sum(axis=1)
        err_ws = np.max(np.abs(get_reduction_backend("warp-shuffle")
                               .reduce4(vecs) - exact))
        err_tree = np.max(np.abs(get_reduction_backend("baseline")
                                 .reduce4(vecs) - exact))
        assert err_ws < 10 * err_tree + 1e-3
