"""Fused tensor-core reductions against their tile-by-tile reference.

:func:`tc_reduce_xyze` and :func:`tcec_reduce_xyze` are fused row-sum
kernels; :func:`tc_reduce_tiles` and :func:`tcec_reduce_tiles` push every
full 16x16 tile through ``mma`` / ``tcec_mma``.  The pass rule is bit
identity: the same bits for every non-NaN output (±0 and ±inf included)
and NaN at exactly the reference's positions.  NaN payloads are not
compared.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.reduction.tc_backend as tc_backend
from repro.reduction.api import get_reduction_backend
from repro.reduction.tc_backend import (
    tc_reduce_tiles,
    tc_reduce_xyze,
    tcec_reduce_tiles,
    tcec_reduce_xyze,
)
from repro.tensorcore.mma import fault_hook, fault_hook_installed
from repro.tensorcore.tcec import TcecConfig

TC_CONFIGS = [
    {"in_format": f, "accumulate": a, "accumulator_format": acc}
    for f in ("fp16", "tf32", "bf16")
    for a in ("rz", "rn")
    for acc in ("fp16", "fp32")
]
TCEC_CONFIGS = [
    TcecConfig(in_format=f, scale_residual=s, correction_terms=k)
    for f in ("tf32", "fp16", "bf16")
    for s in (True, False)
    for k in (0, 1, 2)
]


def _tc_id(cfg: dict) -> str:
    return "-".join(cfg.values())


def _tcec_id(cfg: TcecConfig) -> str:
    return f"{cfg.in_format}-scale{int(cfg.scale_residual)}-" \
           f"terms{cfg.correction_terms}"


def assert_same_bits(got: np.ndarray, ref: np.ndarray) -> None:
    assert got.dtype == ref.dtype == np.float32
    assert got.shape == ref.shape
    nan = np.isnan(ref)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.uint32),
                                  ref[~nan].view(np.uint32))


def _reference(fused, vectors, cfg):
    with np.errstate(all="ignore"):
        if fused is tc_reduce_xyze:
            return tc_reduce_tiles(vectors, **cfg)
        return tcec_reduce_tiles(vectors, cfg)


def _run(fused, vectors, cfg):
    return fused(vectors, **cfg) if fused is tc_reduce_xyze \
        else fused(vectors, cfg)


# ----------------------------------------------------------------------
# input generation: hypothesis draws the shape, the magnitude profile,
# signed zeros and non-finite entries; a drawn seed fills the values

_PROFILES = {
    # exponent range of |x| (powers of two) per profile
    "unit": (-4, 4),
    "wide": (-149, 127),          # f32 subnormals to near f32 max
    "subnormal": (-149, -120),
    "huge": (100, 127),
    "fp16-overflow": (10, 16),    # tile sums past 65504
}
_SPECIALS = (np.inf, -np.inf, np.nan, 0.0, -0.0)


def _values(rng, profile: str, shape: tuple) -> np.ndarray:
    lo, hi = _PROFILES[profile]
    exps = rng.integers(lo, hi, size=shape, endpoint=True)
    mant = rng.uniform(1.0, 2.0, size=shape) * rng.choice([-1.0, 1.0],
                                                          size=shape)
    with np.errstate(over="ignore"):
        return np.ldexp(mant, exps).astype(np.float32)


@st.composite
def vector_sets(draw, max_n: int = 300):
    lead = draw(st.sampled_from([(), (1,), (3,), (2, 1), (2, 3)]))
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = _values(rng, draw(st.sampled_from(sorted(_PROFILES))), lead + (n, 4))
    zeros = draw(st.sampled_from(["none", "vectors", "lane", "scattered"]))
    sign = draw(st.sampled_from([0.0, -0.0]))
    if zeros == "vectors":
        x[..., rng.random(n) < 0.5, :] = sign
    elif zeros == "lane":
        x[..., draw(st.integers(0, 3))] = sign
    elif zeros == "scattered":
        x[rng.random(x.shape) < 0.3] = sign
    for k, lane, value, everywhere in draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, 3),
            st.sampled_from(_SPECIALS), st.booleans()), max_size=3)):
        if everywhere or not lead:
            x[..., k, lane] = value
        else:
            x.reshape((-1, n, 4))[0, k, lane] = value
    return x


# ----------------------------------------------------------------------
# oracle: every configuration, bit for bit


@pytest.mark.parametrize("cfg", TC_CONFIGS, ids=_tc_id)
@given(vectors=vector_sets())
@settings(max_examples=25, deadline=None)
def test_tc_fused_matches_tiles(cfg, vectors):
    assert_same_bits(tc_reduce_xyze(vectors, **cfg),
                     _reference(tc_reduce_xyze, vectors, cfg))


@pytest.mark.parametrize("cfg", TCEC_CONFIGS, ids=_tcec_id)
@given(vectors=vector_sets())
@settings(max_examples=25, deadline=None)
def test_tcec_fused_matches_tiles(cfg, vectors):
    assert_same_bits(tcec_reduce_xyze(vectors, cfg),
                     _reference(tcec_reduce_xyze, vectors, cfg))


@pytest.mark.parametrize("lane", range(4))
@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_tc_inf_stays_in_its_lane(lane, value):
    """``Q``'s zero entries turn an infinite ``V`` row into NaN in the
    three other lanes only — a kernel that poisons the whole column
    passes the TCEC cases and fails these."""
    x = np.ones((70, 4), np.float32)
    x[5, lane] = value
    for cfg in TC_CONFIGS:
        got = tc_reduce_xyze(x, **cfg)
        assert_same_bits(got, _reference(tc_reduce_xyze, x, cfg))
        assert got[lane] == value
        assert np.isnan(np.delete(got, lane)).all()


@pytest.mark.parametrize("lane", range(4))
@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_tcec_inf_poisons_every_lane(lane, value):
    x = np.ones((70, 4), np.float32)
    x[5, lane] = value
    for cfg in TCEC_CONFIGS:
        got = tcec_reduce_xyze(x, cfg)
        assert_same_bits(got, _reference(tcec_reduce_xyze, x, cfg))
        if cfg.correction_terms == 0:
            assert got[lane] == value
            assert np.isnan(np.delete(got, lane)).all()
        else:
            assert np.isnan(got).all()


@pytest.mark.parametrize("lane", range(4))
def test_nan_poisons_every_lane(lane):
    x = np.ones((3, 20, 4), np.float32)
    x[1, 7, lane] = np.nan
    for cfg in TC_CONFIGS:
        got = tc_reduce_xyze(x, **cfg)
        assert_same_bits(got, _reference(tc_reduce_xyze, x, cfg))
        assert np.isnan(got[1]).all() and not np.isnan(got[[0, 2]]).any()
    for cfg in TCEC_CONFIGS:
        got = tcec_reduce_xyze(x, cfg)
        assert_same_bits(got, _reference(tcec_reduce_xyze, x, cfg))
        assert np.isnan(got[1]).all() and not np.isnan(got[[0, 2]]).any()


def test_fp16_accumulator_saturates_like_reference():
    x = np.full((200, 4), 3000.0, np.float32)
    got = tc_reduce_xyze(x)
    assert_same_bits(got, _reference(tc_reduce_xyze, x, TC_CONFIGS[0]))
    assert (got == 65504.0).all()


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 128, 129])
def test_tile_boundaries(n):
    x = np.random.default_rng(n).normal(size=(2, n, 4)).astype(np.float32)
    for cfg in TC_CONFIGS:
        assert_same_bits(tc_reduce_xyze(x, **cfg),
                         _reference(tc_reduce_xyze, x, cfg))
    for cfg in TCEC_CONFIGS:
        assert_same_bits(tcec_reduce_xyze(x, cfg),
                         _reference(tcec_reduce_xyze, x, cfg))


# ----------------------------------------------------------------------
# the suffix-zero pad contract the cohort engine relies on
# (ReductionBackend docstring), checked on the fused kernels directly


@given(vectors=vector_sets(max_n=150), extra=st.integers(1, 140))
@settings(max_examples=40, deadline=None)
def test_suffix_zero_padding_and_row_independence(vectors, extra):
    lead, n = vectors.shape[:-2], vectors.shape[-2]
    padded = np.concatenate(
        [vectors, np.zeros(lead + (extra, 4), np.float32)], axis=-2)
    rows = vectors.reshape((-1, n, 4))
    for fused, cfg in ([(tc_reduce_xyze, c) for c in TC_CONFIGS[::3]]
                       + [(tcec_reduce_xyze, c) for c in TCEC_CONFIGS[::4]]):
        got = _run(fused, vectors, cfg)
        assert_same_bits(_run(fused, padded, cfg), got)
        single = np.stack([_run(fused, r, cfg) for r in rows])
        assert_same_bits(single.reshape(got.shape), got)


# ----------------------------------------------------------------------
# the tile path: only while a fault hook is installed


class _Census:
    def __init__(self):
        self.calls = []

    def __call__(self, tile, site):
        self.calls.append((site, tile.shape))
        return tile


@pytest.mark.parametrize("n", [20, 64, 130])
def test_hook_sees_every_reference_tile(n):
    """Under a hook both kernels issue exactly the parent's tile sequence
    and return the reference result."""
    x = np.random.default_rng(n).normal(size=(2, 5, n, 4)).astype(np.float32)
    n_tiles = -(-n // 64)
    tile = (2, 5, 16, 16)
    census = _Census()
    with fault_hook(census):
        assert fault_hook_installed()
        got = tc_reduce_xyze(x)
    assert census.calls == [("mma-accumulator", tile)] * (n_tiles + 1)
    assert_same_bits(got, tc_reduce_tiles(x))

    census = _Census()
    with fault_hook(census):
        got = tcec_reduce_xyze(x)
    per_issue = [("mma-accumulator", tile)] * 3 + [("tcec-simt-acc", tile)]
    assert census.calls == per_issue * (n_tiles + 1)
    assert_same_bits(got, tcec_reduce_tiles(x))
    assert not fault_hook_installed()


def test_backends_never_issue_mma_without_a_hook(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("tile path taken without a fault hook")

    monkeypatch.setattr(tc_backend, "mma", forbidden)
    monkeypatch.setattr(tc_backend, "tcec_mma", forbidden)
    x = np.random.default_rng(0).normal(size=(2, 9, 150, 4))
    for name in ("tc-fp16", "tcec-tf32"):
        out = get_reduction_backend(name).reduce4(x)
        assert out.shape == (2, 9, 4) and np.isfinite(out).all()


def test_fused_kernels_reject_what_the_reference_rejects():
    x = np.ones((10, 4), np.float32)
    with pytest.raises(ValueError, match="accumulate mode"):
        tc_reduce_xyze(x, accumulate="up")
    with pytest.raises(ValueError, match="accumulator format"):
        tc_reduce_xyze(x, accumulator_format="bf16")
    with pytest.raises(ValueError, match="float format"):
        tc_reduce_xyze(x, in_format="fp8")
    for fused in (tc_reduce_xyze, tcec_reduce_xyze):
        for bad in (np.ones((10, 3), np.float32), np.ones(4, np.float32)):
            with pytest.raises(ValueError, match=r"\(\.\.\., n, 4\)"):
                fused(bad)
