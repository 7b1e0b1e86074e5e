"""Matrix-shaped Tensor Core reductions (batched numerical kernels).

Two variants of the Equation (1) pipeline ``W = Q x (sum_t A_t x P)``:

* :func:`tc_reduce_xyze` — Schieffer & Peng's FP16 version.  ``V`` is kept in
  the Tensor Core accumulator across batches, so every batch suffers an
  FP16 input truncation *and* a round-toward-zero accumulation; values whose
  magnitude exceeds FP16 range saturate.  This is the accuracy-degrading
  baseline of Figure 1.
* :func:`tcec_reduce_xyze` — the paper's TCEC version.  TF32 operands with
  two error-correction terms per product, and the running ``V`` accumulation
  moved outside the Tensor Core onto FP32/RN SIMT adds (Figure 2, right).

Both accept leading batch dimensions (a population of thread blocks) and are
numerically identical to issuing each block's WMMA calls one at a time
through :mod:`repro.tensorcore.wmma`.

Fused kernels and the tile reference
------------------------------------
``P`` is all ones and ``Q`` a block identity, so every column of
``A_t x P`` repeats the 16 row sums of ``A_t`` and the result reads only
column 0 of ``W``, which adds four of ``V``'s rows per lane.  The two
public functions are fused kernels built on that: they quantise (TCEC:
split) the vectors once, form each MMA product's row sums in float64 on a
compact ``(..., tiles, 4, 4)`` array, and round at exactly the points the
tile pipeline rounds — RZ into the FP32 or FP16 accumulator, and for TCEC
the correction terms and the FP32/RN accumulation across tiles.  The
products with ``Q``'s and ``P_lo``'s zero entries are kept where they show:
zero times an infinite or NaN entry is NaN.

:func:`tc_reduce_tiles` and :func:`tcec_reduce_tiles` push the full 16x16
tiles through :func:`~repro.tensorcore.mma.mma` and
:func:`~repro.tensorcore.tcec.tcec_mma` one tile at a time.  They are the
oracle the fused kernels are tested against bit for bit, and the path
taken while a tile fault hook is installed
(:func:`~repro.tensorcore.mma.fault_hook_installed`): a hook corrupts
single elements of full accumulator tiles, which row sums do not hold.
"""

from __future__ import annotations

import numpy as np

from repro.fpemu.formats import quantize
from repro.fpemu.rounding import round_f64_to_f32_rn, round_f64_to_f32_rz
from repro.fpemu.split import split_operand
from repro.reduction.matrices import (
    TILE,
    VECTORS_PER_TILE,
    build_p_matrix,
    build_q_matrix,
    pack_vectors,
    unpack_result,
)
from repro.tensorcore.mma import fault_hook_installed, mma
from repro.tensorcore.tcec import TcecConfig, tcec_mma

__all__ = ["tc_reduce_xyze", "tcec_reduce_xyze", "tc_reduce_tiles",
           "tcec_reduce_tiles"]

_P = build_p_matrix()
_Q = build_q_matrix()

_ROUNDERS = {"rz": round_f64_to_f32_rz, "rn": round_f64_to_f32_rn}


def _vectors(vectors: np.ndarray) -> np.ndarray:
    x = np.asarray(vectors, dtype=np.float32)
    if x.ndim < 2 or x.shape[-1] != 4:
        raise ValueError(f"expected (..., n, 4) vectors, got {x.shape}")
    return x


def _tile_rows(x: np.ndarray) -> np.ndarray:
    """Row sums of every packed ``A`` tile: ``(..., n, 4)`` values on a
    format lattice to ``(..., tiles, 4, 4)`` float64.

    Entry ``[t, j, i]`` is row ``4j + i`` of tile ``t`` — component ``i``
    of vectors ``64t + 4c + j``, ``c = 0..15`` — summed the way the MMA
    emulation's float64 matmul sums it: in column order, starting from
    +0, so wide-range inputs round identically in float64 and an all -0
    row gives +0 like the matmul does.  Each column is copied into one
    contiguous float64 slab, and summing the leading slab axis adds whole
    slabs in that order.  Zero padding only adds +0, so a lone tile is
    cut after its last occupied column.
    """
    lead, n = x.shape[:-2], x.shape[-2]
    n_tiles = max(1, -(-n // VECTORS_PER_TILE))
    n_cols = TILE if n_tiles > 1 else max(1, -(-n // 4))
    padded = np.zeros(lead + (n_tiles * n_cols * 4, 4), dtype=x.dtype)
    padded[..., :n, :] = x
    cols = padded.reshape(lead + (n_tiles, n_cols, 4, 4))
    slabs = np.moveaxis(cols, -3, 0).astype(np.float64, order="C")
    rows = slabs.sum(axis=0)
    rows += 0.0
    return rows


def _fold(x: np.ndarray) -> np.ndarray:
    """Column 0 of ``Q x B``, given ``B``'s column 0 as ``(..., 4, 4)``
    (entry ``[j, i]`` is row ``4j + i``): ``(..., 4)`` float64.

    Lane ``i`` adds rows ``i, i + 4, i + 8, i + 12`` from +0 in row
    order; ``Q``'s zero entries add ±0, or NaN against an infinite or NaN
    row of another lane.  Four finite float32 values cannot overflow a
    float64 sum, so a lane's sum is finite exactly when its rows are.
    """
    rows = np.moveaxis(x, -2, 0).astype(np.float64, order="C")
    w = 0.0 + rows[0]
    for row in rows[1:]:
        w += row
    bad = ~np.isfinite(w)
    if bad.any():
        w[bad.sum(axis=-1, keepdims=True) > bad] = np.nan
    return w


def _rn_add(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """One FP32 round-to-nearest add on the SIMT cores."""
    return round_f64_to_f32_rn(np.asarray(x, np.float64)
                               + np.asarray(y, np.float64))


def tc_reduce_xyze(vectors: np.ndarray, *, in_format: str = "fp16",
                   accumulate: str = "rz",
                   accumulator_format: str = "fp16") -> np.ndarray:
    """Schieffer-Peng reduction of ``(..., n, 4)`` vectors to ``(..., 4)``.

    ``V`` accumulates across 64-vector batches inside the Tensor Core
    (``mma_sync(V, A, P, V)``), compounding one rounding per batch.  Their
    kernel declares ``frag_V`` as ``half`` (paper Listing 1, bottom), so the
    default accumulator format is FP16 — running sums lose absolute
    precision as they grow and saturate beyond 65504.

    Fused kernel; bit-identical to :func:`tc_reduce_tiles`, which runs
    instead while a tile fault hook is installed.
    """
    if fault_hook_installed():
        return tc_reduce_tiles(vectors, in_format=in_format,
                               accumulate=accumulate,
                               accumulator_format=accumulator_format)
    try:
        rounder = _ROUNDERS[accumulate]
    except KeyError:
        raise ValueError(
            f"unknown accumulate mode {accumulate!r}; expected 'rz' or 'rn'"
        ) from None
    if accumulator_format not in ("fp32", "fp16"):
        raise ValueError(f"unknown accumulator format {accumulator_format!r}")

    def to_fragment(d64: np.ndarray) -> np.ndarray:
        # one MMA's rounding into the accumulator fragment
        d = rounder(d64)
        return quantize(d, "fp16", mode="rz") \
            if accumulator_format == "fp16" else d

    a = quantize(_vectors(vectors), in_format)
    with np.errstate(invalid="ignore"):
        rows = _tile_rows(a)
        v = np.zeros(rows.shape[:-3] + (4, 4), dtype=np.float32)
        for t in range(rows.shape[-3]):
            v = to_fragment(rows[..., t, :, :] + v)   # V = A_t x P + V
        return to_fragment(_fold(quantize(v, in_format)))   # W = Q x V


def tcec_reduce_xyze(vectors: np.ndarray,
                     config: TcecConfig | None = None) -> np.ndarray:
    """TCEC reduction of ``(..., n, 4)`` vectors to ``(..., 4)``.

    Every Tensor Core issue computes a single product with a zero
    accumulator; the running ``V`` is carried on simulated SIMT cores in
    FP32 round-to-nearest, then folded by an error-corrected ``Q x V``.

    Fused kernel; bit-identical to :func:`tcec_reduce_tiles`, which runs
    instead while a tile fault hook is installed.
    """
    config = config or TcecConfig()
    if fault_hook_installed():
        return tcec_reduce_tiles(vectors, config)
    fmt = config.fmt
    terms = config.correction_terms
    with np.errstate(invalid="ignore"):
        hi, lo, scale = split_operand(_vectors(vectors), fmt,
                                      scale_residual=config.scale_residual)
        # P, Q and V split with the same scale; P_lo and Q_lo are all zeros
        s = np.float32(scale)
        rows = _tile_rows(np.stack([hi, lo]))
        prod, lo_prod = round_f64_to_f32_rz(rows)    # A_hi x P_hi, A_lo x P_hi
        if terms >= 1:
            # A_hi x P_lo: +0, or NaN in a row holding inf/NaN
            prod = _rn_add(prod, np.where(np.isfinite(rows[0]), 0.0, np.nan))
        if terms >= 2:
            prod = _rn_add(prod, lo_prod / s)
        prod = _rn_add(prod, 0.0)                    # + C (zero)
        v = np.zeros(prod.shape[:-3] + (4, 4), dtype=np.float32)
        for t in range(prod.shape[-3]):
            v = _rn_add(v, prod[..., t, :, :])

        v_hi, v_lo, _ = split_operand(v, fmt,
                                      scale_residual=config.scale_residual)
        # Q_hi x V_hi, Q_hi x V_lo
        w, lo_w = round_f64_to_f32_rz(_fold(np.stack([v_hi, v_lo])))
        if terms >= 1:
            w = _rn_add(w, lo_w / s)
        if terms >= 2:
            # Q_lo x V_hi: +0, or NaN in every lane once V_hi holds inf/NaN
            finite = np.isfinite(v_hi).all(axis=(-2, -1))[..., None]
            w = _rn_add(w, np.where(finite, 0.0, np.nan))
        return _rn_add(w, 0.0)


def tc_reduce_tiles(vectors: np.ndarray, *, in_format: str = "fp16",
                    accumulate: str = "rz",
                    accumulator_format: str = "fp16") -> np.ndarray:
    """Tile-by-tile reference of :func:`tc_reduce_xyze`: one full 16x16
    :func:`~repro.tensorcore.mma.mma` per batch, then ``Q x V``."""
    tiles = pack_vectors(vectors)              # (..., n_tiles, 16, 16)
    lead = tiles.shape[:-3]
    n_tiles = tiles.shape[-3]
    v = np.zeros(lead + (TILE, TILE), dtype=np.float32)
    for t in range(n_tiles):
        v = mma(tiles[..., t, :, :], _P, v, in_format=in_format,
                accumulate=accumulate, accumulator_format=accumulator_format)
    w = mma(_Q, v, np.zeros_like(v), in_format=in_format,
            accumulate=accumulate, accumulator_format=accumulator_format)
    return unpack_result(w)


def tcec_reduce_tiles(vectors: np.ndarray,
                      config: TcecConfig | None = None) -> np.ndarray:
    """Tile-by-tile reference of :func:`tcec_reduce_xyze`: one full 16x16
    :func:`~repro.tensorcore.tcec.tcec_mma` per batch, each product added
    to ``V`` by an FP32/RN SIMT add, then ``Q x V``."""
    config = config or TcecConfig()
    tiles = pack_vectors(vectors)
    lead = tiles.shape[:-3]
    n_tiles = tiles.shape[-3]
    v = np.zeros(lead + (TILE, TILE), dtype=np.float32)
    zero = np.zeros(lead + (TILE, TILE), dtype=np.float32)
    for t in range(n_tiles):
        prod = tcec_mma(tiles[..., t, :, :], _P, zero, config)
        # external FP32/RN accumulation (one SIMT add per element)
        v = round_f64_to_f32_rn(v.astype(np.float64) + prod.astype(np.float64))
    w = tcec_mma(_Q, v, np.zeros_like(v), config)
    return unpack_result(w)
