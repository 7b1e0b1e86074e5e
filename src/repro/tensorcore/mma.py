"""The simulated 16x16x16 matrix multiply-accumulate unit.

Hardware model (Ootomo & Yokota, 2022, Sec. 3): inside one ``mma`` the K=16
products are formed exactly (each product of two <=11-bit-mantissa operands
fits FP32, and the 16-term sum is carried in wide internal adders), and the
rounding happens when the sum is added to the FP32 accumulator ``C`` — with
**round-toward-zero**.  We therefore compute

    D = round_rz( C_64 + sum_k A'[m,k] * B'[k,n] )      (per element)

with the exact inner sum taken in float64 (16 products of 22-bit-significand
values are exact in float64) and a single directed rounding into float32.

All entry points accept leading batch dimensions so a population of thread
blocks can issue their MMAs in one vectorised call; numerics are identical
to issuing them one by one.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.fpemu.formats import FloatFormat, quantize
from repro.fpemu.rounding import round_f64_to_f32_rn, round_f64_to_f32_rz

__all__ = ["MMA_M", "MMA_N", "MMA_K", "mma", "tc_product", "fault_hook",
           "set_fault_hook", "apply_fault_hook", "fault_hook_installed"]

#: Fragment shape of the WMMA 16x16x16 tile the paper's kernels use.
MMA_M = 16
MMA_N = 16
MMA_K = 16

_ROUNDERS = {
    "rz": round_f64_to_f32_rz,
    "rn": round_f64_to_f32_rn,
}

# ----------------------------------------------------------------------
# fault-injection hook (repro.robustness.inject)
#
# When set, the hook sees every accumulator tile the simulated Tensor Core
# produces — ``hook(tile, site) -> tile`` — and may return a corrupted
# copy.  ``None`` (the default) costs one pointer check per mma issue.

_FAULT_HOOK = None


def set_fault_hook(hook) -> object:
    """Install a tile fault hook; returns the previous one (for restore)."""
    global _FAULT_HOOK
    prev = _FAULT_HOOK
    _FAULT_HOOK = hook
    return prev


@contextmanager
def fault_hook(hook):
    """Scoped installation of a tile fault hook (always restored)."""
    prev = set_fault_hook(hook)
    try:
        yield hook
    finally:
        set_fault_hook(prev)


def fault_hook_installed() -> bool:
    """True while a tile fault hook is installed.

    Kernels that skip full accumulator tiles (the fused reductions of
    :mod:`repro.reduction.tc_backend`) check this and fall back to
    issuing every tile, so the hook sees each one.
    """
    return _FAULT_HOOK is not None


def apply_fault_hook(tile: np.ndarray, site: str) -> np.ndarray:
    """Run the installed hook (if any) over an accumulator tile."""
    if _FAULT_HOOK is None:
        return tile
    return _FAULT_HOOK(tile, site)


def _check_tile(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
    if a.shape[-2:] != (MMA_M, MMA_K):
        raise ValueError(f"A tile must be (...,{MMA_M},{MMA_K}), got {a.shape}")
    if b.shape[-2:] != (MMA_K, MMA_N):
        raise ValueError(f"B tile must be (...,{MMA_K},{MMA_N}), got {b.shape}")
    if c.shape[-2:] != (MMA_M, MMA_N):
        raise ValueError(f"C tile must be (...,{MMA_M},{MMA_N}), got {c.shape}")


def mma(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    *,
    in_format: str | FloatFormat = "fp16",
    accumulate: str = "rz",
    quantize_inputs: bool = True,
    accumulator_format: str = "fp32",
) -> np.ndarray:
    """One Tensor Core ``D = A x B + C`` over 16x16x16 tiles.

    Parameters
    ----------
    a, b, c:
        Tiles of shape ``(..., 16, 16)``; leading dimensions are batched.
    in_format:
        Operand format the hardware would load (``"fp16"``, ``"tf32"``,
        ``"bf16"``).  The FP32 accumulator ``c`` is never quantised.
    accumulate:
        ``"rz"`` reproduces hardware round-toward-zero accumulation;
        ``"rn"`` models the hypothetical round-to-nearest accumulator used
        by the rounding ablation.
    quantize_inputs:
        Set False when the caller guarantees ``a``/``b`` already lie on the
        format lattice (avoids double conversion in the EC path).
    accumulator_format:
        ``"fp32"`` (default) or ``"fp16"``.  Schieffer & Peng's kernel
        declares ``frag_V`` as ``half`` (the paper's Listing 1, bottom), so
        their reduction accumulates in FP16 — overflowing at 65504 and
        losing absolute precision as the running sum grows.  ``"fp16"``
        reproduces that: the accumulator is quantised to the FP16 lattice
        after every issue.

    Returns
    -------
    float32 array of shape broadcast(``a``, ``b``, ``c``) x (16, 16).
    """
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    c = np.asarray(c, dtype=np.float32)
    _check_tile(a, b, c)
    if quantize_inputs:
        a = quantize(a, in_format)
        b = quantize(b, in_format)
    try:
        rounder = _ROUNDERS[accumulate]
    except KeyError:
        raise ValueError(
            f"unknown accumulate mode {accumulate!r}; expected 'rz' or 'rn'"
        ) from None
    if accumulator_format not in ("fp32", "fp16"):
        raise ValueError(f"unknown accumulator format {accumulator_format!r}")
    # exact inner product in float64, single directed rounding into FP32;
    # inf operands (FP16 overflow) legitimately produce inf/NaN like hardware
    with np.errstate(invalid="ignore"):
        prod = np.matmul(a.astype(np.float64), b.astype(np.float64))
        out = rounder(prod + c.astype(np.float64))
        if accumulator_format == "fp16":
            out = quantize(out, "fp16", mode="rz")
        return apply_fault_hook(out, "mma-accumulator")


def tc_product(
    a: np.ndarray,
    b: np.ndarray,
    *,
    in_format: str | FloatFormat = "fp16",
    accumulate: str = "rz",
    quantize_inputs: bool = True,
) -> np.ndarray:
    """Tensor Core product with a zero accumulator (``D = A x B``).

    The building block of the error-correction scheme, where every partial
    product is computed with ``C = 0`` on the Tensor Core and all running
    accumulation happens outside in FP32/RN.
    """
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    zero_shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (MMA_M, MMA_N)
    c = np.zeros(zero_shape, dtype=np.float32)
    return mma(a, b, c, in_format=in_format, accumulate=accumulate,
               quantize_inputs=quantize_inputs)
