"""Error-corrected Tensor Core GEMM (Ootomo & Yokota / WMMA-Extension).

The scheme the paper adopts ("TCEC") recovers FP32-grade accuracy from
reduced-precision Tensor Core GEMMs via three mechanisms:

1. **Operand splitting** — each FP32 operand is split into a format-precision
   head and an up-scaled residual (``repro.fpemu.split``), and the product is
   expanded into correction terms::

       A x B ~= Ah x Bh + (Ah x Bl + Al x Bh) / S        (Al x Bl dropped)

2. **External accumulation** — every Tensor Core issue uses ``C = 0`` so the
   hardware's round-toward-zero accumulator touches only one partial
   product; the running sum (including the caller's accumulator) is carried
   on FP32 SIMT cores with round-to-nearest.

3. **Underflow avoidance / term elimination** — residuals are pre-scaled by
   ``2**(mantissa+1)``, and the mixed terms can be dropped
   (:attr:`TcecConfig.correction_terms`, the term-elimination ablation).

:func:`tcec_mma` is the drop-in counterpart of :func:`repro.tensorcore.mma.mma`
with identical tile/batching semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fpemu.formats import FloatFormat, get_format
from repro.fpemu.rounding import round_f64_to_f32_rn
from repro.fpemu.split import split_operand
from repro.tensorcore.mma import apply_fault_hook, tc_product

__all__ = ["TcecConfig", "tcec_mma", "count_tc_issues"]


@dataclass(frozen=True)
class TcecConfig:
    """Configuration of the error-correction scheme.

    Attributes
    ----------
    in_format:
        Tensor Core operand format; the paper uses ``"tf32"`` (Listing 1),
        the FP16 variant is exercised by the format ablation.
    scale_residual:
        Apply the Ootomo–Yokota residual up-scaling (underflow avoidance).
    correction_terms:
        ``2`` keeps both mixed terms (WMMA-Extension default), ``1`` keeps
        only ``Ah x Bl`` and ``0`` degenerates to an uncorrected product —
        the term-elimination ablation sweeps this.
    """

    in_format: str = "tf32"
    scale_residual: bool = True
    correction_terms: int = 2

    def __post_init__(self) -> None:
        if self.correction_terms not in (0, 1, 2):
            raise ValueError("correction_terms must be 0, 1 or 2")

    @property
    def fmt(self) -> FloatFormat:
        return get_format(self.in_format)


def count_tc_issues(config: TcecConfig) -> int:
    """Number of Tensor Core issues one tcec tile-MMA costs (for the timing
    model): the head product plus one per retained correction term."""
    return 1 + config.correction_terms


def tcec_mma(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    config: TcecConfig | None = None,
) -> np.ndarray:
    """Error-corrected ``D = A x B + C`` over 16x16x16 tiles.

    Tile and batching semantics match :func:`repro.tensorcore.mma.mma`; the
    accumulator ``c`` is combined outside the Tensor Core in FP32/RN, which
    is the behavioural difference Figure 2 of the paper illustrates.
    """
    config = config or TcecConfig()
    fmt = config.fmt
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    c = np.asarray(c, dtype=np.float32)

    a_hi, a_lo, s_a = split_operand(a, fmt, scale_residual=config.scale_residual)
    b_hi, b_lo, s_b = split_operand(b, fmt, scale_residual=config.scale_residual)

    def rn_add(x32: np.ndarray, y32: np.ndarray) -> np.ndarray:
        # one FP32 round-to-nearest add on the SIMT cores
        return round_f64_to_f32_rn(x32.astype(np.float64) + y32.astype(np.float64))

    acc = tc_product(a_hi, b_hi, in_format=fmt, quantize_inputs=False)

    n_terms = config.correction_terms
    if n_terms >= 1:
        t = tc_product(a_hi, b_lo, in_format=fmt, quantize_inputs=False)
        # the 1/S scale is a power of two -> exact FP32 multiply
        acc = rn_add(acc, (t / np.float32(s_b)).astype(np.float32))
    if n_terms >= 2:
        t = tc_product(a_lo, b_hi, in_format=fmt, quantize_inputs=False)
        acc = rn_add(acc, (t / np.float32(s_a)).astype(np.float32))

    # the external FP32/RN accumulator lives in SIMT registers — a distinct
    # fault-injection site from the Tensor Core accumulator fragments
    return apply_fault_hook(rn_add(acc, c), "tcec-simt-acc")
