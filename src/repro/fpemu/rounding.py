"""Directed rounding of float64 intermediates into float32 results.

The simulated Tensor Core computes dot products exactly (float64 carries the
exact product of two <=11-bit-mantissa operands and their 16-term sums with
plenty of headroom) and then rounds into the FP32 accumulator.  Hardware
applies round-toward-zero (RZ) at that step; SIMT cores apply
round-to-nearest (RN).  Both directions are provided here.

The RZ implementation rounds the float64 value to float32 nearest first and
then steps one ULP toward zero whenever the magnitude grew.  The residual
double-rounding discrepancy is bounded by 2^-53 relative — five orders of
magnitude below the 2^-24 effects being modelled.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "round_f64_to_f32_rn",
    "round_f64_to_f32_rz",
    "rz_add_f32",
    "ulp_f32",
]


def round_f64_to_f32_rn(x: np.ndarray) -> np.ndarray:
    """Round float64 values to float32 with round-to-nearest-even."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.asarray(x, dtype=np.float64).astype(np.float32)


def round_f64_to_f32_rz(x: np.ndarray) -> np.ndarray:
    """Round float64 values to float32 with round-toward-zero.

    Finite inputs never produce ``inf``: magnitudes beyond the float32 range
    truncate to the largest finite float32, as RZ requires.
    """
    x64 = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        y = x64.astype(np.float32)
        # nearest rounding moved away from zero -> step one ULP back; a
        # finite input that overflowed to inf steps back to the largest
        # finite magnitude, and inf / NaN inputs never compare as grown
        grew = np.abs(y) > np.abs(x64)
    np.nextafter(y, np.float32(0.0), out=y, where=grew)
    return y


def rz_add_f32(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a + b`` where both are float32 lattices, rounded to float32 with RZ.

    This is the accumulator-add primitive of the simulated Tensor Core.
    """
    s = np.asarray(a, dtype=np.float64) + np.asarray(b, dtype=np.float64)
    return round_f64_to_f32_rz(s)


def ulp_f32(x: np.ndarray) -> np.ndarray:
    """Distance from ``|x|`` to the next representable float32 magnitude."""
    x32 = np.abs(np.asarray(x, dtype=np.float32))
    return np.nextafter(x32, np.float32(np.inf)) - x32
