"""Reduced-precision floating-point formats as quantisation of FP32.

A Tensor Core operand format is described by its exponent / mantissa widths.
Quantising an FP32 array to such a format keeps the value on the format's
representable lattice while the storage dtype stays ``float32`` — exactly how
TF32 behaves in hardware (19 significant bits stored in a 32-bit register),
and numerically equivalent for FP16/BF16 as every FP16/BF16 value is exactly
representable in FP32.

Rounding mode for the FP32 -> format conversion is round-to-nearest
(ties-away, matching the ``cvt.rna.tf32.f32`` conversion NVIDIA documents for
TF32) by default; truncation (RZ) is available for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FloatFormat",
    "FP16",
    "BF16",
    "TF32",
    "FP32",
    "get_format",
    "quantize",
    "to_fp16",
    "to_bf16",
    "to_tf32",
]


@dataclass(frozen=True)
class FloatFormat:
    """Static description of a floating-point operand format.

    Attributes
    ----------
    name:
        Canonical lower-case name (``"fp16"``, ``"tf32"``, ...).
    exponent_bits:
        Width of the biased exponent field.
    mantissa_bits:
        Number of explicitly stored fraction bits (excludes the hidden bit).
    max_value:
        Largest finite representable magnitude.
    min_normal:
        Smallest positive normal magnitude.
    """

    name: str
    exponent_bits: int
    mantissa_bits: int
    max_value: float
    min_normal: float

    @property
    def machine_epsilon(self) -> float:
        """Unit roundoff for round-to-nearest conversion into this format."""
        return 2.0 ** -(self.mantissa_bits + 1)

    @property
    def split_scale(self) -> float:
        """Residual up-scaling factor used by two-term operand splitting.

        Chosen as ``2**(mantissa_bits + 1)`` following Ootomo & Yokota so the
        residual occupies the format's full mantissa.
        """
        return float(2 ** (self.mantissa_bits + 1))


FP16 = FloatFormat("fp16", exponent_bits=5, mantissa_bits=10,
                   max_value=65504.0, min_normal=2.0 ** -14)
BF16 = FloatFormat("bf16", exponent_bits=8, mantissa_bits=7,
                   max_value=float(np.finfo(np.float32).max),
                   min_normal=2.0 ** -126)
TF32 = FloatFormat("tf32", exponent_bits=8, mantissa_bits=10,
                   max_value=float(np.finfo(np.float32).max),
                   min_normal=2.0 ** -126)
FP32 = FloatFormat("fp32", exponent_bits=8, mantissa_bits=23,
                   max_value=float(np.finfo(np.float32).max),
                   min_normal=2.0 ** -126)

_FORMATS = {f.name: f for f in (FP16, BF16, TF32, FP32)}


def get_format(name: str | FloatFormat) -> FloatFormat:
    """Look up a format by name; passes :class:`FloatFormat` through."""
    if isinstance(name, FloatFormat):
        return name
    try:
        return _FORMATS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown float format {name!r}; expected one of {sorted(_FORMATS)}"
        ) from None


def _round_fp32_mantissa(x: np.ndarray, drop_bits: int, mode: str) -> np.ndarray:
    """Round the low ``drop_bits`` mantissa bits of FP32 values away.

    Operates on the raw IEEE-754 encoding, so exponent carries from mantissa
    rounding are handled for free.  NaN/Inf are preserved.
    """
    x32 = np.ascontiguousarray(x, dtype=np.float32)
    if mode == "rn":
        # round-half-away: add half of the dropped ULP, then truncate
        bits = x32.view(np.uint32) + np.uint32(1 << (drop_bits - 1))
    elif mode == "rz":
        bits = x32.view(np.uint32).copy()
    else:
        raise ValueError(f"unknown rounding mode {mode!r}")
    bits &= np.uint32(0xFFFFFFFF) << np.uint32(drop_bits)
    out = bits.view(np.float32)
    # rounding may have carried a max-exponent value into the Inf encoding;
    # that is correct behaviour (overflow to Inf), but NaN payloads must not
    # be disturbed.
    np.copyto(out, x32, where=~np.isfinite(x32))
    return out


def to_tf32(x: np.ndarray, mode: str = "rn") -> np.ndarray:
    """Quantise FP32 values to the TF32 lattice (8-bit exp, 10-bit mantissa)."""
    return _round_fp32_mantissa(np.asarray(x), drop_bits=13, mode=mode)


def to_bf16(x: np.ndarray, mode: str = "rn") -> np.ndarray:
    """Quantise FP32 values to the BF16 lattice (8-bit exp, 7-bit mantissa)."""
    return _round_fp32_mantissa(np.asarray(x), drop_bits=16, mode=mode)


def to_fp16(x: np.ndarray, mode: str = "rn") -> np.ndarray:
    """Quantise FP32 values to FP16 (5-bit exp, 10-bit mantissa).

    Out-of-range magnitudes saturate to ``±inf`` exactly as the hardware
    conversion does; subnormal flushing follows IEEE (NumPy's float16
    conversion keeps subnormals, matching ``cvt.rn.f16.f32``).
    """
    x32 = np.asarray(x, dtype=np.float32)
    if mode == "rn":
        with np.errstate(over="ignore"):
            return x32.astype(np.float16).astype(np.float32)
    if mode == "rz":
        with np.errstate(over="ignore"):
            y = x32.astype(np.float16).astype(np.float32)
        # nudge toward zero where nearest-rounding moved away from zero
        grew = np.isfinite(x32) & (np.abs(y) > np.abs(x32))
        if np.any(grew):
            y = y.copy()
            y16 = y.astype(np.float16)
            y16[grew] = np.nextafter(y16[grew], np.float16(0.0))
            y = y16.astype(np.float32)
        return y
    raise ValueError(f"unknown rounding mode {mode!r}")


def quantize(x: np.ndarray, fmt: str | FloatFormat, mode: str = "rn") -> np.ndarray:
    """Quantise ``x`` to the representable lattice of ``fmt``.

    Returns a ``float32`` array whose values are exactly representable in the
    requested format.
    """
    fmt = get_format(fmt)
    if fmt.name == "fp32":
        return np.asarray(x, dtype=np.float32)
    if fmt.name == "fp16":
        return to_fp16(x, mode=mode)
    if fmt.name == "bf16":
        return to_bf16(x, mode=mode)
    if fmt.name == "tf32":
        return to_tf32(x, mode=mode)
    raise AssertionError(f"unhandled format {fmt.name}")
