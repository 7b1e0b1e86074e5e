"""FP32 SIMT reductions — shared-memory tree and warp-shuffle butterfly.

:func:`simt_tree_reduce` reproduces the classic stride-halving tree in
shared memory: values are padded with zeros to a power of two, then
pairwise-added in FP32 round-to-nearest, ``log2`` stages deep.  This is
the reduction order the OpenCL/CUDA baselines execute, so its rounding
error is the reference the Tensor Core variants are compared against.

:func:`warp_shuffle_reduce` models AutoDock-GPU's warp-level optimisation:
each 32-lane warp reduces with a ``__shfl_down_sync`` butterfly (no shared
memory, no block barrier inside the warp), then one warp combines the
per-warp partials.  The summation *tree* is identical in shape to the
shared-memory version within a warp, but the cross-warp combine is a short
sequential chain — a subtly different FP32 rounding order, same O(eps)
accuracy class.
"""

from __future__ import annotations

import numpy as np

__all__ = ["simt_tree_reduce", "warp_shuffle_reduce", "tree_width"]

_WARP = 32


def tree_width(n: int) -> int:
    """Width of the shared-memory buffer that tree-reduces ``n`` values:
    the next power of two (``0`` for no values)."""
    return 1 << (n - 1).bit_length() if n > 0 else 0


def _tree_reduce_inplace(buf: np.ndarray) -> np.ndarray:
    """The stride-halving tree over the last axis of a float32 scratch
    buffer of :func:`tree_width` width (real values first, zeros after),
    added in place; returns the ``(...)`` sums as a view into ``buf``.

    Callers that build their operand anyway (the cohort engine's
    contribution rows) allocate it at this width and reduce it here
    directly, without :func:`simt_tree_reduce`'s copy.
    """
    size = buf.shape[-1]
    if size == 0:
        return np.zeros(buf.shape[:-1], dtype=np.float32)
    while size > 1:
        half = size // 2
        # in-place pairwise add (same FP32 adds the copy-assign form
        # performed, without the per-stage temporary)
        buf[..., :half] += buf[..., half:size]
        size = half
    return buf[..., 0]


def simt_tree_reduce(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Tree-reduce ``values`` along ``axis`` with FP32 pairwise adds.

    Matches the shared-memory stride-halving loop::

        for (s = n/2; s > 0; s >>= 1)
            if (tid < s) buf[tid] += buf[tid + s];

    Zero padding to the next power of two leaves sums unchanged.
    """
    v = np.asarray(values, dtype=np.float32)
    v = np.moveaxis(v, axis, -1)
    n = v.shape[-1]
    size = tree_width(n)
    if size != n:
        pad = np.zeros(v.shape[:-1] + (size - n,), dtype=np.float32)
        v = np.concatenate([v, pad], axis=-1)
    else:
        v = v.copy()
    return _tree_reduce_inplace(v)


def warp_shuffle_reduce(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Warp-shuffle butterfly reduction along ``axis`` in FP32.

    Lanes are grouped into 32-wide warps (zero padding); each warp folds
    with the ``offset = 16, 8, 4, 2, 1`` shuffle chain::

        for (offset = 16; offset > 0; offset >>= 1)
            v += __shfl_down_sync(mask, v, offset);

    and lane 0's partials are then summed sequentially across warps (the
    final pass a single warp performs in the CUDA kernel).
    """
    v = np.asarray(values, dtype=np.float32)
    v = np.moveaxis(v, axis, -1)
    n = v.shape[-1]
    if n == 0:
        return np.zeros(v.shape[:-1], dtype=np.float32)
    n_warps = -(-n // _WARP)
    padded = np.zeros(v.shape[:-1] + (n_warps * _WARP,), dtype=np.float32)
    padded[..., :n] = v
    lanes = padded.reshape(v.shape[:-1] + (n_warps, _WARP)).copy()
    offset = _WARP // 2
    while offset > 0:
        lanes[..., :offset] += lanes[..., offset:2 * offset]
        offset //= 2
    partials = lanes[..., 0]                     # (..., n_warps)
    acc = partials[..., 0]
    for w in range(1, n_warps):
        acc = (acc + partials[..., w]).astype(np.float32)
    return acc
