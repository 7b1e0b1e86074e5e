"""SIMT GPU execution model: devices, cycle accounting, kernel cost model.

The paper's runtime results are ratios (speedups, microseconds per score
evaluation) measured on NVIDIA A100 / H100 / B200.  This subpackage replaces
the hardware with an analytic model that consumes the *same* op streams the
CUDA kernels execute:

* :mod:`repro.simt.devices` — the device catalogue with the paper's Table 2
  characteristics and derived per-cycle throughputs;
* :mod:`repro.simt.counters` — region-based cycle counters, the analogue of
  the ``clock64()`` instrumentation used to measure the Tensor Core fraction
  ``f`` (Section 5.1.1);
* :mod:`repro.simt.costmodel` — the ADADELTA kernel cost model (compute,
  barriers, reductions, memory) for baseline / TC / TCEC back-ends;
* :mod:`repro.simt.profiler` — Nsight-Compute-style derived metrics
  (operational intensity, GFLOP/s, FMA / ALU / TC utilisation; Table 6);
* :mod:`repro.simt.predictor` — host wall-time prediction for the
  serving gateway: the cost model's per-eval shape function, affine-
  calibrated against committed bench traces (``BENCH_gateway.json``).
"""

from repro.simt.counters import OpCounters, RegionClock
from repro.simt.costmodel import (
    IterationCost,
    KernelCostModel,
    KernelWorkload,
    REDUCTION_BACKENDS,
)
from repro.simt.devices import A100, B200, H100, DeviceSpec, get_device, list_devices
from repro.simt.predictor import JobShape, RuntimePredictor, shape_from_case
from repro.simt.profiler import KernelProfile, profile_kernel
from repro.simt.roofline import RooflinePoint, classify, ridge_point

__all__ = [
    "OpCounters",
    "RegionClock",
    "IterationCost",
    "KernelCostModel",
    "KernelWorkload",
    "REDUCTION_BACKENDS",
    "A100",
    "H100",
    "B200",
    "DeviceSpec",
    "get_device",
    "list_devices",
    "JobShape",
    "RuntimePredictor",
    "shape_from_case",
    "KernelProfile",
    "RooflinePoint",
    "classify",
    "ridge_point",
    "profile_kernel",
]
