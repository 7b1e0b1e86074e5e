"""Numerical fault tolerance for the Tensor Core reduction pipeline.

The paper's central hazard is *silent* numerical failure: an FP16 Tensor
Core reduction does not crash when its accumulator overflows at 65504 or a
clash pose drives a contribution to ``inf`` — it quietly corrupts the
gradient and the best-pose bookkeeping (Figure 1).  This package adds the
machinery a production deployment of the kernels needs to detect, contain,
and recover from such faults:

* :class:`GuardedReduction` — wraps any
  :class:`~repro.reduction.api.ReductionBackend` and checks every
  ``reduce4`` output block for NaN / Inf / FP16-range overflow.  Faults are
  counted in a :class:`FaultLedger`; the ``degrade`` policy re-reduces the
  offending blocks with the exact FP32 SIMT backend (a per-block hardware
  fallback), ``raise`` turns silent corruption into a
  :class:`NumericalFaultError`, and ``ignore`` merely audits.
* :mod:`repro.robustness.inject` — a deterministic fault-injection harness
  (bit-flips, NaN, FP16 overflow) that corrupts MMA accumulator tiles,
  reduction outputs, or gathered grid-map corner values, used to prove end to end that the
  detectors fire and that degraded runs recover reference accuracy.
* :class:`Watchdog` / :class:`CellFailure` — per-cell wall-clock and
  evaluation watchdogs plus the structured failure records that make long
  :class:`~repro.analysis.campaign.E50Campaign` sweeps resumable instead of
  fragile.
"""

from repro.robustness.faults import (
    FP16_MAX,
    FaultLedger,
    LaneQuarantine,
    NumericalFaultError,
    fault_mask,
)
from repro.robustness.guarded import POLICIES, GuardedReduction
from repro.robustness.inject import FaultInjector, InjectingReduction
from repro.robustness.watchdog import CellFailure, Watchdog, WatchdogTimeout

__all__ = [
    "FP16_MAX",
    "FaultLedger",
    "LaneQuarantine",
    "NumericalFaultError",
    "fault_mask",
    "POLICIES",
    "GuardedReduction",
    "FaultInjector",
    "InjectingReduction",
    "CellFailure",
    "Watchdog",
    "WatchdogTimeout",
]
