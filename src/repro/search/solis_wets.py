"""Solis-Wets local search — AutoDock-GPU's derivative-free alternative.

Included as the extension feature the paper mentions among AutoDock-GPU's
"alternative LS methods": random-walk minimisation with adaptive step
variance (Solis & Wets, 1981).  It performs no gradient reductions, so its
behaviour is independent of the reduction back-end — the ablation benchmark
uses it to confirm that the Tensor Core accuracy effects enter exclusively
through ADADELTA's gradient kernel.  The lock-step implementation is
:class:`~repro.search.cohort.CohortSolisWets`; this module holds its
hyper-parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SolisWetsConfig"]


@dataclass(frozen=True)
class SolisWetsConfig:
    """Solis-Wets hyper-parameters (AutoDock-GPU defaults)."""

    max_iters: int = 300
    rho_init: float = 1.0        # initial step scale
    rho_lower: float = 0.01      # termination scale
    expansion: float = 2.0
    contraction: float = 0.5
    success_limit: int = 4
    failure_limit: int = 4
