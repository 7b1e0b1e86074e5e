"""ADADELTA local search (Algorithm 3; Zeiler 2012).

Each iteration runs the gradient kernel (Algorithm 4) — whose seven
block-level reductions go through the configured
:class:`~repro.reduction.api.ReductionBackend` — and takes the adaptive
step

    dx = - sqrt(E[dx^2] + eps) / sqrt(E[g^2] + eps) * g .

As in the AutoDock-GPU CUDA kernel, the energy used to track the best
genotype comes from the *same* fused energy+gradient pass, so a lossy
reduction back-end (FP16 Tensor Cores without error correction) perturbs
both the step direction and the best-pose bookkeeping — the mechanism
behind the paper's Figure 1 accuracy degradation.

The whole population batch is iterated together (one vectorised gradient
call per iteration), numerically identical to per-individual loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.docking.cohort import CohortGradientCalculator
from repro.obs import get_tracer

__all__ = ["AdadeltaConfig", "AdadeltaLocalSearch"]


@dataclass(frozen=True)
class AdadeltaConfig:
    """ADADELTA hyper-parameters (AutoDock-GPU defaults)."""

    max_iters: int = 300
    rho: float = 0.8
    eps: float = 1e-2

    def __post_init__(self) -> None:
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must be in (0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


class AdadeltaLocalSearch:
    """Gradient-based local search over a batch of genotypes.

    Parameters
    ----------
    gradient:
        The gradient calculator (carries the reduction back-end).
    config:
        ADADELTA hyper-parameters.
    """

    def __init__(self, gradient: CohortGradientCalculator,
                 config: AdadeltaConfig | None = None) -> None:
        self.gradient = gradient
        self.config = config or AdadeltaConfig()

    def minimize(self, genotypes: np.ndarray, max_iters: int | None = None
                 ) -> tuple[np.ndarray, np.ndarray, int]:
        """Run ADADELTA on ``(batch, glen)`` genotypes.

        Returns
        -------
        (best_genotypes, best_energies, n_evals):
            The best genotype/energy seen per individual, and the number of
            score evaluations consumed (``iters`` per individual, fused
            energy+gradient passes).
        """
        cfg = self.config
        iters = cfg.max_iters if max_iters is None else max_iters
        x = np.array(genotypes, dtype=np.float64, copy=True)
        if x.ndim != 2:
            raise ValueError("genotypes must be (batch, glen)")
        batch, glen = x.shape

        eg2 = np.zeros((batch, glen))
        edx2 = np.zeros((batch, glen))
        best_x = x.copy()
        best_e = np.full(batch, np.inf)
        evals = 0
        # audit consumer-level repairs into the run's fault ledger when the
        # reduction back-end is guarded (repro.robustness); duck-typed
        # gradient callables without a back-end simply skip the audit
        ledger = getattr(getattr(self.gradient, "backend", None),
                         "ledger", None)
        backend_name = getattr(getattr(self.gradient, "backend", None),
                               "name", "none")
        tracer = get_tracer()
        span = tracer.span("adadelta.minimize", batch=batch, iters=iters,
                           backend=backend_name)
        with span:
            best_x, best_e, evals = self._iterate(
                x, eg2, edx2, best_x, best_e, iters, batch, ledger)
            span.set(evals=evals)
        return best_x, best_e, evals

    def _iterate(self, x, eg2, edx2, best_x, best_e, iters, batch, ledger):
        """The ADADELTA loop proper (split out so the span wraps it).

        The per-iteration update is written as in-place ufunc calls over
        four preallocated scratch buffers — each step is the same
        elementwise operation on the same operands as the expression form
        ``rho*eg2 + (1-rho)*grad**2`` etc., so results stay bit-identical
        while the loop stops allocating ~8 ``(batch, glen)`` temporaries
        per iteration.
        """
        cfg = self.config
        rho, one_m_rho, eps = cfg.rho, 1.0 - cfg.rho, cfg.eps
        evals = 0
        shape = x.shape
        sq = np.empty(shape)        # grad**2 / dx**2 scratch
        num = np.empty(shape)       # edx2 + eps, then the full step factor
        den = np.empty(shape)       # eg2 + eps
        dx = np.empty(shape)
        for _ in range(iters):
            energy, grad = self.gradient(x)
            evals += batch
            # a lossy reduction back-end can return non-finite values
            # (FP16 accumulator overflow); treat them as "no information":
            # the gradient step is zeroed and the energy cannot win the
            # best-pose comparison, like the guarded CUDA kernel
            bad_grad = ~np.isfinite(grad)
            bad_energy = ~np.isfinite(energy)
            if ledger is not None:
                ledger.record_consumer_zeroed(
                    int(np.count_nonzero(bad_grad))
                    + int(np.count_nonzero(bad_energy)))
            if bad_grad.any():
                grad = np.where(bad_grad, 0.0, grad)
            if bad_energy.any():
                # -inf would hijack the best-pose bookkeeping; NaN merely
                # fails the comparison — neutralise both explicitly
                energy = np.where(bad_energy, np.inf, energy)
            improved = energy < best_e
            best_e = np.where(improved, energy, best_e)
            best_x[improved] = x[improved]

            # eg2 = rho * eg2 + (1 - rho) * grad**2
            np.square(grad, out=sq)
            np.multiply(sq, one_m_rho, out=sq)
            np.multiply(eg2, rho, out=eg2)
            np.add(eg2, sq, out=eg2)
            # dx = -sqrt((edx2 + eps) / (eg2 + eps)) * grad
            np.add(edx2, eps, out=num)
            np.add(eg2, eps, out=den)
            np.divide(num, den, out=num)
            np.sqrt(num, out=num)
            np.negative(num, out=num)
            np.multiply(num, grad, out=dx)
            # edx2 = rho * edx2 + (1 - rho) * dx**2
            np.square(dx, out=sq)
            np.multiply(sq, one_m_rho, out=sq)
            np.multiply(edx2, rho, out=edx2)
            np.add(edx2, sq, out=edx2)
            np.add(x, dx, out=x)

        return best_x, best_e, evals
