"""Budgets and per-run outcome of the Lamarckian Genetic Algorithm
(Algorithm 1).

One LGA run is a population of individuals evolved by the GA phase and
refined by the local-search phase (Lamarckian: refined genotypes are
written back into the population), until either the score-evaluation
budget (``N_score-evals^MAX``) or the generation budget (``N_gens^MAX``)
is exhausted — or AutoStop sees its population-best trajectory converge.
The lock-step engine that executes runs is
:class:`~repro.search.cohort.CohortLGA`.

Every improvement of the run's best score is recorded with the evaluation
count at which it happened — the raw material of the E50 analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.search.adadelta import AdadeltaConfig
from repro.search.ga import GAConfig
from repro.search.solis_wets import SolisWetsConfig

__all__ = ["LGAConfig", "LGAResult"]


@dataclass(frozen=True)
class LGAConfig:
    """LGA budgets and operator settings.

    Paper defaults are ``pop_size=150``, ``max_evals=2_500_000``,
    ``max_gens=27_000``, ``ls_iters=300``; the class defaults here are the
    scaled-down values the Python reproduction uses (DESIGN.md Section 6).
    """

    pop_size: int = 30
    max_evals: int = 10_000
    max_gens: int = 200
    ls_method: str = "ad"          # "ad" (ADADELTA) or "sw" (Solis-Wets)
    ls_iters: int = 30
    ls_rate: float = 0.3           # fraction of population refined per gen
    ga: GAConfig = field(default_factory=GAConfig)
    adadelta: AdadeltaConfig | None = None
    solis_wets: SolisWetsConfig | None = None
    #: enable AutoStop convergence-based early termination (the -A flag)
    autostop: bool = False
    autostop_window: int = 10
    autostop_tolerance: float = 0.15

    def __post_init__(self) -> None:
        if self.pop_size < 2:
            raise ValueError("pop_size must be >= 2")
        if self.ls_method not in ("ad", "sw"):
            raise ValueError("ls_method must be 'ad' or 'sw'")
        if not 0.0 <= self.ls_rate <= 1.0:
            raise ValueError("ls_rate must be in [0, 1]")

    @classmethod
    def screening(cls, pop_size: int, max_evals: int,
                  ls_iters: int) -> "LGAConfig":
        """The screening budget rule (CLI ``screen`` / ``inject``, gateway
        shorthand): generations capped at ``max_evals // pop_size``, a
        quarter of the population refined per generation.  The budget is
        validated before the division, so a ``pop_size`` below 2 raises
        the constructor's ``ValueError``, never ``ZeroDivisionError``."""
        cfg = cls(pop_size=pop_size, max_evals=max_evals,
                  ls_iters=ls_iters, ls_rate=0.25)
        return replace(cfg, max_gens=max(1, max_evals // pop_size))


@dataclass
class LGAResult:
    """Outcome of one LGA run."""

    best_genotype: np.ndarray
    best_score: float
    evals_used: int
    generations: int
    #: (evals_used, score, genotype-copy) at every best-score improvement
    history: list[tuple[int, float, np.ndarray]]

    def to_dict(self, include_history: bool = True) -> dict:
        """JSON-ready dict (genotypes become plain lists).

        ``include_history=False`` drops the improvement trace — manifests
        of large virtual screens only need the final pose.
        """
        return {
            "best_genotype": [float(x) for x in self.best_genotype],
            "best_score": float(self.best_score),
            "evals_used": int(self.evals_used),
            "generations": int(self.generations),
            "history": [[int(e), float(s), [float(x) for x in g]]
                        for e, s, g in self.history] if include_history
                       else [],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LGAResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            best_genotype=np.asarray(d["best_genotype"], dtype=np.float64),
            best_score=float(d["best_score"]),
            evals_used=int(d["evals_used"]),
            generations=int(d["generations"]),
            history=[(int(e), float(s), np.asarray(g, dtype=np.float64))
                     for e, s, g in d.get("history", [])],
        )
