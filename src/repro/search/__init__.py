"""Lamarckian Genetic Algorithm search (Algorithms 1 and 3).

* :mod:`repro.search.ga` — genetic operators: tournament selection,
  two-point crossover, gaussian mutation, elitism;
* :mod:`repro.search.adadelta` — the ADADELTA local search whose gradient
  kernel contains the seven reductions the paper offloads to Tensor Cores;
* :mod:`repro.search.solis_wets` — hyper-parameters of the
  derivative-free Solis-Wets local search AutoDock-GPU also ships
  (extension feature; no reductions of interest);
* :mod:`repro.search.autostop` — AutoStop convergence termination and the
  eval-budget heuristics;
* :mod:`repro.search.lga` — LGA budgets (:class:`LGAConfig`) and the
  per-run outcome (:class:`LGAResult`);
* :mod:`repro.search.cohort` — the lock-step LGA driver over ligands x
  runs x individuals: population initialisation, GA + LS alternation,
  eval/generation budgets, AutoStop, best-pose tracking.
"""

from repro.search.adadelta import AdadeltaConfig, AdadeltaLocalSearch
from repro.search.autostop import AutoStop, heuristic_max_evals
from repro.search.cohort import CohortLGA
from repro.search.ga import GAConfig, GeneticAlgorithm
from repro.search.lga import LGAConfig, LGAResult
from repro.search.solis_wets import SolisWetsConfig

__all__ = [
    "AdadeltaConfig",
    "AdadeltaLocalSearch",
    "AutoStop",
    "CohortLGA",
    "heuristic_max_evals",
    "GAConfig",
    "GeneticAlgorithm",
    "LGAConfig",
    "LGAResult",
    "SolisWetsConfig",
]
