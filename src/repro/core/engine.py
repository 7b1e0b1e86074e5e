"""DockingEngine: run docking experiments and collect the paper's metrics.

Typical use::

    from repro.core import DockingEngine, DockingConfig
    from repro.testcases import get_test_case

    engine = DockingEngine(get_test_case("7cpa"),
                           DockingConfig(backend="tcec-tf32", device="A100",
                                         block_size=64))
    result = engine.dock(n_runs=20, seed=7)
    print(result.best_score, "@", result.rmsd_of_best, "Å")
    print(result.us_per_eval, "µs/eval")

The engine runs the LGA numerically (so back-end precision effects are
real) and prices the execution with the device cost model (so runtimes and
speedups follow the simulated hardware).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.runtime import RuntimeModel
from repro.analysis.success import RunOutcome, evaluate_run
from repro.core.config import DockingConfig
from repro.docking.pose import calc_coords
from repro.docking.rmsd import rmsd
from repro.obs import get_tracer
from repro.reduction.api import ReductionBackend, get_reduction_backend
from repro.robustness import FaultLedger, GuardedReduction
from repro.robustness.inject import FaultInjector, InjectingReduction
from repro.search.cohort import CohortLGA
from repro.search.lga import LGAResult
from repro.testcases.generator import TestCase

__all__ = ["DockingEngine", "DockingResult", "build_backend", "dock_cohort"]


def build_backend(cfg: DockingConfig) -> tuple[str | ReductionBackend,
                                               FaultLedger | None]:
    """Reduction back-end per config: raw, or guarded (+ injected).

    Grid-site injection (``inject_site="grid"``) corrupts the lookup
    path, not the reduction outputs, so the back-end is guarded but not
    wrapped in an :class:`InjectingReduction`.
    """
    if cfg.fault_policy is None:
        return cfg.backend, None
    inner = get_reduction_backend(cfg.backend)
    if cfg.inject_rate > 0 and cfg.inject_site == "reduce4":
        inner = InjectingReduction(
            inner, FaultInjector(cfg.inject_rate, mode=cfg.inject_mode,
                                 seed=cfg.inject_seed))
    ledger = FaultLedger()
    return GuardedReduction(inner, policy=cfg.fault_policy,
                            ledger=ledger), ledger


def _runtime_model(case: TestCase, cfg: DockingConfig,
                   n_runs: int) -> RuntimeModel:
    """Cost model for ``n_runs`` LGA runs of ``case``."""
    n_blocks = n_runs * cfg.lga.pop_size
    return RuntimeModel(cfg.device, cfg.block_size, cfg.cost_backend,
                        case.workload(n_blocks))


def _eval_mix(cfg: DockingConfig, total_evals: int) -> tuple[int, int]:
    """Split ``total_evals`` into (LS, GA) evals by the per-generation mix:
    ``ls_rate * pop`` individuals refined for ``ls_iters`` evals each, plus
    ``pop`` GA evals."""
    ls_per_gen = int(round(cfg.lga.ls_rate * cfg.lga.pop_size)) \
        * cfg.lga.ls_iters
    per_gen = ls_per_gen + cfg.lga.pop_size
    ls_share = ls_per_gen / per_gen if per_gen else 0.0
    ls_evals = int(total_evals * ls_share)
    return ls_evals, total_evals - ls_evals


def _assemble_result(case: TestCase, cfg: DockingConfig,
                     runs: list[LGAResult],
                     ledger: FaultLedger | None = None) -> DockingResult:
    """Turn finished LGA runs into a :class:`DockingResult` (outcome
    evaluation, final-pose RMSDs, runtime pricing)."""
    tracer = get_tracer()
    with tracer.span("engine.finalize", case=case.name):
        outcomes = [evaluate_run(r, case, cfg.criteria) for r in runs]
        final_coords = calc_coords(
            case.ligand, np.stack([r.best_genotype for r in runs]))
        final_rmsds = [float(x) for x in
                       rmsd(final_coords, case.native_coords)]

    total_evals = sum(r.evals_used for r in runs)
    # runs advance in lock step: the slowest (an AutoStop run may stop
    # early) sets the priced generation count
    generations = max(r.generations for r in runs)
    model = _runtime_model(case, cfg, len(runs))
    runtime = model.runtime_seconds(*_eval_mix(cfg, total_evals),
                                    generations)
    return DockingResult(
        case_name=case.name,
        config=cfg,
        runs=runs,
        outcomes=outcomes,
        total_evals=total_evals,
        generations=generations,
        runtime_seconds=runtime,
        final_rmsds=final_rmsds,
        fault_stats=ledger.summary() if ledger is not None else None,
    )


def dock_cohort(cases: list[TestCase],
                config: DockingConfig | None = None,
                n_runs: int = 20,
                seeds=0,
                on_generation=None) -> list[DockingResult]:
    """Dock a cohort of ligands through one lock-step packed LGA: the
    one docking path.

    Each ligand's result is bit-identical to
    ``DockingEngine(case, config).dock(n_runs, seed=seeds[i])`` — a solo
    dock is a cohort of one, and the cohort only widens the batch the
    scoring/gradient/reduce4 kernels see (see :mod:`repro.docking.cohort`
    for the packing contract).  ``seeds`` is one seed (broadcast to every
    member) or a per-ligand sequence.  Every call opens one
    ``engine.dock`` span whose ``cohort`` attribute is ``len(cases)``.

    Fault handling runs *in* the packed path: the cohort shares one
    :class:`FaultLedger` (each member's ``fault_stats`` reports the
    cohort-aggregate counts, with per-lane attribution in ``by_lane``),
    injection corrupts the batched reduce4 stream or the cohort
    grid-gather per ``config.inject_site`` — the injector stride walks the
    *batched* call sequence, so the injected fault set depends on the
    cohort's composition — and a member whose energies/gradients go
    non-finite (or whose guard trips under ``raise``) is quarantined: its
    result carries the best-so-far poses plus a ``quarantine`` record,
    while every surviving member stays bit-identical to a cohort that
    never contained it.
    """
    cfg = config or DockingConfig()
    C = len(cases)
    if C == 0:
        return []
    tracer = get_tracer()
    span = tracer.span("engine.dock", cohort=C, backend=cfg.backend,
                       device=cfg.device, n_runs=n_runs)
    with span:
        backend, ledger = build_backend(cfg)
        with tracer.span("engine.search", method=cfg.lga.ls_method,
                         autostop=cfg.lga.autostop, cohort=C):
            runner = CohortLGA([case.scoring() for case in cases], backend,
                               cfg.lga, seeds=seeds)
            if cfg.inject_rate > 0 and cfg.inject_site == "grid":
                runner.cohort.pack.grid_injector = FaultInjector(
                    cfg.inject_rate, mode=cfg.inject_mode,
                    seed=cfg.inject_seed)
            all_runs = runner.run(n_runs, on_generation=on_generation)
        results = [_assemble_result(case, cfg, runs, ledger)
                   for case, runs in zip(cases, all_runs)]
        for lane, q in runner.quarantines.items():
            results[lane].quarantine = q.to_dict()
        span.set(total_evals=sum(r.total_evals for r in results),
                 quarantined=sum(r.quarantine is not None
                                 for r in results))
    return results


@dataclass
class DockingResult:
    """Outcome of one docking experiment (one case, ``n_runs`` LGA runs)."""

    case_name: str
    config: DockingConfig
    runs: list[LGAResult]
    outcomes: list[RunOutcome]
    #: actual score evaluations summed over runs (N_score-evals^actual)
    total_evals: int
    generations: int
    #: deterministic simulated docking runtime [s]
    runtime_seconds: float
    #: RMSD of each run's final best pose against the native pose [Å]
    final_rmsds: list[float] = field(default_factory=list)
    #: fault-ledger summary when the run was guarded (config.fault_policy)
    fault_stats: dict | None = None
    #: :class:`~repro.robustness.LaneQuarantine` record (as a dict) when
    #: the lock-step search froze this ligand (non-finite energies, or a
    #: guard trip under the ``raise`` policy); ``None`` when healthy
    quarantine: dict | None = None

    @property
    def best_score(self) -> float:
        """Best score over all runs [kcal/mol]."""
        return min(r.best_score for r in self.runs)

    @property
    def _best_run_index(self) -> int:
        return int(np.argmin([r.best_score for r in self.runs]))

    @property
    def rmsd_of_best(self) -> float:
        """RMSD of the best-scoring pose (Table 3's 'best score @RMSD')."""
        return self.final_rmsds[self._best_run_index]

    @property
    def best_rmsd(self) -> float:
        """Lowest RMSD over all runs' final best poses."""
        return min(self.final_rmsds)

    @property
    def score_of_best_rmsd(self) -> float:
        """Score of the pose with the lowest RMSD ('best RMSD @score')."""
        i = int(np.argmin(self.final_rmsds))
        return self.runs[i].best_score

    @property
    def us_per_eval(self) -> float:
        """The paper's primary performance metric [µs/eval].

        ``nan`` when no evaluations ran (e.g. a zero-budget dry run) —
        there is no meaningful per-eval cost to report.
        """
        if self.total_evals == 0:
            return float("nan")
        return self.runtime_seconds * 1e6 / self.total_evals

    # ------------------------------------------------------------------
    # JSON round-trip (service manifests, RPC payloads)

    def to_dict(self, include_history: bool = True) -> dict:
        """JSON-ready dict; round-trips through :meth:`from_dict`.

        ``include_history=False`` drops the per-run improvement traces —
        virtual-screen manifests only need the final poses and metrics.
        """
        return {
            "case_name": self.case_name,
            "config": self.config.to_dict(),
            "runs": [r.to_dict(include_history=include_history)
                     for r in self.runs],
            "outcomes": [o.to_dict() for o in self.outcomes],
            "total_evals": int(self.total_evals),
            "generations": int(self.generations),
            "runtime_seconds": float(self.runtime_seconds),
            "final_rmsds": [float(x) for x in self.final_rmsds],
            "fault_stats": self.fault_stats,
            "quarantine": self.quarantine,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DockingResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            case_name=d["case_name"],
            config=DockingConfig.from_dict(d["config"]),
            runs=[LGAResult.from_dict(r) for r in d["runs"]],
            outcomes=[RunOutcome.from_dict(o) for o in d["outcomes"]],
            total_evals=int(d["total_evals"]),
            generations=int(d["generations"]),
            runtime_seconds=float(d["runtime_seconds"]),
            final_rmsds=[float(x) for x in d["final_rmsds"]],
            fault_stats=d.get("fault_stats"),
            quarantine=d.get("quarantine"),
        )


class DockingEngine:
    """Dock one test case under a full experiment configuration."""

    def __init__(self, case: TestCase,
                 config: DockingConfig | None = None) -> None:
        self.config = config or DockingConfig()
        self.case = case

    # ------------------------------------------------------------------

    def runtime_model(self, n_runs: int) -> RuntimeModel:
        """Cost model for ``n_runs`` LGA runs of this case."""
        return _runtime_model(self.case, self.config, n_runs)

    def dock(self, n_runs: int = 20,
             seed: int | np.random.SeedSequence = 0,
             on_generation=None) -> DockingResult:
        """Run ``n_runs`` independent LGA runs and collect all metrics.

        The dock is a cohort of one through the lock-step engine
        (:func:`dock_cohort`'s path).  ``seed`` is a plain int or a
        spawned :class:`numpy.random.SeedSequence` (the multi-process
        seeding contract is documented in :mod:`repro.core.config`).
        ``on_generation(generations, evals)`` is called after every
        lock-step generation, AutoStop docks included, so a
        :class:`repro.robustness.Watchdog` can abort a runaway job
        cleanly.  A dock whose energies go non-finite, or whose guard
        trips under ``fault_policy="raise"``, returns its best-so-far
        runs with a ``quarantine`` record instead of raising.
        """
        return dock_cohort([self.case], self.config, n_runs, seed,
                           on_generation)[0]

    def runtime_statistics(self, result: DockingResult, n_samples: int = 100,
                           seed: int = 0) -> dict:
        """Table 3's runtime statistics: min/max/avg/stddev over samples.

        Each sample re-prices the measured evaluation mix with the model's
        seeded run-to-run jitter (clock variability), mirroring the paper's
        100 execution samples.
        """
        model = self.runtime_model(len(result.runs))
        ls_evals, ga_evals = _eval_mix(self.config, result.total_evals)
        rng = np.random.default_rng(seed)
        samples = np.array([
            model.sample(ls_evals, ga_evals, result.generations, rng).seconds
            for _ in range(n_samples)])
        return {
            "min": float(samples.min()),
            "max": float(samples.max()),
            "avg": float(samples.mean()),
            "std": float(samples.std(ddof=1)),
        }

    def best_pose_coords(self, result: DockingResult) -> np.ndarray:
        """Cartesian coordinates of the overall best pose."""
        best = result.runs[result._best_run_index]
        return calc_coords(self.case.ligand, best.best_genotype)
