"""Experiment campaigns: the (cases x back-ends) sweeps behind the figures.

A campaign runs the same LGA configuration for every (test case, reduction
back-end) pair and distils the success statistics the paper's evaluation
reports.  Results serialise to plain dicts (JSON-ready) and long sweeps are
*resumable*: with a ``checkpoint`` path every completed cell is persisted
atomically, ``resume=True`` skips cells already on disk, transient cell
errors are retried with exponential backoff, and a per-cell watchdog
converts runaway cells into structured :class:`CellFailure` records instead
of killing the sweep.

Public API for custom studies (the Figure 1/3 benchmarks run their E50
cells through ``benchmarks/conftest.run_e50_experiment`` instead)::

    from repro.analysis.campaign import E50Campaign

    campaign = E50Campaign(cases=["5kao", "7cpa"],
                           backends=["baseline", "tcec-tf32"],
                           n_runs=24, max_evals=15_000)
    results = campaign.run(checkpoint="sweep.json", resume=True)
    print(campaign.to_rows(results))
    for f in campaign.failures:          # cells that never completed
        print(f.case, f.backend, f.error_type, f.message)
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.e50 import bootstrap_e50_ci, estimate_e50
from repro.analysis.success import SuccessCriteria, evaluate_run
from repro.robustness.watchdog import CellFailure, Watchdog, WatchdogTimeout
from repro.search.cohort import CohortLGA
from repro.search.lga import LGAConfig
from repro.testcases import get_test_case

__all__ = ["E50Campaign", "CampaignResult", "CellFailure"]


@dataclass(frozen=True)
class CampaignResult:
    """Success statistics of one (case, back-end) cell."""

    case: str
    backend: str
    n_runs: int
    #: largest per-run evaluation budget actually consumed (runs may
    #: terminate heterogeneously, e.g. under AutoStop or a watchdog)
    budget: int
    score_successes: int
    rmsd_successes: int
    e50_score: float
    e50_rmsd: float
    e50_score_ci: tuple[float, float]
    best_score: float
    #: mean evaluations actually consumed per run
    budget_mean: float = 0.0

    def as_dict(self) -> dict:
        d = dict(self.__dict__)
        d["e50_score_ci"] = list(self.e50_score_ci)
        return d


@dataclass
class E50Campaign:
    """A (cases x back-ends) E50 sweep with shared LGA settings.

    Parameters mirror the scaled-down reproduction defaults; pass a full
    :class:`~repro.search.lga.LGAConfig` via ``lga`` to override
    everything.

    Robustness knobs
    ----------------
    retries:
        Re-run attempts for a cell that raises a transient error (watchdog
        aborts are terminal and never retried).
    backoff:
        Base delay of the exponential backoff between attempts [s]; attempt
        ``k`` sleeps ``backoff * 2**k``.
    cell_wall_seconds / cell_max_evals:
        Per-cell watchdog limits (``None`` disables); exceeded limits
        record a :class:`CellFailure` and the sweep continues.
    """

    cases: list[str]
    backends: list[str]
    n_runs: int = 24
    max_evals: int = 15_000
    seed: int = 2025
    lga: LGAConfig | None = None
    criteria: SuccessCriteria = field(default_factory=SuccessCriteria)
    retries: int = 2
    backoff: float = 1.0
    cell_wall_seconds: float | None = None
    cell_max_evals: int | None = None
    #: structured records of cells that never completed (reset by run())
    failures: list[CellFailure] = field(default_factory=list, repr=False)

    def _config(self) -> LGAConfig:
        return self.lga or LGAConfig(
            pop_size=30, max_evals=self.max_evals, max_gens=300,
            ls_iters=100, ls_rate=0.15)

    def _watchdog(self) -> Watchdog | None:
        if self.cell_wall_seconds is None and self.cell_max_evals is None:
            return None
        return Watchdog(wall_seconds=self.cell_wall_seconds,
                        max_evals=self.cell_max_evals)

    def run_cell(self, case_name: str, backend: str) -> CampaignResult:
        """Run one (case, back-end) cell."""
        case = get_test_case(case_name)
        runner = CohortLGA([case.scoring()], backend, self._config(),
                           seeds=self.seed)
        watchdog = self._watchdog()
        [results] = runner.run(
            self.n_runs,
            on_generation=watchdog.check if watchdog is not None else None)
        outcomes = [evaluate_run(r, case, self.criteria) for r in results]
        budgets = [r.evals_used for r in results]
        t_score = [o.first_success_score for o in outcomes]
        t_rmsd = [o.first_success_rmsd for o in outcomes]
        est_s = estimate_e50(t_score, budgets)
        est_r = estimate_e50(t_rmsd, budgets)
        ci = bootstrap_e50_ci(t_score, budgets, n_boot=500, seed=self.seed)
        return CampaignResult(
            case=case_name, backend=backend, n_runs=self.n_runs,
            budget=max(budgets),
            budget_mean=sum(budgets) / len(budgets),
            score_successes=est_s.n_success,
            rmsd_successes=est_r.n_success,
            e50_score=est_s.e50, e50_rmsd=est_r.e50,
            e50_score_ci=ci,
            best_score=min(r.best_score for r in results),
        )

    # ------------------------------------------------------------------

    def _attempt_cell(self, case: str, backend: str,
                      sleep) -> CampaignResult | None:
        """Run one cell with bounded retry; record a failure on defeat."""
        for attempt in range(self.retries + 1):
            try:
                return self.run_cell(case, backend)
            except WatchdogTimeout as exc:
                # a watchdog abort is deterministic — retrying would burn
                # the same budget again; record and move on
                self.failures.append(CellFailure(
                    case=case, backend=backend,
                    error_type=type(exc).__name__, message=str(exc),
                    attempts=attempt + 1, retryable=False,
                    extra={"elapsed": exc.elapsed, "evals": exc.evals}))
                return None
            except Exception as exc:
                if attempt < self.retries:
                    sleep(self.backoff * 2 ** attempt)
                    continue
                self.failures.append(CellFailure(
                    case=case, backend=backend,
                    error_type=type(exc).__name__, message=str(exc),
                    attempts=attempt + 1, retryable=True))
                return None
        return None  # pragma: no cover - loop always returns

    def run(self, progress=None, checkpoint: str | Path | None = None,
            resume: bool = False, sleep=time.sleep) -> list[CampaignResult]:
        """Run every cell; ``progress(case, backend)`` is called per cell.

        Parameters
        ----------
        checkpoint:
            JSON path updated atomically after every completed cell, so a
            killed sweep loses at most the cell in flight.
        resume:
            Load ``checkpoint`` (if it exists) and skip cells already
            completed — only incomplete cells re-run.
        sleep:
            Injectable backoff sleep (tests pass a recorder).
        """
        self.failures = []
        out: list[CampaignResult] = []
        done: dict[tuple[str, str], CampaignResult] = {}
        if resume:
            if checkpoint is None:
                raise ValueError("resume=True requires a checkpoint path")
            if Path(checkpoint).exists():
                done = {(r.case, r.backend): r for r in self.load(checkpoint)}

        for case in self.cases:
            for backend in self.backends:
                cached = done.get((case, backend))
                if cached is not None:
                    out.append(cached)
                    continue
                if progress is not None:
                    progress(case, backend)
                result = self._attempt_cell(case, backend, sleep)
                if result is None:
                    continue
                out.append(result)
                if checkpoint is not None:
                    self.save(out, checkpoint)
        return out

    @staticmethod
    def to_rows(results: list[CampaignResult]) -> list[dict]:
        """Flat dict rows for table rendering."""
        return [r.as_dict() for r in results]

    @staticmethod
    def save(results: list[CampaignResult], path: str | Path) -> None:
        """Checkpoint results as JSON, atomically.

        The payload is written to a sibling temp file and moved into place
        with :func:`os.replace`, so a sweep killed mid-write can never
        leave a truncated or corrupt checkpoint behind.
        """
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps([r.as_dict() for r in results], indent=2))
        os.replace(tmp, path)

    @staticmethod
    def load(path: str | Path) -> list[CampaignResult]:
        """Load a checkpoint written by :meth:`save`."""
        rows = json.loads(Path(path).read_text())
        return [CampaignResult(**{**r, "e50_score_ci":
                                  tuple(r["e50_score_ci"])})
                for r in rows]
