"""Per-cell watchdogs and structured failure records for long sweeps.

A multi-hour E50 sweep must not die because one (case, back-end) cell
hangs or raises: the campaign wraps each cell in a :class:`Watchdog`
(wall-clock and evaluation budget) and converts terminal errors into
:class:`CellFailure` records instead of propagating them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["Watchdog", "WatchdogTimeout", "CellFailure"]


class WatchdogTimeout(RuntimeError):
    """A cell exceeded its wall-clock or evaluation watchdog limit."""

    def __init__(self, message: str, *, elapsed: float = 0.0,
                 evals: int = 0) -> None:
        super().__init__(message)
        self.elapsed = elapsed
        self.evals = evals


class Watchdog:
    """Abort a cell that runs past its wall-clock or evaluation budget.

    The search loop calls :meth:`check` once per generation (see
    :meth:`repro.search.cohort.CohortLGA.run`'s ``on_generation``);
    exceeding a limit raises :class:`WatchdogTimeout`, which the campaign
    records as a :class:`CellFailure` and moves on.

    Parameters
    ----------
    wall_seconds:
        Wall-clock limit (``None`` disables).
    max_evals:
        Evaluation-count limit across the cell (``None`` disables); a
        backstop against mis-configured or runaway budgets.
    clock:
        Injectable monotonic clock (tests).
    """

    def __init__(self, wall_seconds: float | None = None,
                 max_evals: int | None = None,
                 clock=time.monotonic) -> None:
        self.wall_seconds = wall_seconds
        self.max_evals = max_evals
        self._clock = clock
        self._start = clock()

    def check(self, generations: int, evals: int) -> None:
        """Raise :class:`WatchdogTimeout` when a limit is exceeded."""
        elapsed = self._clock() - self._start
        if self.wall_seconds is not None and elapsed > self.wall_seconds:
            raise WatchdogTimeout(
                f"cell exceeded wall-clock watchdog "
                f"({elapsed:.1f}s > {self.wall_seconds:.1f}s at generation "
                f"{generations})", elapsed=elapsed, evals=evals)
        if self.max_evals is not None and evals > self.max_evals:
            raise WatchdogTimeout(
                f"cell exceeded evaluation watchdog ({evals} > "
                f"{self.max_evals} evals at generation {generations})",
                elapsed=elapsed, evals=evals)


@dataclass(frozen=True)
class CellFailure:
    """Structured record of a campaign cell that could not complete."""

    case: str
    backend: str
    error_type: str
    message: str
    #: attempts consumed (1 = failed on first try with no retries left)
    attempts: int
    #: watchdog aborts are not retried; transient errors are
    retryable: bool = True
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        d = dict(self.__dict__)
        d["extra"] = dict(self.extra)
        return d
