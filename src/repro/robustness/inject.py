"""Deterministic fault injection for the reduction pipeline.

Reproduces the failure modes the detectors must catch — NaN poisoning,
FP16-range overflow, and radiation-style single bit-flips — at three sites:

* **reduce4 outputs** (:class:`InjectingReduction`): per-block corruption of
  the four reduced totals, the granularity the guarded kernel inspects;
* **MMA accumulator tiles** (:meth:`FaultInjector.tile_hook` installed via
  :func:`repro.tensorcore.mma.fault_hook`): corruption inside the Tensor
  Core epilogue, before the ``W`` extraction;
* **grid lookups** (:meth:`FaultInjector.corrupt_values` on the trilinear
  corner values the lock-step engine gathers, ``inject_site="grid"``),
  modelling corrupt device memory feeding InterScore/InterGradient.

Injection is *stride-deterministic*: a rate of ``r`` corrupts exactly every
``round(1/r)``-th block (or tile) the injector sees, so a run injects an
exactly reproducible — and exactly countable — fault set, independent of
timing.  Lane/element/bit choices come from a seeded generator.
"""

from __future__ import annotations

import numpy as np

from repro.reduction.api import ReductionBackend

__all__ = ["FaultInjector", "InjectingReduction",
           "build_injected_backend", "run_injection_study"]

#: the "overflow" mode writes this value: finite, but past the FP16 range,
#: and negative so a poisoned energy lane hijacks best-pose bookkeeping —
#: the silent-corruption mechanism behind the paper's Figure 1
OVERFLOW_VALUE = -98304.0

_MODES = ("nan", "inf", "overflow", "bitflip")


class FaultInjector:
    """Stride-deterministic corruption source shared by all injection sites.

    Parameters
    ----------
    rate:
        Target fault rate per block; realised as one injection every
        ``round(1/rate)`` blocks (``0`` disables injection).
    mode:
        ``"nan"`` | ``"inf"`` | ``"overflow"`` | ``"bitflip"``.
    seed:
        Seeds the lane/element/bit choices (the stride itself is exact).
    lanes:
        ``"one"`` corrupts a single randomly chosen lane of a scheduled
        block; ``"all"`` corrupts all four (a dead accumulator fragment).
    """

    def __init__(self, rate: float, mode: str = "nan", seed: int = 0,
                 lanes: str = "one") -> None:
        if rate < 0 or rate > 1:
            raise ValueError("rate must be in [0, 1]")
        if mode not in _MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {_MODES}")
        if lanes not in ("one", "all"):
            raise ValueError("lanes must be 'one' or 'all'")
        self.rate = rate
        self.mode = mode
        self.seed = seed
        self.lanes = lanes
        self.period = int(round(1.0 / rate)) if rate > 0 else 0
        self.rng = np.random.default_rng(seed)
        #: blocks/tiles inspected so far
        self.n_seen = 0
        #: faults actually written
        self.n_injected = 0

    def reset(self) -> None:
        """Restart the deterministic schedule (same seed, same faults)."""
        self.rng = np.random.default_rng(self.seed)
        self.n_seen = 0
        self.n_injected = 0

    # ------------------------------------------------------------------

    def _value(self, current: np.float32) -> np.float32:
        if self.mode == "nan":
            return np.float32(np.nan)
        if self.mode == "inf":
            return np.float32(-np.inf if self.rng.integers(2) else np.inf)
        if self.mode == "overflow":
            return np.float32(OVERFLOW_VALUE)
        # bitflip: flip one uniformly chosen bit of the IEEE-754 encoding
        bit = int(self.rng.integers(32))
        word = np.float32(current).view(np.uint32)
        return (word ^ np.uint32(1 << bit)).view(np.float32)

    def _due(self, n_new: int) -> np.ndarray:
        """Indices (into the new batch) scheduled for corruption."""
        if self.period == 0:
            self.n_seen += n_new
            return np.empty(0, dtype=np.intp)
        start = self.n_seen
        first = (-start - 1) % self.period           # next k with (start+k+1)%p==0
        idx = np.arange(first, n_new, self.period, dtype=np.intp)
        self.n_seen += n_new
        return idx

    def corrupt_blocks(self, out: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Corrupt scheduled blocks of a ``(..., 4)`` reduce4 output.

        Returns ``(corrupted, mask)`` where ``mask`` flags the corrupted
        blocks over the leading dimensions — the ground truth the guarded
        wrapper uses to attribute detections to the injector.
        """
        flat = out.reshape(-1, 4)
        mask = np.zeros(flat.shape[0], dtype=bool)
        idx = self._due(flat.shape[0])
        if idx.size == 0:
            return out, mask.reshape(out.shape[:-1])
        flat = flat.copy()
        for i in idx:
            if self.lanes == "all":
                for lane in range(4):
                    flat[i, lane] = self._value(flat[i, lane])
            else:
                lane = int(self.rng.integers(4))
                flat[i, lane] = self._value(flat[i, lane])
        mask[idx] = True
        self.n_injected += int(idx.size)
        return flat.reshape(out.shape), mask.reshape(out.shape[:-1])

    def corrupt_values(self, values: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Corrupt scheduled scalar elements of an arbitrary array.

        The generic stride site for paths that are not block-shaped —
        notably the cohort grid-gather (the eight trilinear corner values
        fetched per atom).  Returns ``(corrupted, mask)`` with ``mask``
        flagging corrupted elements at ``values.shape``; when nothing is
        due this call, ``values`` is returned unchanged (no copy).
        """
        flat = values.reshape(-1)
        mask = np.zeros(flat.shape[0], dtype=bool)
        idx = self._due(flat.shape[0])
        if idx.size == 0:
            return values, mask.reshape(values.shape)
        flat = flat.copy()
        for i in idx:
            flat[i] = self._value(np.float32(flat[i]))
        mask[idx] = True
        self.n_injected += int(idx.size)
        return flat.reshape(values.shape), mask.reshape(values.shape)

    def corrupt_tiles(self, tiles: np.ndarray, *,
                      element: tuple[int, int] | None = None) -> np.ndarray:
        """Corrupt scheduled ``(..., 16, 16)`` accumulator tiles.

        ``element`` pins the corrupted (row, col); by default both are drawn
        from the seeded generator — corruption outside column 0 models the
        (realistic) case where a flipped accumulator element never reaches
        the extracted ``W`` column.
        """
        t = tiles.reshape(-1, tiles.shape[-2], tiles.shape[-1])
        idx = self._due(t.shape[0])
        if idx.size == 0:
            return tiles
        t = t.copy()
        for i in idx:
            if element is None:
                r = int(self.rng.integers(t.shape[-2]))
                c = int(self.rng.integers(t.shape[-1]))
            else:
                r, c = element
            t[i, r, c] = self._value(t[i, r, c])
        self.n_injected += int(idx.size)
        return t.reshape(tiles.shape)

    def tile_hook(self, *, element: tuple[int, int] | None = None,
                  sites: tuple[str, ...] | None = None):
        """Hook for :func:`repro.tensorcore.mma.fault_hook`.

        ``sites`` restricts injection to specific hook sites (e.g. only
        ``"mma-accumulator"``, leaving ``"tcec-simt-acc"`` clean).
        """
        def hook(tile: np.ndarray, site: str) -> np.ndarray:
            if sites is not None and site not in sites:
                return tile
            return self.corrupt_tiles(tile, element=element)
        return hook


class InjectingReduction(ReductionBackend):
    """Back-end wrapper that corrupts ``reduce4`` outputs on schedule.

    Sits *inside* a :class:`~repro.robustness.guarded.GuardedReduction`, so
    the guard sees (and must catch) every injected fault.
    """

    def __init__(self, inner: ReductionBackend,
                 injector: FaultInjector) -> None:
        self.inner = inner
        self.injector = injector
        self.cost_key = inner.cost_key
        self.name = f"inject({inner.name})"
        # let the guard's overflow auto-detection see through the wrapper
        acc = getattr(inner, "accumulator_format", None)
        if acc is not None:
            self.accumulator_format = acc

    def __repr__(self) -> str:
        return (f"InjectingReduction({self.inner!r}, rate="
                f"{self.injector.rate}, mode={self.injector.mode!r})")

    def reduce4(self, vectors: np.ndarray) -> np.ndarray:
        out, mask = self.injector.corrupt_blocks(self.inner.reduce4(vectors))
        #: ground-truth corruption mask of the most recent call; the guard
        #: reads it to split detections into "injected" vs natural faults
        self.last_injected_mask = mask
        return out


# ----------------------------------------------------------------------
# end-to-end study harness (CLI `inject` subcommand and the recovery tests)

def build_injected_backend(base: str = "tc-fp16", policy: str = "degrade",
                           rate: float = 1e-3, mode: str = "nan",
                           seed: int = 0, lanes: str = "one", ledger=None):
    """Assemble guard(inject(base)) and return ``(backend, injector)``."""
    from repro.reduction.api import get_reduction_backend
    from repro.robustness.guarded import GuardedReduction

    injector = FaultInjector(rate, mode=mode, seed=seed, lanes=lanes)
    injecting = InjectingReduction(get_reduction_backend(base), injector)
    return GuardedReduction(injecting, policy=policy, ledger=ledger), injector


def run_injection_study(case_name: str, *, base: str = "tc-fp16",
                        rate: float = 1e-3, mode: str = "overflow",
                        lanes: str = "all", n_runs: int = 4, seed: int = 0,
                        lga=None) -> dict:
    """Fault-injection recovery study on one test case.

    Runs the same seeded LGA ensemble under (a) the clean FP32 baseline,
    (b) the injected ``base`` back-end with ``policy="ignore"`` and (c) with
    ``policy="degrade"``, and reports best scores plus ledger summaries —
    the end-to-end evidence that detection + per-block fallback recovers
    reference accuracy (EXPERIMENTS.md, fault-injection study).
    """
    from repro.robustness.faults import FaultLedger
    from repro.search.cohort import CohortLGA
    from repro.search.lga import LGAConfig
    from repro.testcases import get_test_case

    case = get_test_case(case_name)
    lga = lga or LGAConfig(pop_size=16, max_evals=4_000, max_gens=60,
                           ls_iters=20, ls_rate=0.25)

    def run_scores(backend) -> list[float]:
        runner = CohortLGA([case.scoring()], backend, lga, seeds=seed)
        return [r.best_score for r in runner.run(n_runs)[0]]

    out: dict = {"case": case_name, "base": base, "rate": rate, "mode": mode,
                 "policies": {}}
    base_scores = run_scores("baseline")
    out["baseline_best"] = min(base_scores)
    out["baseline_mean"] = sum(base_scores) / len(base_scores)
    for policy in ("ignore", "degrade"):
        ledger = FaultLedger()
        backend, injector = build_injected_backend(
            base=base, policy=policy, rate=rate, mode=mode, seed=seed,
            lanes=lanes, ledger=ledger)
        scores = run_scores(backend)
        out["policies"][policy] = {
            "best_score": min(scores),
            "mean_score": sum(scores) / len(scores),
            "injected": injector.n_injected,
            "detected_injected": ledger.by_site.get("injected", 0),
            "ledger": ledger.summary(),
        }
    return out
