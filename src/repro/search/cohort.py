"""The lock-step LGA engine: ligands x runs x individuals in one batch.

AutoDock-GPU's coarse-level parallelism maps every individual of every
LGA run to its own thread block, so all runs advance together (Table 1).
:class:`CohortLGA` reproduces that shape in NumPy and adds ligands as a
second batch axis: the gene tensor is ``(C, n_runs, pop, G_max)``
(zero-padded on the gene axis) and scoring / GA / local search advance all
ligands and runs together, so the reduce4 backends see
``cohort * runs * pop``-wide operands.  It is the only search engine: a
single-ligand dock (:meth:`~repro.core.engine.DockingEngine.dock`) is a
cohort of one.

Bit-identity and isolation contract
-----------------------------------
Ligand ``c`` of a cohort produces *bit-identical* results (genotypes,
scores, eval ledgers, histories) to a cohort of one holding only ligand
``c`` with seed ``seeds[c]`` (pinned against recorded single-ligand docks
by ``tests/test_cohort_golden.py`` and ``tests/test_hot_path_golden.py``):

* every random draw ligand ``c`` consumes comes from generators spawned
  from ``seeds[c]`` (per-run GA/init streams ``spawn(n_runs)``; the
  Solis-Wets stream keyed at :data:`SW_STREAM_KEY`), so dropping or
  adding cohort members cannot perturb another member's trajectory;
* termination is a per-ligand state machine (running -> needs-final-score
  -> done, plus a quarantined sink state): a ligand whose budget is
  exhausted at the loop top keeps its pre-exit score as the final score,
  one that exits on the generation check gets exactly one more scoring
  pass;
* AutoStop (``LGAConfig.autostop``) freezes single runs inside it: a run
  whose population-best trajectory has converged keeps its best-so-far,
  bills nothing more, and the scoring pass that stopped it is its final
  score.  Its lanes keep riding the batch until its ligand finishes (their
  GA/LS results are never tracked or billed); the ligand is done once all
  its runs have stopped.  With AutoStop off every run is live throughout;
* a lane whose energies go non-finite (or whose guarded reduction trips
  under the ``raise`` policy) is *quarantined*: frozen at its best-so-far
  result and dropped from the lock-step batch.  Because survivors keep
  their own spawned RNG streams and the pack re-trims around them,
  sibling lanes' trajectories stay bit-identical to a cohort that never
  contained the poisoned member (``CohortLGA.quarantines`` names the
  frozen lanes and why);
* eval ledgers are per ligand per run: each ligand's local-search evals
  are split base-plus-remainder over its runs, and only live runs are
  billed.
"""

from __future__ import annotations

import numpy as np

from repro.docking.cohort import CohortGradientCalculator, CohortScoring
from repro.docking.genotype import random_genotypes
from repro.docking.scoring import ScoringFunction
from repro.obs import get_tracer
from repro.reduction.api import ReductionBackend
from repro.robustness.faults import LaneQuarantine, NumericalFaultError
from repro.search.adadelta import AdadeltaConfig, AdadeltaLocalSearch
from repro.search.autostop import AutoStop
from repro.search.ga import GeneticAlgorithm, next_generation_batched
from repro.search.lga import LGAConfig, LGAResult
from repro.search.solis_wets import SolisWetsConfig

__all__ = ["CohortLGA", "CohortSolisWets", "SW_STREAM_KEY",
           "as_seed_sequence"]

_RUNNING, _FINAL, _DONE, _QUARANTINED = 0, 1, 2, 3

#: reserved spawn-key component of the Solis-Wets sampler stream.  Run
#: streams are children ``(0,), (1,), ...`` of the master sequence; keying
#: the SW stream at ``2**31`` keeps it disjoint from any realistic run
#: count, and extending the *given* sequence's spawn_key keeps sibling
#: spawned sequences disjoint from each other (see the seeding contract in
#: :mod:`repro.core.config`).
SW_STREAM_KEY = 2 ** 31


def as_seed_sequence(seed: int | np.random.SeedSequence) \
        -> np.random.SeedSequence:
    """Normalise a plain-int or SeedSequence seed to a *fresh* sequence.

    A fresh (never-spawned-from) copy is returned even for SeedSequence
    inputs, so repeated calls spawn identical children — callers stay
    deterministic without sharing spawn state.
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(entropy=seed.entropy,
                                      spawn_key=seed.spawn_key)
    return np.random.SeedSequence(seed)


class CohortSolisWets:
    """Solis-Wets over a cohort batch with per-ligand sampler streams.

    Each ligand draws its steps from its own generator (the reserved
    :data:`SW_STREAM_KEY` stream of its seed, shared by its runs), and the
    adaptive loop's early exit is tracked per ligand: a ligand whose lanes
    all fell below ``rho_lower`` stops consuming draws and evals, exactly
    as a cohort of one holding it would have broken.
    """

    def __init__(self, cohort: CohortScoring, config: SolisWetsConfig,
                 rngs: list[np.random.Generator]) -> None:
        self.cohort = cohort
        self.config = config
        self.rngs = rngs          # indexed by *global* ligand index

    def minimize_cohort(self, genotypes: np.ndarray, lig
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run Solis-Wets on ``(W, B, G)`` genotypes of ligands ``lig``.

        Returns ``(best_genotypes, best_energies, per-ligand n_evals)``.
        """
        cfg = self.config
        lig = np.asarray(lig, dtype=np.int64)
        x = np.array(genotypes, dtype=np.float64, copy=True)
        W, B, G = x.shape
        glens = self.cohort.pack.glens[lig]

        e = self.cohort.score(x, lig)
        evals = np.full(W, B, dtype=np.int64)
        rho = np.full((W, B), cfg.rho_init)
        bias = np.zeros((W, B, G))
        successes = np.zeros((W, B), dtype=np.int64)
        failures = np.zeros((W, B), dtype=np.int64)
        step = np.zeros((W, B, G))

        for _ in range(cfg.max_iters):
            lane_active = rho > cfg.rho_lower
            lig_live = lane_active.any(axis=1)
            if not lig_live.any():
                break
            # per-ligand draws, only for ligands still iterating (a dead
            # ligand's single loop would have broken: no draws, no evals)
            for w in np.nonzero(lig_live)[0]:
                gl = int(glens[w])
                step[w, :, :gl] = (self.rngs[int(lig[w])].normal(
                    size=(B, gl)) * rho[w][:, None] + bias[w, :, :gl])
            cand = x + step
            e_cand = self.cohort.score(cand, lig)
            evals[lig_live] += B

            better = (e_cand < e) & lane_active
            retry = (~better) & lane_active
            cand2 = x - step
            e_cand2 = self.cohort.score(cand2, lig)
            evals[lig_live] += B
            better2 = (e_cand2 < e) & retry

            x[better] = cand[better]
            e[better] = e_cand[better]
            bias[better] = 0.2 * bias[better] + 0.4 * step[better]

            x[better2] = cand2[better2]
            e[better2] = e_cand2[better2]
            bias[better2] = bias[better2] - 0.4 * step[better2]

            succ = better | better2
            fail = lane_active & ~succ
            successes[succ] += 1
            failures[succ] = 0
            failures[fail] += 1
            successes[fail] = 0
            bias[fail] *= 0.5

            # inactive lanes can never reach the limits: their counters
            # were reset below the limit in the iteration they last moved
            expand = successes >= cfg.success_limit
            rho[expand] *= cfg.expansion
            successes[expand] = 0
            contract = failures >= cfg.failure_limit
            rho[contract] *= cfg.contraction
            failures[contract] = 0

        return x, e, evals


class CohortLGA:
    """Run ``n_runs`` LGA searches for each of ``C`` ligands in lock step.

    Parameters
    ----------
    scorings:
        One scoring function per cohort member.
    backend:
        Reduction back-end for the ADADELTA gradient kernel.
    config:
        Budgets/operators, shared by all ligands and runs.
    seeds:
        Per-ligand master seeds (one int/SeedSequence, broadcast, or a
        sequence of length ``C``); ligand ``c``'s streams are spawned from
        ``seeds[c]``.
    """

    def __init__(self, scorings: list[ScoringFunction],
                 backend: str | ReductionBackend = "baseline",
                 config: LGAConfig | None = None,
                 seeds=0) -> None:
        self.cohort = CohortScoring(scorings)
        self.config = config or LGAConfig()
        C = self.cohort.pack.C
        if isinstance(seeds, (int, np.integer, np.random.SeedSequence)):
            seeds = [seeds] * C
        self.seeds = list(seeds)
        if len(self.seeds) != C:
            raise ValueError(f"{len(self.seeds)} seeds for {C} ligands")
        #: lanes frozen out of the lock-step search, keyed by cohort
        #: position (filled during :meth:`run`)
        self.quarantines: dict[int, LaneQuarantine] = {}
        self.gradient = None
        if self.config.ls_method == "ad":
            self.gradient = CohortGradientCalculator(self.cohort, backend)
            ad_cfg = self.config.adadelta or AdadeltaConfig(
                max_iters=self.config.ls_iters)
            self.local_search = AdadeltaLocalSearch(self.gradient, ad_cfg)
        else:
            sw_cfg = self.config.solis_wets or SolisWetsConfig(
                max_iters=self.config.ls_iters)
            sw_rngs = []
            for s in self.seeds:
                base = as_seed_sequence(s)
                sw_seq = np.random.SeedSequence(
                    entropy=base.entropy,
                    spawn_key=(*base.spawn_key, SW_STREAM_KEY))
                sw_rngs.append(
                    np.random.Generator(np.random.PCG64(sw_seq)))
            self.local_search = CohortSolisWets(self.cohort, sw_cfg, sw_rngs)

    def _quarantine(self, lane: int, generation: int, reason: str,
                    detail: str) -> None:
        name = getattr(self.cohort.pack.ligands[lane], "name", "")
        q = LaneQuarantine(lane=lane, name=name, generation=generation,
                           reason=reason, detail=detail)
        self.quarantines[lane] = q
        # "name" would collide with the event's own name parameter
        attrs = {**q.to_dict(), "ligand": q.name}
        attrs.pop("name")
        get_tracer().event("cohort.quarantine", **attrs)

    def _freeze_faulty(self, exc: NumericalFaultError, work, gw, subsets,
                       selected, gens, state):
        """Quarantine the lanes a guard-raise attributed; narrow the
        in-flight generation's arrays to the survivors."""
        bad = {int(a) for a in getattr(exc, "lanes", ())} \
            & {int(a) for a in work}
        if not bad:
            # unattributable fault: no lane can be trusted this generation
            bad = {int(a) for a in work}
        for a in sorted(bad):
            self._quarantine(a, int(gens[a].max()), "guard-raise", str(exc))
            state[a] = _QUARANTINED
        keep = np.array([i for i, a in enumerate(work) if int(a) not in bad],
                        dtype=np.int64)
        return work[keep], gw[keep], subsets[keep], selected[keep]

    def run(self, n_runs: int, on_generation=None) -> list[list[LGAResult]]:
        """Execute the cohort; returns one result list per ligand.

        ``on_generation(generations, evals)`` is invoked once per
        lock-step generation with the cohort maxima, so a watchdog bounds
        the slowest member.
        """
        cfg = self.config
        pack = self.cohort.pack
        C = pack.C
        pop, R, G = cfg.pop_size, n_runs, pack.G

        rngs = [[np.random.Generator(np.random.PCG64(s))
                 for s in as_seed_sequence(self.seeds[c]).spawn(R)]
                for c in range(C)]
        gas = [[GeneticAlgorithm(cfg.ga, rng) for rng in rngs[c]]
               for c in range(C)]

        genes = np.zeros((C, R, pop, G))
        for c in range(C):
            sf = self.cohort.scorings[c]
            gl = int(pack.glens[c])
            for r in range(R):
                genes[c, r, :, :gl] = random_genotypes(
                    rngs[c][r], pop, sf.ligand,
                    sf.maps.box_lo, sf.maps.box_hi)

        best_score = np.full((C, R), np.inf)
        best_genotype = genes[:, :, 0, :].copy()
        histories: list[list[list[tuple[int, float, np.ndarray]]]] = [
            [[] for _ in range(R)] for _ in range(C)]
        evals_run = np.zeros((C, R), dtype=np.int64)
        gens = np.zeros((C, R), dtype=np.int64)
        #: runs still searching; AutoStop clears a run's flag for good
        live_runs = np.ones((C, R), dtype=bool)
        autostops = ([[AutoStop(window=cfg.autostop_window,
                                tolerance=cfg.autostop_tolerance)
                       for _ in range(R)] for _ in range(C)]
                     if cfg.autostop else None)
        scores = np.empty((C, R, pop))
        state = np.full(
            C,
            _RUNNING if (cfg.max_evals > 0 and cfg.max_gens > 0)
            else _FINAL,
            dtype=np.int8)

        self.quarantines = {}

        def track(c: int, sc: np.ndarray) -> None:
            idx = np.argmin(sc, axis=1)
            vals = sc[np.arange(R), idx]
            # the isfinite guard keeps a poisoned -inf score from
            # hijacking the best-pose bookkeeping (no-op on clean runs)
            improved = (vals < best_score[c]) & np.isfinite(vals) \
                & live_runs[c]
            gl = int(pack.glens[c])
            for r in np.nonzero(improved)[0]:
                best_score[c, r] = vals[r]
                best_genotype[c, r] = genes[c, r, idx[r]]
                # .copy(): the trailing slice is a view into the mutating
                # gene tensor, and history snapshots must be frozen
                histories[c][r].append(
                    (int(evals_run[c, r]), float(vals[r]),
                     genes[c, r, idx[r], :gl].copy()))

        n_ls = int(round(cfg.ls_rate * pop))
        tracer = get_tracer()
        span = tracer.span("lga.run", cohort=C, n_runs=R, pop_size=pop,
                           ls_method=cfg.ls_method,
                           pad_ratio=pack.pad_ratio)
        with span:
            while (state < _DONE).any():
                live = np.nonzero(state < _DONE)[0]
                with tracer.span("lga.score", cohort=len(live)):
                    sc = self.cohort.score(
                        genes[live].reshape(len(live), R * pop, G),
                        live).reshape(len(live), R, pop)
                scores[live] = sc
                # a stopped run's lanes are never tracked: only live runs
                # can poison their ligand
                finite = (np.isfinite(sc).all(axis=2)
                          | ~live_runs[live]).all(axis=1)
                work = []
                for k, c in enumerate(live):
                    evals_run[c] += pop * live_runs[c]
                    if not finite[k]:
                        # poisoned energies: freeze the lane at its
                        # best-so-far, keep the siblings in lock step
                        self._quarantine(
                            int(c), int(gens[c].max()), "nonfinite-score",
                            f"{int(np.count_nonzero(~np.isfinite(sc[k])))} "
                            f"non-finite scores")
                        state[c] = _QUARANTINED
                        continue
                    track(c, scores[c])
                    if state[c] == _FINAL:
                        state[c] = _DONE
                    elif int(evals_run[c].max()) >= cfg.max_evals:
                        # budget exhausted at the loop top: this score IS
                        # the final score
                        state[c] = _DONE
                    elif autostops is not None and not self._autostop(
                            autostops[c], scores[c], live_runs[c]):
                        state[c] = _DONE
                    else:
                        work.append(int(c))
                if not work:
                    continue
                work = np.array(work, dtype=np.int64)
                W = len(work)

                with tracer.span("lga.ga_generation",
                                 generation=int(gens.max()), cohort=W):
                    gas_flat = [gas[c][r] for c in work for r in range(R)]
                    gw = next_generation_batched(
                        gas_flat, genes[work].reshape(W * R, pop, G),
                        scores[work].reshape(W * R, pop),
                        glens=np.repeat(pack.glens[work], R),
                    ).reshape(W, R, pop, G)

                if n_ls > 0:
                    with tracer.span("lga.ls", cohort=W):
                        subsets = np.empty((W, R, n_ls), dtype=np.int64)
                        for w, c in enumerate(work):
                            for r in range(R):  # per-run draws: seed contract
                                subsets[w, r] = rngs[c][r].choice(
                                    pop, size=n_ls, replace=False)
                        selected = np.take_along_axis(
                            gw, subsets[..., None], axis=2)   # (W, R, n_ls, G)
                        if cfg.ls_method == "ad":
                            refined = None
                            while W > 0:
                                self.gradient.bind(work)
                                try:
                                    refined, _, total_ls = \
                                        self.local_search.minimize(
                                            selected.reshape(W * R * n_ls, G))
                                except NumericalFaultError as exc:
                                    # quarantine the attributed lanes and
                                    # replay this generation's LS for the
                                    # survivors: ADADELTA is deterministic, so
                                    # their replay is bit-identical to a
                                    # cohort that never held the bad member
                                    work, gw, subsets, selected = \
                                        self._freeze_faulty(
                                            exc, work, gw, subsets, selected,
                                            gens, state)
                                    W = len(work)
                                    continue
                                # ADADELTA evals are deterministic
                                # (iters x batch), so each ligand's share is
                                # exactly iters x R x n_ls
                                ls_evals = np.full(W, total_ls // W,
                                                   dtype=np.int64)
                                refined = refined.reshape(W, R, n_ls, G)
                                break
                        else:
                            refined, _, ls_evals = \
                                self.local_search.minimize_cohort(
                                    selected.reshape(W, R * n_ls, G), work)
                            refined = refined.reshape(W, R, n_ls, G)
                        if refined is not None:
                            np.put_along_axis(gw, subsets[..., None], refined,
                                              axis=2)
                            for w, c in enumerate(work):
                                base, rem = divmod(int(ls_evals[w]), R)
                                bill = np.full(R, base, dtype=np.int64)
                                bill[:rem] += 1
                                evals_run[c] += bill * live_runs[c]
                genes[work] = gw

                for c in work:
                    gens[c] += live_runs[c]
                    if (int(evals_run[c].max()) >= cfg.max_evals
                            or int(gens[c].max()) >= cfg.max_gens):
                        state[c] = _FINAL
                if on_generation is not None:
                    on_generation(int(gens.max()), int(evals_run.max()))

            span.set(generations=int(gens.max()),
                     evals_per_run=int(evals_run.max()),
                     quarantined=len(self.quarantines))

        results = []
        for c in range(C):
            gl = int(pack.glens[c])
            results.append([
                LGAResult(
                    best_genotype=best_genotype[c, r, :gl].copy(),
                    best_score=float(best_score[c, r]),
                    evals_used=int(evals_run[c, r]),
                    generations=int(gens[c, r]),
                    history=histories[c][r])
                for r in range(R)])
        return results

    @staticmethod
    def _autostop(autostops: list[AutoStop], scores: np.ndarray,
                  live_runs: np.ndarray) -> bool:
        """Feed each live run's population best to its AutoStop and freeze
        the runs that converged; True while any run of the ligand lives."""
        for r in np.nonzero(live_runs)[0]:
            if autostops[r].observe(float(scores[r].min())):
                live_runs[r] = False
        return bool(live_runs.any())
