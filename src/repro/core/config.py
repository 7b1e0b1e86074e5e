"""Engine configuration: back-end, target device, block size, LGA budgets.

Seeding contract (entropy vs spawn keys)
----------------------------------------
Every entry point that takes a seed (:meth:`DockingEngine.dock
<repro.core.engine.DockingEngine.dock>`,
:func:`~repro.core.engine.dock_cohort`,
:class:`~repro.search.cohort.CohortLGA`) accepts a plain int or a
:class:`numpy.random.SeedSequence` per ligand, and the two occupy
*disjoint* stream keyspaces:

* a plain int ``s`` is interpreted as ``SeedSequence(entropy=s)`` — root of
  the keyspace, empty ``spawn_key``;
* multi-process callers (the :mod:`repro.serve` worker pool) must derive
  per-job sequences by *spawning* —
  ``SeedSequence(entropy=master, spawn_key=(job_index,))`` — never by
  handing sibling workers arithmetic ints (``master + i`` collides with a
  user who passes those same ints as independent experiment seeds).

Internally the lock-step engine only ever **spawns children** from the
sequence it is given (run streams are children ``(i,)``; the Solis-Wets
sampler uses a reserved high stream key, see
:data:`repro.search.cohort.SW_STREAM_KEY`), so two sibling spawned
sequences can never collide with each other or with any plain-int seed.
A ligand's streams depend only on its own seed, so the same ligand and
seed dock bit-identically alone or in any cohort.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.success import SuccessCriteria
from repro.search.adadelta import AdadeltaConfig
from repro.search.ga import GAConfig
from repro.search.lga import LGAConfig
from repro.search.solis_wets import SolisWetsConfig
from repro.simt.costmodel import REDUCTION_BACKENDS

__all__ = ["DockingConfig"]

# Every docking backend now has a first-class cost-model key ("exact" used
# to be bolted on here while the cost model rejected it).
_BACKENDS = REDUCTION_BACKENDS


@dataclass(frozen=True)
class DockingConfig:
    """Full configuration of a docking experiment.

    Parameters
    ----------
    backend:
        Reduction back-end: ``"baseline"`` (FP32 SIMT, the paper's
        reference), ``"tc-fp16"`` (Schieffer-Peng), ``"tcec-tf32"`` (the
        paper's contribution), ``"exact"`` (float64 reference),
        ``"ozaki-k2"`` / ``"ozaki-k3"`` / ``"chained-ozaki"``
        (Ozaki-scheme guaranteed-accuracy slicing,
        :mod:`repro.reduction.ozaki`).
    device:
        Simulated GPU for the runtime model: ``"A100"`` / ``"H100"`` /
        ``"B200"``.
    block_size:
        CUDA threads per block (the paper sweeps 64 / 128 / 256).
    lga:
        Search budgets and operators (scaled-down defaults; see
        :class:`~repro.search.lga.LGAConfig`).
    criteria:
        Success thresholds for the E50/outcome analysis.
    fault_policy:
        ``None`` runs the raw back-end; ``"raise"`` / ``"degrade"`` /
        ``"ignore"`` wraps it in a fault-checking
        :class:`~repro.robustness.GuardedReduction` and surfaces the
        :class:`~repro.robustness.FaultLedger` in the result.  Under
        ``"raise"`` a tripped guard quarantines the ligand it is
        attributed to: the dock returns its best-so-far runs with a
        ``quarantine`` record instead of raising (solo docks and cohort
        members alike).
    inject_rate / inject_mode / inject_seed:
        Deterministic fault injection (:mod:`repro.robustness.inject`);
        rate 0 disables.
    inject_site:
        Where the injector corrupts: ``"reduce4"`` (reduction output
        blocks, the default) or ``"grid"`` (the trilinear corner values
        the lock-step engine gathers from the grid maps; the maps
        themselves stay clean).  Either way the stride walks the batched
        call sequence, so a cohort member sees a different fault set than
        the same ligand docked alone.
    """

    backend: str = "tcec-tf32"
    device: str = "A100"
    block_size: int = 64
    lga: LGAConfig = field(default_factory=lambda: LGAConfig(
        pop_size=30, max_evals=15_000, max_gens=300,
        ls_iters=100, ls_rate=0.15))
    criteria: SuccessCriteria = field(default_factory=SuccessCriteria)
    fault_policy: str | None = None
    inject_rate: float = 0.0
    inject_mode: str = "nan"
    inject_seed: int = 0
    inject_site: str = "reduce4"

    def __post_init__(self) -> None:
        if self.backend not in _BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {_BACKENDS}")
        if self.block_size not in (32, 64, 128, 256, 512):
            raise ValueError(f"unsupported block size {self.block_size}")
        if self.fault_policy not in (None, "raise", "degrade", "ignore"):
            raise ValueError(
                f"unknown fault policy {self.fault_policy!r}; expected "
                f"None, 'raise', 'degrade' or 'ignore'")
        if not 0.0 <= self.inject_rate <= 1.0:
            raise ValueError("inject_rate must be in [0, 1]")
        if self.inject_site not in ("reduce4", "grid"):
            raise ValueError(
                f"unknown inject_site {self.inject_site!r}; expected "
                f"'reduce4' or 'grid'")
        if self.inject_rate > 0 and self.fault_policy is None:
            raise ValueError(
                "fault injection requires a fault_policy so the faults are "
                "at least audited ('ignore') or handled")

    @property
    def cost_backend(self) -> str:
        """Cost-model key; every backend is priced under its own name.

        ('exact' was historically remapped to 'baseline' here, silently
        billing FP64 reductions at FP32-tree rates — fixed along with the
        cost model growing a real 'exact' entry.)
        """
        return self.backend

    # ------------------------------------------------------------------
    # JSON round-trip (service manifests, job hashing, future RPC)

    def to_dict(self) -> dict:
        """JSON-ready dict covering every nested config dataclass."""
        from dataclasses import asdict
        d = asdict(self)
        d["lga"]["adadelta"] = (None if self.lga.adadelta is None
                                else asdict(self.lga.adadelta))
        d["lga"]["solis_wets"] = (None if self.lga.solis_wets is None
                                  else asdict(self.lga.solis_wets))
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "DockingConfig":
        """Inverse of :meth:`to_dict`."""
        d = dict(d)
        lga = dict(d.pop("lga"))
        lga["ga"] = GAConfig(**lga.pop("ga"))
        ad = lga.pop("adadelta")
        lga["adadelta"] = None if ad is None else AdadeltaConfig(**ad)
        sw = lga.pop("solis_wets")
        lga["solis_wets"] = None if sw is None else SolisWetsConfig(**sw)
        criteria = SuccessCriteria(**d.pop("criteria"))
        return cls(lga=LGAConfig(**lga), criteria=criteria, **d)
