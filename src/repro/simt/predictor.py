"""Per-job wall-time prediction: the SIMT cost model, calibrated to host.

The gateway's SLO scheduler needs to know — *before* running anything —
how long a docking job will take on this machine, so it can bin-pack jobs
onto shards, reject work that cannot meet its deadline, and size worker
pools from predicted backlog.  The :class:`~repro.simt.costmodel
.KernelCostModel` already prices a docking iteration as a function of the
irregular workload shape (atoms, rotation-list entries, intra pairs,
genotype length); what it prices is *simulated GPU* time, not the host
wall time the service actually spends.  The two are linked by the shape:
the host engine executes the same per-eval loop bounds, so host per-eval
cost is, to good approximation, an affine function of the model's
per-eval cost.

:class:`RuntimePredictor` fits that affine map against **committed bench
traces** (``BENCH_gateway.json``: measured ``wall_s`` over ``total_evals``
for library cases spanning the N_rot range) and predicts

``wall ≈ machine_factor × budget_evals × (a + b × model_eval_seconds)``

where ``machine_factor`` rescales the committed calibration machine to
the local one via the shared ``numpy_ref_s`` workload (the
``bench_hot_path`` convention).  The acceptance gate — p50 relative error
≤ 30% against the committed traces — is enforced by
``tests/test_gateway_predictor.py``.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.simt.costmodel import KernelCostModel, KernelWorkload

__all__ = ["JobShape", "RuntimePredictor", "shape_from_case",
           "DEFAULT_BENCH_PATH", "BENCH_SCHEMA"]

#: committed calibration/latency record (repository root)
DEFAULT_BENCH_PATH = Path(__file__).resolve().parents[3] / \
    "BENCH_gateway.json"

#: envelope tag of every bench JSON (validated by tools/check_bench.py)
BENCH_SCHEMA = "bench/v1"


@dataclass(frozen=True)
class JobShape:
    """Irregular shape of one job, in cost-model (paper-scaled) units.

    Mirrors :class:`~repro.simt.costmodel.KernelWorkload` minus the grid
    size — the predictor prices one block and scales by the eval budget.
    """

    n_atoms: int
    n_rot: int
    n_rotlist: int
    n_intra: int
    n_genes: int

    def workload(self, n_blocks: int = 1) -> KernelWorkload:
        return KernelWorkload(
            n_rotlist=max(1, self.n_rotlist),
            n_atoms=max(1, self.n_atoms),
            n_intra=max(1, self.n_intra),
            n_genes=max(1, self.n_genes),
            n_blocks=n_blocks)

    def to_dict(self) -> dict:
        return {"n_atoms": self.n_atoms, "n_rot": self.n_rot,
                "n_rotlist": self.n_rotlist, "n_intra": self.n_intra,
                "n_genes": self.n_genes}

    @classmethod
    def from_dict(cls, d: dict) -> "JobShape":
        return cls(n_atoms=int(d["n_atoms"]), n_rot=int(d["n_rot"]),
                   n_rotlist=int(d["n_rotlist"]),
                   n_intra=int(d["n_intra"]), n_genes=int(d["n_genes"]))


def shape_from_case(case) -> JobShape:
    """The cost-model shape of a built
    :class:`~repro.testcases.generator.TestCase`."""
    wl = case.workload(1)
    return JobShape(n_atoms=wl.n_atoms, n_rot=case.n_rot,
                    n_rotlist=wl.n_rotlist, n_intra=wl.n_intra,
                    n_genes=wl.n_genes)


class RuntimePredictor:
    """Affine-calibrated cost-model predictor of host docking wall time.

    Parameters
    ----------
    shapes:
        ``case name -> JobShape`` table (usually the committed one).
    entries:
        Calibration traces: dicts with ``case``, ``backend``, ``device``,
        ``block_size``, ``total_evals`` and ``wall_s``.
    ref_s:
        ``numpy_ref_s`` of the machine the entries were measured on.
    local_ref_s:
        The local machine's calibration time; predictions scale by
        ``local_ref_s / ref_s`` (``None`` = same machine, factor 1).
    """

    def __init__(self, shapes: dict[str, JobShape],
                 entries: list[dict], ref_s: float,
                 local_ref_s: float | None = None) -> None:
        if not entries:
            raise ValueError("predictor needs at least one "
                             "calibration entry")
        self.shapes = dict(shapes)
        self.entries = list(entries)
        self.ref_s = float(ref_s)
        if not (math.isfinite(self.ref_s) and self.ref_s > 0):
            raise ValueError(
                f"calibration numpy_ref_s must be finite and > 0, "
                f"got {self.ref_s!r}")
        self.machine_factor = (float(local_ref_s) / self.ref_s
                               if local_ref_s else 1.0)
        self._model_cache: dict[tuple, float] = {}
        self.coeff_a, self.coeff_b = self._fit()
        self.backend_factor = self._fit_backend_factors()

    # ------------------------------------------------------------------
    # model proxy

    def model_eval_seconds(self, shape: JobShape,
                           device: str = "A100",
                           block_size: int = 64) -> float:
        """Simulated seconds of one ADADELTA iteration of one block —
        the cost-model *shape function* host time is regressed on.

        Always the baseline column: the model's per-backend columns rank
        *GPU* cost (tensor-core backends are faster), but the host
        engine *emulates* those reductions in numpy, where they cost
        more — the backend column would invert the signal.  Backend
        enters the prediction as a fitted multiplicative factor instead
        (:attr:`backend_factor`).
        """
        key = (shape, device, block_size)
        hit = self._model_cache.get(key)
        if hit is not None:
            return hit
        model = KernelCostModel(device, block_size, "baseline")
        s = model.iteration_cost(shape.workload(1)).seconds
        self._model_cache[key] = s
        return s

    @staticmethod
    def _backend_key(backend: str) -> str:
        """Calibration column for a job backend — the identity.

        ``"exact"`` was historically folded into ``"baseline"`` here
        (mirroring the old ``DockingConfig.cost_backend`` remap), which
        both polluted the baseline fit with FP64 traces and hid exact's
        distinct host cost.  Every backend now calibrates under its own
        name; backends absent from the traces predict with factor 1.0
        (see :meth:`_fit_backend_factors`).
        """
        return backend

    def _entry_xy(self, entry: dict) -> tuple[float, float]:
        """(model per-eval seconds, measured per-eval seconds)."""
        shape = self.shapes.get(entry["case"])
        if shape is None:
            raise KeyError(f"no committed shape for case "
                           f"{entry['case']!r}")
        x = self.model_eval_seconds(
            shape, entry.get("device", "A100"),
            int(entry.get("block_size", 64)))
        y = float(entry["wall_s"]) / max(1, int(entry["total_evals"]))
        return x, y

    def _baseline_entries(self) -> list[dict]:
        base = [e for e in self.entries
                if self._backend_key(e.get("backend", "baseline"))
                == "baseline"]
        return base or self.entries

    def _fit(self) -> tuple[float, float]:
        """Least-squares ``y = a + b x`` on per-eval (model, host) pairs
        of the *baseline-backend* entries (other backends are handled by
        :meth:`_fit_backend_factors`).

        Coefficients are clamped non-negative: a negative intercept or
        slope has no physical reading (host per-eval cost is a fixed
        Python/numpy overhead plus work growing with the shape), and the
        clamped fallbacks (origin fit / flat median) stay well-defined
        with degenerate calibration sets.
        """
        pairs = [self._entry_xy(e) for e in self._baseline_entries()]
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        n = len(pairs)
        if n == 1:
            return 0.0, ys[0] / xs[0] if xs[0] > 0 else 0.0
        mx = sum(xs) / n
        my = sum(ys) / n
        sxx = sum((x - mx) ** 2 for x in xs)
        sxy = sum((x - mx) * (y - my) for x, y in pairs)
        b = sxy / sxx if sxx > 0 else 0.0
        a = my - b * mx
        if b < 0:                       # shape carries no signal: flat fit
            return my, 0.0
        if a < 0:                       # force through the origin
            sxx0 = sum(x * x for x in xs)
            return 0.0, (sum(x * y for x, y in pairs) / sxx0
                         if sxx0 > 0 else 0.0)
        return a, b

    def _fit_backend_factors(self) -> dict[str, float]:
        """Per-backend host-cost multiplier vs the baseline fit.

        The host emulation overhead of a reduction backend is roughly a
        constant factor on per-eval cost, so one median ratio per
        backend (measured / shape-fit prediction) captures it.  Unseen
        backends predict with factor 1.0.
        """
        ratios: dict[str, list[float]] = {}
        for entry in self.entries:
            backend = self._backend_key(entry.get("backend", "baseline"))
            x, y = self._entry_xy(entry)
            fit = self.coeff_a + self.coeff_b * x
            if fit > 0:
                ratios.setdefault(backend, []).append(y / fit)
        return {backend: max(0.1, statistics.median(rs))
                for backend, rs in ratios.items()}

    # ------------------------------------------------------------------
    # prediction

    def eval_seconds(self, shape: JobShape, backend: str = "baseline",
                     device: str = "A100", block_size: int = 64) -> float:
        """Predicted host seconds per score evaluation."""
        x = self.model_eval_seconds(shape, device, block_size)
        factor = self.backend_factor.get(self._backend_key(backend), 1.0)
        return self.machine_factor * factor * (
            self.coeff_a + self.coeff_b * x)

    def predict_seconds(self, shape: JobShape, budget_evals: int,
                        backend: str = "baseline", device: str = "A100",
                        block_size: int = 64) -> float:
        """Predicted wall seconds for ``budget_evals`` evaluations."""
        return max(0.0, budget_evals) * self.eval_seconds(
            shape, backend, device, block_size)

    def shape_for_spec(self, spec: dict) -> JobShape:
        """Resolve a job spec (see :func:`repro.serve.cache.load_case`)
        to a cost-model shape.

        Named cases price from the committed table (a name it lacks
        takes the row nearest its N_rot).  Every other spec — ``.rlig``
        members and PDBQT ligands — prices from the ligand's own
        :func:`~repro.serve.cache.ligand_shape`, paper-scaled the way
        :meth:`TestCase.workload
        <repro.testcases.generator.TestCase.workload>` scales a case.
        The intra-pair count is the one loop bound a shape does not
        carry (counting pairs needs the bond graph); it is read off the
        committed table at the scaled atom count.  Raises what reading
        the ligand raises.
        """
        if spec.get("kind") == "case":
            shape = self.shapes.get(spec.get("case"))
            if shape is not None:
                return shape
            from repro.testcases.library import _NAME_TO_NROT
            n_rot = _NAME_TO_NROT.get(spec.get("case"), 8)
            return min(self.shapes.values(),
                       key=lambda s: abs(s.n_rot - n_rot))
        from repro.serve.cache import ligand_shape
        from repro.testcases.generator import WORKLOAD_SCALE
        lig = ligand_shape(spec)
        n_atoms = max(1, int(lig.n_atoms * WORKLOAD_SCALE))
        rows = sorted(self.shapes.values(), key=lambda s: s.n_atoms)
        n_intra = float(np.interp(n_atoms, [s.n_atoms for s in rows],
                                  [s.n_intra for s in rows]))
        return JobShape(
            n_atoms=n_atoms, n_rot=lig.n_rot,
            n_rotlist=max(1, int(lig.n_rotlist * WORKLOAD_SCALE)),
            n_intra=max(1, int(n_intra)), n_genes=6 + lig.n_rot)

    # ------------------------------------------------------------------
    # accuracy report (the EXPERIMENTS / acceptance numbers)

    def accuracy(self) -> dict:
        """Relative error of the fit against its own calibration traces.

        Returns per-entry records plus ``p50_rel_err`` / ``p90_rel_err``
        — the committed-file numbers the acceptance gate (p50 ≤ 0.30)
        and the EXPERIMENTS scatter are read from.
        """
        records = []
        for entry in self.entries:
            shape = self.shapes[entry["case"]]
            pred = self.predict_seconds(
                shape, int(entry["total_evals"]),
                entry.get("backend", "baseline"),
                entry.get("device", "A100"),
                int(entry.get("block_size", 64))) / self.machine_factor
            measured = float(entry["wall_s"])
            rel = abs(pred - measured) / measured if measured > 0 \
                else math.inf
            records.append({"case": entry["case"],
                            "backend": entry.get("backend", "baseline"),
                            "total_evals": int(entry["total_evals"]),
                            "wall_s": measured,
                            "predicted_s": pred,
                            "rel_err": rel})
        errs = sorted(r["rel_err"] for r in records)

        def q(p: float) -> float:
            if not errs:
                return math.nan
            k = min(len(errs) - 1, max(0, math.ceil(p * len(errs)) - 1))
            return errs[k]

        return {"entries": records, "n": len(records),
                "p50_rel_err": q(0.50), "p90_rel_err": q(0.90),
                "coeff_a": self.coeff_a, "coeff_b": self.coeff_b}

    # ------------------------------------------------------------------
    # persistence

    @classmethod
    def from_bench(cls, path: str | Path = DEFAULT_BENCH_PATH,
                   local_ref_s: float | None = None) -> "RuntimePredictor":
        """Load the committed gateway bench file and fit on its traces."""
        doc = json.loads(Path(path).read_text())
        if doc.get("schema") != BENCH_SCHEMA or doc.get("bench") != "gateway":
            raise ValueError(f"{path}: not a {BENCH_SCHEMA!r} gateway "
                             f"bench file (schema {doc.get('schema')!r}, "
                             f"bench {doc.get('bench')!r})")
        shapes = {name: JobShape.from_dict(d)
                  for name, d in doc.get("shapes", {}).items()}
        cal = doc.get("calibration", {})
        return cls(shapes, cal.get("entries", []),
                   ref_s=doc["machine"]["numpy_ref_s"],
                   local_ref_s=local_ref_s)
