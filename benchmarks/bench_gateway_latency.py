"""Gateway bench: predictor calibration traces + submit→result latency.

Produces ``BENCH_gateway.json``, the file the serving stack's runtime
predictor is calibrated against and CI's bench gate checks a fresh
``--smoke`` run against with ``tools/check_bench.py``:

* ``shapes`` — the cost-model shape table of the library cases used for
  prediction (committed so admission control can price a named case
  without building it);
* ``calibration.entries`` — measured host wall time of real docking
  runs across the N_rot range (atoms × torsions × eval budget →
  seconds), the regression targets of
  :class:`repro.simt.predictor.RuntimePredictor`;
* ``calibration.accuracy`` — the fitted predictor's p50/p90 relative
  error against those same traces (the acceptance gate is p50 ≤ 30%);
* ``latency`` — end-to-end p50/p99 submit→result latency through a
  live in-process gateway (HTTP submission, 2 inline shards, NDJSON
  stream), the number the "Serving at scale" docs quote;
* ``metrics`` — the gated envelope (:func:`metrics`).

Machine speed is normalised the same way as ``bench_hot_path.py``: the
file records ``numpy_ref_s`` and consumers rescale by the local/committed
ratio.

Usage::

    PYTHONPATH=src python benchmarks/bench_gateway_latency.py --out BENCH_gateway.json
    PYTHONPATH=src python benchmarks/bench_gateway_latency.py --smoke --out fresh.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
# the shared machine probe and the bench envelope
from bench_hot_path import SCHEMA, calibrate, metric  # noqa: E402

#: calibration cases spanning the library's rotatable-bond range — the
#: predictor's per-eval cost is regressed on their cost-model shapes
CALIBRATION_CASES = ("1u4d", "1yv3", "1t46", "1kzk", "7cpa", "1gpk",
                     "2brb")
SMOKE_CASES = ("1u4d", "1t46", "7cpa")

#: docking work per calibration entry (small but real: the regression
#: target is per-eval cost, which is budget-independent)
CAL = {"n_runs": 2, "evals": 2000, "pop": 16, "ls_iters": 10, "seed": 7}
CAL_SMOKE = {"n_runs": 1, "evals": 800, "pop": 10, "ls_iters": 5,
             "seed": 7}

#: extra backend entries so the fit sees more than one cost-model column
EXTRA_BACKENDS = (("7cpa", "tcec-tf32"), ("1kzk", "tc-fp16"))


def _config(backend: str, spec: dict):
    from repro.core.config import DockingConfig
    from repro.search.lga import LGAConfig

    return DockingConfig(
        backend=backend, device="A100", block_size=64,
        lga=LGAConfig(pop_size=spec["pop"], max_evals=spec["evals"],
                      max_gens=max(1, spec["evals"] // spec["pop"]),
                      ls_iters=spec["ls_iters"], ls_rate=0.25))


def measure_case(name: str, backend: str, spec: dict,
                 repeats: int) -> dict:
    """One calibration entry: best-of-``repeats`` wall time of a real
    dock (best-of sheds scheduler noise; per-eval cost is what the
    predictor regresses, so the cleanest pass is the right target)."""
    from repro.core.engine import DockingEngine
    from repro.testcases import get_test_case

    case = get_test_case(name)
    cfg = _config(backend, spec)
    best = None
    for _ in range(repeats):
        engine = DockingEngine(case, cfg)
        t0 = time.perf_counter()
        result = engine.dock(n_runs=spec["n_runs"], seed=spec["seed"])
        wall = time.perf_counter() - t0
        if best is None or wall < best["wall_s"]:
            best = {"case": name, "backend": backend, "device": "A100",
                    "block_size": 64, "n_runs": spec["n_runs"],
                    "total_evals": int(result.total_evals),
                    "wall_s": round(wall, 4)}
    return best


def build_shapes(names: tuple[str, ...]) -> dict:
    from repro.simt.predictor import shape_from_case
    from repro.testcases import get_test_case

    return {name: shape_from_case(get_test_case(name)).to_dict()
            for name in names}


def measure_latency(doc: dict, n_jobs: int, evals: int) -> dict:
    """p50/p99 submit→result latency through a live in-process gateway.

    Two inline shards (workers=0: deterministic, no spawn overhead —
    this measures the *gateway* path, not multiprocessing startup), HTTP
    submission per job, NDJSON stream for completion times.
    """
    from repro.gateway import Gateway, GatewayClient, GatewayConfig
    from repro.simt.predictor import RuntimePredictor, JobShape

    predictor = RuntimePredictor(
        shapes={n: JobShape.from_dict(d)
                for n, d in doc["shapes"].items()},
        entries=doc["calibration"]["entries"],
        ref_s=doc["machine"]["numpy_ref_s"])
    gw = Gateway(GatewayConfig(port=0, n_shards=2, workers=0,
                               poll_s=0.02),
                 predictor=predictor).start()
    try:
        client = GatewayClient(f"http://127.0.0.1:{gw.port}")
        cases = [CALIBRATION_CASES[i % 3] for i in range(n_jobs)]
        submitted: dict[str, float] = {}
        for i, name in enumerate(cases):
            out = client.submit({"case": name, "n_runs": 1,
                                 "evals": evals, "pop": 10,
                                 "ls_iters": 5,
                                 "seed": {"entropy": 99, "index": i}})
            rec = out["accepted"][0]
            submitted[rec["job_id"]] = time.perf_counter()
        latencies: list[float] = []
        shards_used = set()
        for rec in client.stream():
            done = time.perf_counter()
            if rec["job_id"] in submitted:
                latencies.append(done - submitted[rec["job_id"]])
                shards_used.add(rec["shard"])
    finally:
        gw.stop()
    lat = np.array(sorted(latencies))
    q = lambda p: round(float(np.quantile(lat, p)), 4)  # noqa: E731
    return {"n_jobs": n_jobs, "n_shards": 2, "workers": 0,
            "evals_per_job": evals,
            "shards_used": sorted(shards_used),
            "submit_to_result_s": {"p50": q(0.50), "p90": q(0.90),
                                   "p99": q(0.99),
                                   "mean": round(float(lat.mean()), 4),
                                   "max": round(float(lat.max()), 4)}}


def metrics(doc: dict) -> list[dict]:
    """The file's gated envelope, derived from its raw sections.

    Latency scales with machine slowness and per-job budget, so the
    compared number is ``p50 / (numpy_ref_s x evals_per_job)`` —
    calibration units of submit→result time per eval.
    """
    lat, cal = doc["latency"], doc["calibration"]
    per_eval = lat["submit_to_result_s"]["p50"] / (
        doc["machine"]["numpy_ref_s"] * lat["evals_per_job"])
    return [
        metric("latency.p50_per_eval", "ref/eval", "lower", per_eval, 0.50,
               smoke=True),
        metric("calibration.p50_rel_err", "share", "lower",
               cal["accuracy"]["p50_rel_err"], max=0.30),
        metric("calibration.traces", "count", "higher",
               len(cal["entries"]), min=3),
        metric("latency.shards_used", "count", "higher",
               len(lat["shards_used"]), min=2),
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH_gateway.json")
    ap.add_argument("--smoke", action="store_true",
                    help="fewer cases, smaller budgets, one timing pass "
                         "(CI)")
    args = ap.parse_args(argv)

    from repro.simt.predictor import RuntimePredictor, JobShape

    cases = SMOKE_CASES if args.smoke else CALIBRATION_CASES
    spec = CAL_SMOKE if args.smoke else CAL
    repeats = 1 if args.smoke else 2

    doc = {
        "schema": SCHEMA,
        "bench": "gateway",
        "machine": {
            "numpy_ref_s": round(calibrate(), 4),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "shapes": build_shapes(CALIBRATION_CASES),
        "calibration": {"spec": dict(spec), "entries": []},
        "latency": None,
    }

    print("calibration traces:")
    entries = doc["calibration"]["entries"]
    for name in cases:
        entry = measure_case(name, "baseline", spec, repeats)
        entries.append(entry)
        us = entry["wall_s"] / entry["total_evals"] * 1e6
        print(f"  {name:6s} baseline   {entry['wall_s']:7.3f}s "
              f"/ {entry['total_evals']:6d} evals  ({us:6.1f} us/eval)")
    for name, backend in (EXTRA_BACKENDS if not args.smoke else ()):
        entry = measure_case(name, backend, spec, repeats)
        entries.append(entry)
        us = entry["wall_s"] / entry["total_evals"] * 1e6
        print(f"  {name:6s} {backend:10s} {entry['wall_s']:7.3f}s "
              f"/ {entry['total_evals']:6d} evals  ({us:6.1f} us/eval)")

    predictor = RuntimePredictor(
        shapes={n: JobShape.from_dict(d)
                for n, d in doc["shapes"].items()},
        entries=entries, ref_s=doc["machine"]["numpy_ref_s"])
    acc = predictor.accuracy()
    doc["calibration"]["fit"] = {"coeff_a": acc["coeff_a"],
                                 "coeff_b": acc["coeff_b"]}
    doc["calibration"]["accuracy"] = {
        "n": acc["n"],
        "p50_rel_err": round(acc["p50_rel_err"], 4),
        "p90_rel_err": round(acc["p90_rel_err"], 4),
        "entries": [{k: (round(v, 4) if isinstance(v, float) else v)
                     for k, v in r.items()} for r in acc["entries"]],
    }
    print(f"predictor fit: a={acc['coeff_a']:.3e} b={acc['coeff_b']:.3e}"
          f"  p50 rel err {acc['p50_rel_err']:.1%}, "
          f"p90 {acc['p90_rel_err']:.1%}")

    print("gateway latency:")
    doc["latency"] = measure_latency(
        doc, n_jobs=6 if args.smoke else 8,
        evals=200 if args.smoke else 400)
    s = doc["latency"]["submit_to_result_s"]
    print(f"  {doc['latency']['n_jobs']} jobs over "
          f"{len(doc['latency']['shards_used'])} shards: "
          f"p50 {s['p50']:.3f}s, p99 {s['p99']:.3f}s, "
          f"max {s['max']:.3f}s")

    doc["metrics"] = metrics(doc)
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
