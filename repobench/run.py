"""Repository benchmark: one workload, one seed, end-to-end or traced.

Usage (from the repository root)::

    python3 repobench/run.py --workload dock-tcec --seed 1 --seconds 20 --trace 0
    python3 repobench/run.py --workload screen-mixed --seed 1 --seconds 20 --trace 1

``--trace 0`` sets up the workload ``SETUP_REPS`` times (``setup_s`` is
the median), runs one timed pass with no wrappers installed, checks the
outputs and prints the end-to-end metrics.  ``--trace 1`` sets up once,
runs the same pass untraced, traced (spans recorded around the program's
public functions, in this process and in spawned workers) and untraced
again, checks all three, and prints the per-layer metrics.  The last stdout line is
the result object; the line before it is a diagnostic record (machine
probe, sample counts, per-layer table).  A failed output check prints
``"correct": false`` and exits 1; a missing program exits 2 without a
result.  See ``repobench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3
#: end-to-end metric -> unit (``BENCHMARK.json`` lists the same)
END_TO_END = {"setup_s": "s", "evals_per_s": "evals/s",
              "ligands_per_s": "1/s", "ok_share": "share",
              "peak_rss_mb": "MB"}


def _paths() -> None:
    for p in (str(SRC), str(HERE)):
        if p not in sys.path:
            sys.path.insert(0, p)


if __name__ != "__main__" and os.environ.get("REPOBENCH_SPANS"):
    # a spawned worker re-imports this file as ``__mp_main__``: time its
    # layers too (see tracing.install_in_worker)
    _paths()
    from tracing import install_in_worker
    install_in_worker(os.environ["REPOBENCH_SPANS"])


def end_to_end(w) -> tuple[dict, dict]:
    """Set up ``SETUP_REPS`` times, one untraced pass, checks, metrics."""
    from common import calibrate, peak_rss_mb, steal_s

    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        w.setup()
        setups.append(time.perf_counter() - t0)
    ref = [calibrate()]
    steal = steal_s()
    out = w.run()
    steal = steal_s() - steal
    ref.append(calibrate())
    errors = w.check(out)
    ok = _ok_count(w, out, errors)
    tot = w.totals(out)
    values = {"setup_s": statistics.median(setups),
              "evals_per_s": tot["evals"] / out["wall"],
              "ligands_per_s": ok / out["wall"],
              "ok_share": ok / tot["attempted"],
              "peak_rss_mb": peak_rss_mb()}
    metrics = {name: (values[name], unit)
               for name, unit in END_TO_END.items()}
    diag = {"machine_ref_s": ref, "steal_s": steal, "setup_s_reps": setups,
            "wall_s": out["wall"],
            "items": tot["attempted"], "items_ok": ok, **w.extra(out)}
    return _result(metrics, tot["attempted"], errors, ok), diag


def traced(w, spans_out: Path) -> tuple[dict, dict]:
    """The pass untraced, traced, untraced again; per-layer metrics.

    The overhead base is the mean of the two untraced passes, which
    cancels a machine that warms up or slows down steadily over the run.
    """
    import tracing
    from common import calibrate
    from layers import layer_metrics

    setup_tracer = tracing.Tracer().install()
    try:
        w.setup()
    finally:
        setup_tracer.uninstall()
    ref = [calibrate()]
    plain = w.run()
    errors = w.check(plain)
    w.restart()
    spans_dir = w.fresh_dir("spans")
    tracer = tracing.Tracer().install()
    os.environ[tracing.ENV_SPANS] = str(spans_dir)
    try:
        out = w.run()
    finally:
        del os.environ[tracing.ENV_SPANS]
        tracer.uninstall()
    errors += w.check(out)
    w.restart()
    again = w.run()
    errors += w.check(again)
    ref.append(calibrate())
    ok = _ok_count(w, out, errors)
    metrics, table, spans = layer_metrics(
        w, out, plain, statistics.fmean([plain["wall"], again["wall"]]),
        tracer, setup_tracer, spans_dir)
    metrics["machine.ref_s"] = (statistics.fmean(ref), "s")
    spans_out.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_out, "w") as fh:
        for rec in spans:
            fh.write(json.dumps(rec) + "\n")
    diag = {"machine_ref_s": ref, "layers": table,
            "spans_file": str(spans_out.relative_to(ROOT)),
            "untraced_wall_s": [plain["wall"], again["wall"]],
            "traced_wall_s": out["wall"],
            "wrappers_missing": tracer.missing()}
    return _result(metrics, w.totals(out)["attempted"], errors, ok), diag


def _ok_count(w, out: dict, errors: list[tuple]) -> int:
    """Items completed ok and passing their checks; a whole-run error
    (key ``None``) fails every item."""
    failed = {key for key, _msg in errors}
    if None in failed:
        return 0
    return len(w.ok_keys(out) - failed)


def _result(metrics: dict, attempted: int, errors: list, ok: int) -> dict:
    for _key, msg in errors:
        print(f"repobench: check failed: {msg}", file=sys.stderr)
    return {"correct": not errors, "attempted": attempted,
            "failed": attempted - ok,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts for the
    worker pools, so the run ends with no process of its own alive."""
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"repobench: no program to measure under {SRC}",
              file=sys.stderr)
        return 2
    _paths()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"repobench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".repobench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    w = WORKLOADS[args.workload](work, args.seed, args.seconds)
    try:
        if args.trace:
            spans_out = (ROOT / ".repobench" / "spans"
                         / f"{args.workload}-{args.seed}.jsonl")
            result, diag = traced(w, spans_out)
        else:
            result, diag = end_to_end(w)
    finally:
        w.close()
        shutil.rmtree(work, ignore_errors=True)
        _stop_resource_tracker()
    diag = {"workload": args.workload, "seed": args.seed, **diag}
    print(json.dumps(diag, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
