"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 repobench/steadiness.py --seeds 1 2 3 4 5 6 7 8 9 10 \\
        --workloads dock-tcec screen-mixed gateway-online --out runs.json

For every workload x end-to-end metric it prints the median, the
quartile spread ``(q3 - q1) / median`` (``statistics.quantiles(n=4)``)
and the metric's bound from ``BENCHMARK.json``, with the machine probe
(``machine_ref_s``, taken around each timed pass) beside it.  ``--merge``
adds runs saved by an earlier call, so a second set can be compared with
the first (``--compare first.json``: median shift, signed so that
positive means worse).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return {"workload": workload, "seed": seed,
            "diag": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float]:
    """``(median, (q3 - q1) / median)``."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def table(runs: list[dict], bench: dict) -> list[dict]:
    rows = []
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        refs = [x for r in mine for x in r["diag"]["machine_ref_s"]]
        for metric in bench["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"]
                      for r in mine]
            med, sp = spread(values)
            rows.append({"workload": workload, "metric": metric["name"],
                         "n": len(values), "median": med, "spread": sp,
                         "bound": metric["bound"],
                         "ref_s_median": statistics.median(refs),
                         "ref_s_range": [min(refs), max(refs)]})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--compare", type=Path, default=None)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for workload in args.workloads:
        for seed in args.seeds:
            runs.append(run_once(workload, seed, seconds))
            print(f"{workload} seed {seed}: "
                  f"{json.dumps(runs[-1]['result']['metrics'])}",
                  file=sys.stderr, flush=True)
    rows = table(runs, bench)
    args.out.write_text(json.dumps({"runs": runs, "rows": rows}, indent=1))
    first = {}
    if args.compare is not None:
        for row in json.loads(args.compare.read_text())["rows"]:
            first[(row["workload"], row["metric"])] = row["median"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    print("| workload | metric | n | median | spread | bound | shift vs "
          "first | machine.ref_s median [min, max] |")
    print("|---|---|---|---|---|---|---|---|")
    for row in rows:
        base = first.get((row["workload"], row["metric"]))
        shift = ""
        if base:
            worse = (base - row["median"]) / base
            if better[row["metric"]] == "lower":
                worse = -worse
            shift = f"{worse:+.3f}"
        lo, hi = row["ref_s_range"]
        print(f"| {row['workload']} | {row['metric']} | {row['n']} | "
              f"{row['median']:.4g} | {row['spread']:.3f} | {row['bound']} "
              f"| {shift} | {row['ref_s_median']:.4f} [{lo:.4f}, {hi:.4f}] |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
