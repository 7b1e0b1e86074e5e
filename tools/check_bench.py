#!/usr/bin/env python
"""Gate a ``BENCH_*.json`` file alone, or a fresh run against it.

Every bench file carries one envelope beside its raw sections::

    {"schema": "bench/v1", "bench": "<name>", "machine": {...},
     "metrics": [{"name": ..., "unit": ..., "better": "higher" | "lower",
                  "bound": <fraction> | null, "value": <number>,
                  "min": ..., "max": ..., "smoke": true}, ...]}

``bound`` is the fractional tolerance of a comparison against the
baseline (null: the metric is not compared).  ``min`` / ``max`` are hard
limits that every file must meet.  ``smoke: true`` marks a bounded metric
that every run of the producer emits, so both files of a comparison must
carry it.  Booleans are stored as 0/1.  Producers write machine-dependent
rates already scaled by their ``machine.numpy_ref_s`` probe, so this
checker compares plain numbers and knows no bench by name::

    python tools/check_bench.py BENCH_hot_path.json --fresh fresh.json

Each file's envelope must be well-formed, with a positive machine probe,
and meet every limit.  With ``--fresh``, both files must name the same
bench, and a metric carried by both must have the same declaration in
both: the baseline's bounds govern, so a fresh file cannot loosen them.
Every smoke metric of either file must be in the other, at least one
bounded metric must be shared, and each shared bounded metric must hold
``fresh >= base * (1 - bound)`` when higher is better, or
``fresh <= base * (1 + bound)`` when lower is.

``--fresh`` takes several runs of the bench: each run must keep every
limit, and the bounded comparison gates their per-metric medians.
``--base`` takes runs of the base commit's code, measured alternately
with the fresh ones on the same machine; their medians replace the
committed values as what the fresh medians are compared against, while
the committed file's declarations, bounds and limits still govern.  A
VM-phase drift then moves both sides instead of reading as a
regression::

    python tools/check_bench.py BENCH_hot_path.json \
        --fresh head-1.json head-2.json head-3.json \
        --base base-1.json base-2.json base-3.json

Pure stdlib, so it runs before any project dependency is importable.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

SCHEMA = "bench/v1"

#: the fields two files must agree on for a metric they both carry
_DECLARATION = ("unit", "better", "bound", "min", "max", "smoke")
_FIELDS = {"name", "value", *_DECLARATION}


class BenchError(Exception):
    pass


def metric(name: str, unit: str, better: str, value: float,
           bound: float | None = None, **limits) -> dict:
    """One ``metrics`` entry; ``limits`` takes ``min``, ``max`` and
    ``smoke``.  A boolean value is stored as 0/1."""
    if isinstance(value, bool):
        value = int(value)
    return {"name": name, "unit": unit, "better": better, "bound": bound,
            "value": value, **limits}


def _number(x) -> bool:
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x))


def _problem(m) -> str | None:
    """Why ``m`` is not a well-formed metric, or None."""
    if not isinstance(m, dict):
        return "must be an object"
    if set(m) - _FIELDS:
        return f"unknown fields {sorted(set(m) - _FIELDS)}"
    if not isinstance(m.get("name"), str) or not m["name"]:
        return "needs a name"
    if not isinstance(m.get("unit"), str):
        return "needs a unit"
    if m.get("better") not in ("higher", "lower"):
        return f"better must be 'higher' or 'lower', got {m.get('better')!r}"
    if "bound" not in m or not (m["bound"] is None
                                or _number(m["bound"]) and m["bound"] >= 0):
        return f"bound must be null or >= 0, got {m.get('bound')!r}"
    if not _number(m.get("value")):
        return f"value must be a finite number, got {m.get('value')!r}"
    for key in ("min", "max"):
        if key in m and not _number(m[key]):
            return f"{key} must be a finite number, got {m[key]!r}"
    if m.get("smoke", True) is not True:
        return f"smoke must be true or absent, got {m['smoke']!r}"
    if m.get("smoke") and m["bound"] is None:
        return "a smoke metric must carry a bound"
    return None


def load(path: str) -> tuple[str, dict[str, dict]]:
    """Read one bench file and check its envelope: (bench, metrics by
    name)."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise BenchError(f"{path}: top level must be an object")
    if doc.get("schema") != SCHEMA:
        raise BenchError(f"{path}: schema {doc.get('schema')!r} != "
                         f"{SCHEMA!r}")
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        raise BenchError(f"{path}: 'bench' must name the bench")
    machine = doc.get("machine")
    ref_s = machine.get("numpy_ref_s") if isinstance(machine, dict) else None
    if not _number(ref_s) or ref_s <= 0:
        raise BenchError(f"{path}: machine.numpy_ref_s must be positive, "
                         f"got {ref_s!r}")
    entries = doc.get("metrics")
    if not isinstance(entries, list) or not entries:
        raise BenchError(f"{path}: 'metrics' must be a non-empty list")
    metrics: dict[str, dict] = {}
    for i, m in enumerate(entries):
        problem = _problem(m)
        if problem:
            raise BenchError(f"{path}: metrics[{i}]: {problem}")
        if m["name"] in metrics:
            raise BenchError(f"{path}: duplicate metric {m['name']!r}")
        metrics[m["name"]] = m
    return doc["bench"], metrics


def load_runs(paths: list[str], bench: str) -> list[dict[str, dict]]:
    """Each run's metrics; every run must be of ``bench`` and carry the
    same metrics."""
    runs = []
    for path in paths:
        run_bench, metrics = load(path)
        if run_bench != bench:
            raise BenchError(f"{path}: bench {run_bench!r} != baseline "
                             f"bench {bench!r}")
        if runs and metrics.keys() != runs[0].keys():
            raise BenchError(f"{path}: metrics differ from {paths[0]}'s")
        runs.append(metrics)
    return runs


def medians(runs: list[dict[str, dict]]) -> dict[str, dict]:
    """The runs as one file's metrics with per-metric median values."""
    return {name: {**m, "value": statistics.median(
                run[name]["value"] for run in runs)}
            for name, m in runs[0].items()}


def check_limits(path: str, metrics: dict[str, dict]) -> list[str]:
    """Every ``min`` / ``max`` of one file."""
    problems = []
    for name, m in metrics.items():
        for key in ("min", "max"):
            if key not in m:
                continue
            ok = m["value"] >= m[key] if key == "min" else m["value"] <= m[key]
            print(f"  {name:40s} {m['value']:12.6g} ({key} {m[key]:g})  "
                  f"{'OK' if ok else 'LIMIT BROKEN'}")
            if not ok:
                problems.append(f"{path}: {name} = {m['value']:.6g} breaks "
                                f"its {key} {m[key]:g}")
    return problems


def compare(base: dict[str, dict], fresh: dict[str, dict]) -> list[str]:
    """Fresh metrics against the baseline's declarations and bounds."""
    problems = []
    shared = [name for name in base if name in fresh]
    for name in shared:
        differ = [k for k in _DECLARATION
                  if base[name].get(k) != fresh[name].get(k)]
        if differ:
            problems.append(f"{name}: declaration differs between the "
                            f"files in {differ}")
    for name in sorted(base.keys() ^ fresh.keys()):
        m, side = ((base[name], "fresh") if name in base
                   else (fresh[name], "baseline"))
        if m.get("smoke"):
            problems.append(f"{name}: smoke metric missing from the "
                            f"{side} file")
    bounded = [name for name in shared if base[name]["bound"] is not None]
    if not bounded:
        problems.append("no bounded metric in both files")
    for name in bounded:
        decl = base[name]
        base_v, fresh_v = decl["value"], fresh[name]["value"]
        if decl["better"] == "higher":
            edge = base_v * (1.0 - decl["bound"])
            ok = fresh_v >= edge
        else:
            edge = base_v * (1.0 + decl["bound"])
            ok = fresh_v <= edge
        ratio = f"{fresh_v / base_v:5.2f}x" if base_v else "  n/a"
        print(f"  {name:40s} {fresh_v:12.6g} vs baseline {base_v:12.6g} "
              f"({ratio})  {'OK' if ok else 'REGRESSION'}")
        if not ok:
            problems.append(
                f"{name}: {fresh_v:.6g} {decl['unit']} against baseline "
                f"{base_v:.6g} ({decl['better']} is better, bound "
                f"{decl['bound']:.0%}, edge {edge:.6g})")
    return problems


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("baseline", help="committed BENCH_*.json")
    p.add_argument("--fresh", nargs="+", default=None,
                   help="freshly measured file(s) of the same bench, gated "
                        "by their per-metric medians; omitted = check the "
                        "baseline alone")
    p.add_argument("--base", nargs="+", default=None,
                   help="runs of the base commit measured alongside the "
                        "fresh ones: their medians replace the baseline's "
                        "values (its declarations still govern)")
    args = p.parse_args(argv)
    if args.base and not args.fresh:
        p.error("--base needs --fresh")

    try:
        bench, base = load(args.baseline)
        fresh_runs = load_runs(args.fresh, bench) if args.fresh else None
        base_runs = load_runs(args.base, bench) if args.base else None
    except BenchError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1

    print(f"OK: {args.baseline}: {bench} envelope valid "
          f"({len(base)} metrics)")
    problems = check_limits(args.baseline, base)
    if fresh_runs is not None:
        # limits hold in every run; the bounded comparison takes medians
        for path, run in zip(args.fresh, fresh_runs):
            print(f"OK: {path}: {bench} envelope valid ({len(run)} metrics)")
            problems += check_limits(path, run)
        if base_runs is not None:
            print(f"comparing against the medians of {len(base_runs)} "
                  f"base run(s)")
            against = medians(base_runs)
            base = {name: {**m, "value": against[name]["value"]}
                    if name in against else m for name, m in base.items()}
        problems += compare(base, medians(fresh_runs))
    if problems:
        for msg in problems:
            print(f"FAIL: {msg}", file=sys.stderr)
        return 1
    if fresh_runs is not None:
        print("OK: every shared metric within its bound")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
