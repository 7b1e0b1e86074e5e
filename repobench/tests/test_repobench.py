"""The benchmark's own tests: metric names, smoke runs, failing checks.

Run from the repository root::

    python3 -m pytest -q repobench/tests

The smoke runs shrink each workload (fewer items, smaller search
budgets) through subclasses, so the checks run on real outputs in
seconds; two command-line runs check what ``run.py`` prints against
``BENCHMARK.json``.
"""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
for p in (str(ROOT / "src"), str(BENCH_DIR)):
    if p not in sys.path:
        sys.path.insert(0, p)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL_LGA = dict(pop_size=10, max_evals=400, max_gens=40, ls_iters=5,
                 ls_rate=0.3)


def _names(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCH[section]}


# ----------------------------------------------------------------------
# names and units


def test_declared_names_match_the_code():
    assert _names("end_to_end") == run.END_TO_END
    per_layer = {name: unit for name, (unit, _l) in layers.METRICS.items()}
    per_layer["machine.ref_s"] = "s"
    assert _names("per_layer") == per_layer
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS)


def _cli(workload: str, trace: int, tmp_path: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section, tmp_path):
    result = _cli("screen-mixed", trace, tmp_path)
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _names(section)
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), name
        assert math.isfinite(v["value"]), name


def test_missing_program_exits_nonzero_without_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "repobench").mkdir(parents=True)
    for f in BENCH_DIR.glob("*.py"):
        (bare / "repobench" / f.name).write_text(f.read_text())
    (bare / "BENCHMARK.json").write_text(json.dumps(BENCH))
    proc = subprocess.run(
        [sys.executable, "repobench/run.py", "--workload", "dock-tcec",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ----------------------------------------------------------------------
# smoke runs of each workload (shrunk through subclasses)


class SmallDock(workloads.DockTcec):
    N_RUNS = 2

    def config(self):
        from repro.core import DockingConfig
        return DockingConfig(backend="tcec-tf32",
                             lga=workloads._lga(SMALL_LGA))


class SmallScreen(workloads.ScreenMixed):
    NOMINAL_LIGANDS_PER_S = 8.0

    def config(self):
        from repro.core import DockingConfig
        return DockingConfig(backend="baseline",
                             lga=workloads._lga(SMALL_LGA))


class SmallGateway(workloads.GatewayOnline):
    MIN_JOBS = 12
    RATE = 6.0


def _smoke(cls, tmp_path_factory, seconds):
    w = cls(tmp_path_factory.mktemp(cls.__name__), seed=5, seconds=seconds)
    try:
        w.setup()
        out = w.run()
        errors = w.check(out)
    finally:
        w.close()
    return w, out, errors


@pytest.fixture(scope="module")
def dock(tmp_path_factory):
    return _smoke(SmallDock, tmp_path_factory, seconds=10)


@pytest.fixture(scope="module")
def screen(tmp_path_factory):
    return _smoke(SmallScreen, tmp_path_factory, seconds=2)


@pytest.fixture(scope="module")
def gateway(tmp_path_factory):
    return _smoke(SmallGateway, tmp_path_factory, seconds=1)


def test_smoke_runs_pass_their_checks(dock, screen, gateway):
    for w, out, errors in (dock, screen, gateway):
        assert errors == [], errors
        assert len(w.ok_keys(out)) == w.totals(out)["attempted"]
        assert w.totals(out)["evals"] > 0
    assert len(dock[1]["results"]) == 2
    assert len(screen[1]["streamed"]) == 16


def test_ledger_matches_the_engine(dock):
    w, out, _ = dock
    want = w.N_RUNS * workloads.ledger_evals(w.config().lga)
    assert all(r.total_evals == want for r in out["results"])


# ----------------------------------------------------------------------
# corrupted results must fail the checks


def _keys(errors):
    return {key for key, _msg in errors}


def test_dock_corrupted_ledger_and_score_fail(dock):
    w, out, _ = dock
    bad = dict(out, results=list(out["results"]))
    broken = copy.deepcopy(bad["results"][0])
    broken.total_evals += 1
    broken.runs[0].best_score = float("nan")
    bad["results"][0] = broken
    errors = w.check(bad)
    assert 0 in _keys(errors)
    assert any("non-finite" in msg for _k, msg in errors)


def test_screen_nonfinite_score_fails(screen):
    w, out, _ = screen
    streamed = [copy.deepcopy(r) for r in out["streamed"]]
    streamed[0].result["runs"][0]["best_score"] = float("inf")
    errors = w.check(dict(out, streamed=streamed))
    assert streamed[0].label in _keys(errors)


def test_screen_dropped_record_fails(screen):
    w, out, _ = screen
    errors = w.check(dict(out, streamed=out["streamed"][1:]))
    assert None in _keys(errors)


def test_gateway_dropped_record_fails(gateway, tmp_path):
    w, out, _ = gateway
    seen = dict(out["seen"])
    dropped = next(iter(out["accepted"]))
    del seen[dropped]
    errors = w.check(dict(out, seen=seen))
    assert dropped in _keys(errors)
    assert any("never streamed" in msg for _k, msg in errors)


def test_gateway_late_generator_invalidates_run(gateway):
    w, out, _ = gateway
    lat = w.latencies(out)
    late = sorted(lat)[len(lat) // 2]
    sends = [(due - late, a, b) for due, a, b in out["sends"]]
    errors = w.check(dict(out, sends=sends))
    assert any(msg.startswith("run invalid") for _k, msg in errors)
