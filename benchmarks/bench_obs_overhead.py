"""Observability overhead + the reduction span-vs-cost-model cross-check.

Two questions, both about `repro.obs`:

1. What does instrumentation cost?  The tracer is off by default (a
   null object), so the hot-path price must be a method call, not I/O;
   with JSONL tracing on, the price is one serialised line per span.
2. Do the traced reduction timings line up with the simt cost model?
   `CohortGradientCalculator` brackets each `reduce4` pair in one
   `reduction.reduce4` span; the cost model prices the same region in
   device cycles.
   The *Python* ratios invert the model's (software-emulated Tensor
   Cores are slower than `np.sum`, while modelled TC hardware is
   cheaper than the SIMT tree) — the cross-check table in EXPERIMENTS.md
   documents that split, and this benchmark regenerates it
   (`SPAN-VS-MODEL` lines).
"""

import numpy as np
import pytest

from repro.docking.cohort import CohortGradientCalculator, CohortScoring
from repro.obs import Tracer, configure, disable, get_tracer
from repro.search.adadelta import AdadeltaConfig, AdadeltaLocalSearch
from repro.simt.costmodel import REDUCTION_BACKENDS, KernelCostModel
from repro.testcases import get_test_case


@pytest.fixture(autouse=True)
def _tracer_off():
    yield
    disable()


@pytest.mark.benchmark(group="obs-span")
def test_null_span_overhead(benchmark):
    """The price every instrumented hot path pays when tracing is off."""
    disable()
    tracer = get_tracer()

    def bracket():
        with tracer.span("hot.region", batch=64):
            pass

    benchmark(bracket)


@pytest.mark.benchmark(group="obs-span")
def test_ring_span_overhead(benchmark):
    """Tracing to the in-memory ring only (no file sink)."""
    tracer = Tracer()

    def bracket():
        with tracer.span("hot.region", batch=64):
            pass

    benchmark(bracket)


@pytest.mark.benchmark(group="obs-span")
def test_jsonl_span_overhead(benchmark, tmp_path):
    """Full tracing: ring + one serialised JSONL line per span."""
    tracer = Tracer(tmp_path / "t.jsonl")

    def bracket():
        with tracer.span("hot.region", batch=64):
            pass

    benchmark(bracket)
    tracer.close()


def test_traced_dock_overhead_is_bounded(tmp_path):
    """End to end: a fully traced dock must cost < 30% over untraced.

    (The instrumented regions are coarse — generations, LS batches —
    so the span count is small relative to the numerical work.)
    """
    import time

    from repro.core import DockingConfig, DockingEngine
    from repro.search.lga import LGAConfig

    cfg = DockingConfig(backend="baseline",
                        lga=LGAConfig(pop_size=16, max_evals=3_000,
                                      max_gens=40, ls_iters=10,
                                      ls_rate=0.25))
    engine = DockingEngine(get_test_case("7cpa"), cfg)
    engine.dock(n_runs=2, seed=0)          # warm caches

    disable()
    t0 = time.perf_counter()
    engine.dock(n_runs=2, seed=0)
    untraced = time.perf_counter() - t0

    configure(tmp_path / "dock.jsonl", source="main")
    t0 = time.perf_counter()
    engine.dock(n_runs=2, seed=0)
    traced = time.perf_counter() - t0
    disable()

    print(f"\nOBS-OVERHEAD untraced {untraced:.3f}s traced {traced:.3f}s "
          f"(+{(traced / untraced - 1) * 100:.1f}%)")
    assert traced < untraced * 1.3


def test_span_times_vs_cost_model_cycles():
    """The EXPERIMENTS.md cross-check: per-backend reduce4 wall time
    (traced ``reduction.reduce4`` spans) against the cost model's
    reduction cycles.

    Asserted shape: the model prices both TC back-ends *below* the SIMT
    baseline (that is the paper's claim), while emulated Python wall
    time goes the other way (fpemu + software MMA are slower than
    ``np.sum``) — the two orderings must disagree, which is exactly why
    runtimes come from the cost model and not from wall clock.
    """
    case = get_test_case("7cpa")
    sf = case.scoring()
    wl = case.workload(n_blocks=64)

    rows = {}
    for backend in REDUCTION_BACKENDS:
        tracer = configure(None)
        ls = AdadeltaLocalSearch(
            CohortGradientCalculator(CohortScoring([sf]), backend),
            AdadeltaConfig(max_iters=30))
        rng = np.random.default_rng(3)
        genes = rng.normal(0, 0.5, size=(64, 6 + case.ligand.n_rot))
        genes[:, 0:3] += (case.maps.box_lo + case.maps.box_hi) / 2
        ls.minimize(genes)
        red = [r["dur_s"] for r in tracer.records()
               if r["name"] == "reduction.reduce4"]
        assert len(red) == 30                  # one per iteration
        model = KernelCostModel("A100", 64, backend)
        rows[backend] = {
            "mean_us": sum(red) / len(red) * 1e6,
            "model_cycles": model.iteration_cost(wl).clock.cycles(
                "reduction"),
            "f": model.tensor_fraction(wl),
        }

    base = rows["baseline"]
    print()
    for name, r in rows.items():
        print(f"SPAN-VS-MODEL backend={name} "
              f"py_us_per_iter={r['mean_us']:.1f} "
              f"py_ratio={r['mean_us'] / base['mean_us']:.2f} "
              f"model_cycles={r['model_cycles']:.0f} "
              f"model_ratio={r['model_cycles'] / base['model_cycles']:.2f} "
              f"f={r['f']:.3f}")

    for name in ("tc-fp16", "tcec-tf32"):
        assert rows[name]["model_cycles"] < base["model_cycles"]
        assert rows[name]["mean_us"] > base["mean_us"]
    # the clock64-style fraction f lands in the paper's Table 5 band
    assert 0.10 < base["f"] < 0.19
