"""The one bench gate (``tools/check_bench.py``) and the envelopes that
the four producers in ``benchmarks/`` derive from their raw sections."""

import json
import sys
from pathlib import Path

import pytest

from repro.simt.predictor import RuntimePredictor

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "benchmarks"))
from tools.check_bench import SCHEMA, main, metric  # noqa: E402
import bench_gateway_latency  # noqa: E402
import bench_hot_path  # noqa: E402
import bench_precision_frontier  # noqa: E402
import bench_store_io  # noqa: E402

#: committed baseline -> (bench name, producer module)
COMMITTED = {
    "BENCH_hot_path.json": ("hot_path", bench_hot_path),
    "BENCH_gateway.json": ("gateway", bench_gateway_latency),
    "BENCH_store_io.json": ("store_io", bench_store_io),
    "BENCH_precision.json": ("precision", bench_precision_frontier),
}


def _doc(*metrics, bench="demo"):
    return {"schema": SCHEMA, "bench": bench,
            "machine": {"numpy_ref_s": 0.1}, "metrics": list(metrics)}


def _gate(tmp_path, base, fresh=None):
    path = tmp_path / "base.json"
    path.write_text(json.dumps(base))
    argv = [str(path)]
    if fresh is not None:
        path = tmp_path / "fresh.json"
        path.write_text(json.dumps(fresh))
        argv += ["--fresh", str(path)]
    return main(argv)


class TestBound:
    @pytest.mark.parametrize("better, value, passes", [
        ("higher", 70.0 * (1 + 1e-9), True),
        ("higher", 70.0 * (1 - 1e-9), False),
        ("lower", 130.0 * (1 - 1e-9), True),
        ("lower", 130.0 * (1 + 1e-9), False),
    ])
    def test_each_direction_at_its_edge(self, tmp_path, better, value,
                                        passes):
        base = _doc(metric("rate", "1/ref", better, 100.0, 0.30))
        fresh = _doc(metric("rate", "1/ref", better, value, 0.30))
        assert _gate(tmp_path, base, fresh) == (0 if passes else 1)

    def test_unbounded_metric_is_not_compared(self, tmp_path):
        base = _doc(metric("rate", "1/ref", "higher", 100.0, 0.30),
                    metric("info", "s", "lower", 1.0))
        fresh = _doc(metric("rate", "1/ref", "higher", 100.0, 0.30),
                     metric("info", "s", "lower", 50.0))
        assert _gate(tmp_path, base, fresh) == 0

    def test_declaration_differs(self, tmp_path):
        # a fresh file cannot loosen the committed bound, even when its
        # value would pass under either
        base = _doc(metric("rate", "1/ref", "higher", 100.0, 0.30))
        fresh = _doc(metric("rate", "1/ref", "higher", 100.0, 0.50))
        assert _gate(tmp_path, base, fresh) == 1
        fresh = _doc(metric("rate", "1/s", "higher", 100.0, 0.30))
        assert _gate(tmp_path, base, fresh) == 1

    def test_missing_smoke_metric(self, tmp_path):
        both = metric("a", "1/ref", "higher", 1.0, 0.3, smoke=True)
        only = metric("b", "1/ref", "higher", 1.0, 0.3, smoke=True)
        assert _gate(tmp_path, _doc(both, only), _doc(both)) == 1
        assert _gate(tmp_path, _doc(both), _doc(both, only)) == 1
        # a bounded metric that not every run emits may be absent
        full_only = metric("c", "1/ref", "higher", 1.0, 0.3)
        assert _gate(tmp_path, _doc(both, full_only), _doc(both)) == 0

    def test_no_shared_bounded_metric(self, tmp_path):
        base = _doc(metric("a", "1/ref", "higher", 1.0, 0.3),
                    metric("n", "count", "higher", 3, min=1))
        fresh = _doc(metric("b", "1/ref", "higher", 1.0, 0.3),
                     metric("n", "count", "higher", 3, min=1))
        assert _gate(tmp_path, base, fresh) == 1


class TestLimits:
    @pytest.mark.parametrize("value, passes", [(2.0, True), (1.999, False)])
    def test_min_in_the_baseline(self, tmp_path, value, passes):
        base = _doc(metric("speedup", "x", "higher", value, min=2.0))
        assert _gate(tmp_path, base) == (0 if passes else 1)

    @pytest.mark.parametrize("value, passes", [(0, True), (1, False)])
    def test_max_in_the_fresh_file(self, tmp_path, value, passes):
        rate = metric("rate", "1/ref", "higher", 1.0, 0.5)
        base = _doc(rate, metric("spans", "count", "lower", 0, max=0))
        fresh = _doc(rate, metric("spans", "count", "lower", value, max=0))
        assert _gate(tmp_path, base) == 0
        assert _gate(tmp_path, base, fresh) == (0 if passes else 1)


class TestEnvelope:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True,
                                       "1", None])
    def test_value_must_be_a_finite_number(self, tmp_path, value):
        m = metric("rate", "1/ref", "higher", 1.0, 0.3)
        m["value"] = value
        assert _gate(tmp_path, _doc(m)) == 1

    @pytest.mark.parametrize("field, value", [
        ("better", "faster"), ("bound", -0.1), ("bound", float("nan")),
        ("min", float("inf")), ("smoke", False), ("minimum", 2.0)])
    def test_malformed_declaration(self, tmp_path, field, value):
        m = metric("rate", "1/ref", "higher", 1.0, 0.3)
        m[field] = value
        assert _gate(tmp_path, _doc(m)) == 1

    def test_smoke_metric_needs_a_bound(self, tmp_path):
        m = metric("n", "count", "higher", 1, smoke=True)
        assert _gate(tmp_path, _doc(m)) == 1

    def test_duplicate_name(self, tmp_path):
        m = metric("rate", "1/ref", "higher", 1.0, 0.3)
        assert _gate(tmp_path, _doc(m, dict(m))) == 1

    @pytest.mark.parametrize("key, value", [
        ("schema", "bench-hot-path/v2"), ("bench", ""),
        ("machine", {"numpy_ref_s": 0}), ("metrics", [])])
    def test_wrong_top_level(self, tmp_path, key, value):
        doc = _doc(metric("rate", "1/ref", "higher", 1.0, 0.3))
        doc[key] = value
        assert _gate(tmp_path, doc) == 1

    def test_fresh_file_of_another_bench(self, tmp_path):
        m = metric("rate", "1/ref", "higher", 1.0, 0.3)
        assert _gate(tmp_path, _doc(m), _doc(m, bench="other")) == 1


def _write(tmp_path, tag, docs):
    paths = []
    for i, doc in enumerate(docs):
        path = tmp_path / f"{tag}-{i}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return paths


def _rate(value, bound=0.30, better="higher"):
    return _doc(metric("rate", "1/ref", better, value, bound, smoke=True))


class TestRuns:
    """Several fresh runs gate by their medians; runs of the base commit
    replace the committed values, under the committed declarations."""

    @pytest.mark.parametrize("values, passes", [
        ((50.0, 71.0, 200.0), True),      # median 71 against edge 70
        ((69.0, 71.0, 69.5), False),      # median 69.5
    ])
    def test_fresh_runs_gate_by_their_median(self, tmp_path, values,
                                             passes):
        base = _write(tmp_path, "committed", [_rate(100.0)])
        fresh = _write(tmp_path, "head", [_rate(v) for v in values])
        assert main(base + ["--fresh", *fresh]) == (0 if passes else 1)

    @pytest.mark.parametrize("head, passes", [(36.0, True), (34.0, False)])
    def test_base_runs_replace_the_committed_value(self, tmp_path, head,
                                                   passes):
        # a slow machine phase: both sides read half the committed rate,
        # so the head passes against the base medians (edge 0.7 * 50)
        committed = _write(tmp_path, "committed", [_rate(100.0)])
        base = _write(tmp_path, "base", [_rate(v) for v in (49, 50, 60)])
        fresh = _write(tmp_path, "head", [_rate(head)] * 3)
        assert main(committed + ["--fresh", *fresh]) == 1
        assert main(committed + ["--fresh", *fresh, "--base", *base]) \
            == (0 if passes else 1)

    @pytest.mark.parametrize("key, values", [
        ("max", (0.0, 1.0, 0.0)),         # a count that must stay 0
        ("min", (1.0, 0.0, 1.0)),         # a flag that must stay true
    ])
    def test_a_limit_broken_in_one_run_fails(self, tmp_path, key, values):
        """Limits hold per run: the median of the three runs keeps the
        limit, the middle run does not."""
        def doc(v):
            return _doc(metric("rate", "1/ref", "higher", 100.0, 0.3,
                               smoke=True),
                        metric("flag", "bool", "higher", v,
                               **{key: 0.0 if key == "max" else 1.0}))
        committed = _write(tmp_path, "committed", [doc(values[0])])
        fresh = _write(tmp_path, "head", [doc(v) for v in values])
        assert main(committed + ["--fresh", fresh[0], fresh[2]]) == 0
        assert main(committed + ["--fresh", *fresh]) == 1

    def test_base_runs_cannot_loosen_the_bound(self, tmp_path):
        committed = _write(tmp_path, "committed", [_rate(100.0)])
        base = _write(tmp_path, "base", [_rate(100.0, bound=0.9)] * 3)
        fresh = _write(tmp_path, "head", [_rate(60.0)] * 3)
        assert main(committed + ["--fresh", *fresh, "--base", *base]) == 1

    def test_runs_must_agree(self, tmp_path):
        committed = _write(tmp_path, "committed", [_rate(100.0)])
        other = _doc(metric("rate", "1/ref", "higher", 100.0, 0.3,
                            smoke=True),
                     metric("x", "s", "lower", 1.0))
        fresh = _write(tmp_path, "head", [_rate(100.0), other])
        assert main(committed + ["--fresh", *fresh]) == 1
        fresh = _write(tmp_path, "head", [_rate(100.0),
                                          dict(_rate(100.0), bench="b")])
        assert main(committed + ["--fresh", *fresh]) == 1

    def test_base_needs_fresh(self, tmp_path):
        committed = _write(tmp_path, "committed", [_rate(100.0)])
        with pytest.raises(SystemExit):
            main(committed + ["--base", *committed])


@pytest.mark.parametrize("name", sorted(COMMITTED))
class TestCommittedFiles:
    def test_passes_alone_and_against_itself(self, name):
        path = str(ROOT / name)
        assert main([path]) == 0
        assert main([path, "--fresh", path]) == 0

    def test_envelope_is_what_its_producer_derives(self, name):
        bench, producer = COMMITTED[name]
        doc = json.loads((ROOT / name).read_text())
        assert (doc["schema"], doc["bench"]) == (SCHEMA, bench)
        assert doc["metrics"] == producer.metrics(doc)


def test_predictor_refuses_a_bench_file_that_is_not_the_gateway_one():
    with pytest.raises(ValueError, match="gateway"):
        RuntimePredictor.from_bench(ROOT / "BENCH_hot_path.json")
