"""Tests for repro.obs: tracer spans, schema, report, stage spans."""

import threading

import pytest

from repro.obs import (
    NullTracer,
    SchemaError,
    Tracer,
    configure,
    disable,
    get_tracer,
    render_summary,
    summarize_log,
    validate_event,
    validate_log,
)
from repro.obs.schema import read_log


class TestSpanNesting:
    def test_nested_spans_record_parent_ids(self):
        t = Tracer()
        with t.span("outer") as outer:
            with t.span("middle") as middle:
                with t.span("inner") as inner:
                    pass
            with t.span("sibling") as sibling:
                pass
        assert outer.parent_id is None
        assert middle.parent_id == outer.span_id
        assert inner.parent_id == middle.span_id
        assert sibling.parent_id == outer.span_id
        # emission order is exit order: inner first, outer last
        names = [r["name"] for r in t.records()]
        assert names == ["inner", "middle", "sibling", "outer"]

    def test_span_ids_unique_and_durations_positive(self):
        t = Tracer()
        with t.span("a"):
            with t.span("b"):
                pass
        recs = t.records()
        assert len({r["span_id"] for r in recs}) == 2
        assert all(r["dur_s"] >= 0 for r in recs)

    def test_exit_time_attrs_and_error_marker(self):
        t = Tracer()
        with t.span("work", batch=4) as s:
            s.set(evals=128)
        with pytest.raises(RuntimeError):
            with t.span("boom"):
                raise RuntimeError("x")
        done, failed = t.records()
        assert done["attrs"] == {"batch": 4, "evals": 128}
        assert failed["attrs"]["error"] == "RuntimeError"

    def test_threads_get_independent_stacks(self):
        t = Tracer()
        seen = {}

        def run(tag):
            with t.span(f"root-{tag}") as root:
                with t.span(f"child-{tag}") as child:
                    seen[tag] = (root, child)

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        for tag, (root, child) in seen.items():
            assert root.parent_id is None
            assert child.parent_id == root.span_id

    def test_ring_buffer_bounded(self):
        t = Tracer(ring_size=8)
        for i in range(20):
            t.event("tick", i=i)
        recs = t.records()
        assert len(recs) == 8
        assert [r["attrs"]["i"] for r in recs] == list(range(12, 20))


class TestJsonlSink:
    def test_emitted_log_is_schema_valid(self, tmp_path):
        path = tmp_path / "t.jsonl"
        t = Tracer(path, source="main")
        with t.span("outer", case="1u4d"):
            with t.span("inner"):
                pass
        t.event("heartbeat", jobs_done=3)
        t.close()
        counts = validate_log(path)
        assert counts == {"events": 3, "spans": 2, "points": 1,
                          "sources": ["main"]}

    def test_append_mode_interleaves_sources(self, tmp_path):
        """Two tracers on one path model the parent + worker processes
        sharing one log: both streams must survive and validate."""
        path = tmp_path / "t.jsonl"
        a = Tracer(path, source="main")
        b = Tracer(path, source="worker-0")
        with a.span("parent"):
            with b.span("worker-side"):
                pass
        a.event("dispatch")
        a.close()
        b.close()
        assert validate_log(path)["sources"] == ["main", "worker-0"]

    def test_unserialisable_attr_degrades_to_repr(self, tmp_path):
        path = tmp_path / "t.jsonl"
        t = Tracer(path)
        t.event("odd", payload=object())
        t.close()
        [(_, rec)] = list(read_log(path))
        assert "object object" in rec["attrs"]["payload"]


class TestGlobalTracer:
    def test_default_is_noop(self):
        disable()
        t = get_tracer()
        assert isinstance(t, NullTracer)
        assert not t.enabled
        with t.span("anything") as s:
            s.set(x=1)   # all no-ops, nothing raised
        t.event("nothing")
        assert t.records() == []

    def test_configure_then_disable(self, tmp_path):
        path = tmp_path / "t.jsonl"
        t = configure(path, source="main")
        assert get_tracer() is t and t.enabled
        with t.span("s"):
            pass
        disable()
        assert isinstance(get_tracer(), NullTracer)
        assert validate_log(path)["spans"] == 1


class TestSchema:
    def _span(self, **over):
        rec = {"v": 1, "type": "span", "name": "s", "ts": 1.5,
               "pid": 10, "src": "main", "span_id": 0,
               "parent_id": None, "dur_s": 0.1}
        rec.update(over)
        return rec

    def test_valid_records_pass(self):
        validate_event(self._span())
        validate_event({"v": 1, "type": "event", "name": "e", "ts": 0.0,
                        "pid": 1, "src": "w", "attrs": {"k": 1}})

    @pytest.mark.parametrize("corrupt", [
        {"v": 2},                      # wrong version
        {"type": "metric"},            # unknown type
        {"name": 7},                   # wrong type
        {"pid": True},                 # bool is not an int here
        {"dur_s": -0.1},               # negative duration
        {"span_id": "x"},              # non-int span id
        {"attrs": []},                 # attrs must be an object
    ])
    def test_corrupt_records_rejected(self, corrupt):
        with pytest.raises(SchemaError):
            validate_event(self._span(**corrupt))

    def test_missing_field_names_line(self):
        with pytest.raises(SchemaError, match="line 3.*'src'"):
            validate_event({"v": 1, "type": "event", "name": "e",
                            "ts": 0.0, "pid": 1}, line_no=3)

    def test_readme_names_every_emitted_span_and_event(self):
        """Names are free-form on the wire, so README's Observability
        section is the one list of them: every span, point event and
        ledger note ``src/`` emits must appear there."""
        import re
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        emitted = set()
        for path in (root / "src").rglob("*.py"):
            text = path.read_text()
            emitted.update(re.findall(
                r'\.(?:span|event)\(\s*"([\w.]+)"|Note\("([\w.]+)"', text))
        emitted = {a or b for a, b in emitted}
        readme = (root / "README.md").read_text()
        section = readme.split("## Observability")[1].split("\n## ")[0]
        assert {"reduction.reduce4", "job.dead"} <= emitted
        assert sorted(n for n in emitted if f"`{n}`" not in section) == []

    def test_invalid_json_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v": 1, "type": "event", "name": "e", '
                        '"ts": 0.0, "pid": 1, "src": "m"}\n{oops\n')
        with pytest.raises(SchemaError, match="line 2"):
            validate_log(path)


class TestReport:
    def _write_log(self, path):
        t = Tracer(path, source="main")
        with t.span("engine.dock"):
            with t.span("adadelta.minimize"):
                pass
        t.event("job.dispatch", job_id="j1")
        t.event("job.complete", job_id="j1",
                cache={"hits": 3, "misses": 1, "evictions": 0, "races": 0})
        t.event("pool.depth", pending=2, in_flight=1)
        t.event("pool.depth", pending=0, in_flight=0)
        t.event("worker.heartbeat", worker_id=0, jobs_done=1,
                cache={"hit_rate": 0.75})
        t.close()

    def test_summarize_log(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write_log(path)
        s = summarize_log(path)
        assert s["spans"]["engine.dock"]["count"] == 1
        assert s["spans"]["adadelta.minimize"]["total_s"] \
            <= s["spans"]["engine.dock"]["total_s"]
        assert s["jobs"] == {"dispatched": 1, "completed": 1, "failed": 0}
        assert s["cache"]["hits"] == 3
        assert s["cache"]["hit_rate"] == pytest.approx(0.75)
        assert s["queue_depth"] == {"samples": 2, "min": 0, "max": 2,
                                    "last": 0}
        assert "main" in s["heartbeats"]
        assert s["heartbeats"]["main"]["jobs_done"] == 1

    def test_render_summary_mentions_everything(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write_log(path)
        text = render_summary(summarize_log(path))
        for needle in ("engine.dock", "1 dispatched, 1 completed",
                       "queue depth", "3 hits / 1 misses",
                       "worker heartbeats", "hit rate 75%"):
            assert needle in text, needle

    def test_summarize_rejects_corrupt_log(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"v": 99}\n')
        with pytest.raises(SchemaError):
            summarize_log(path)

    def test_summary_streams_the_log(self, tmp_path):
        """The fold keeps a compact tuple per span, never whole records,
        so ``repro stats`` on a log of fat records peaks at a fraction of
        the log's size."""
        import tracemalloc
        path = tmp_path / "fat.jsonl"
        blob = "x" * 2000
        t = Tracer(path, source="main")
        for _ in range(1000):
            with t.span("grid.build", blob=blob):
                with t.span("adadelta.minimize", blob=blob):
                    pass
            t.event("worker.heartbeat", blob=blob)
        t.close()
        size = path.stat().st_size
        tracemalloc.start()
        try:
            s = summarize_log(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s["spans"]["grid.build"]["count"] == 1000
        assert "adadelta.minimize" not in s["spans"]
        assert peak < size / 4, (peak, size)

    def test_spans_under_grid_build_count_in_its_row_only(self, tmp_path):
        """Children close before their parents, and span ids restart
        with each tracer a process installs: the fold must find each
        parent by a later record of the same pid."""
        path = tmp_path / "t.jsonl"
        t = Tracer(path, source="main")
        with t.span("adadelta.minimize"):         # id 0: docking
            pass
        with t.span("grid.build"):                # id 1
            with t.span("lga.refine"):            # id 2
                with t.span("adadelta.minimize"):  # id 3
                    pass
        t.close()
        t = Tracer(path, source="main")           # ids restart at 0
        with t.span("lga.ls"):                     # id 0
            with t.span("adadelta.minimize"):     # id 1, like grid.build
                pass
        t.close()
        s = summarize_log(path)["spans"]
        assert s["adadelta.minimize"]["count"] == 2
        assert s["grid.build"]["count"] == 1
        assert "lga.refine" not in s
        assert s["lga.ls"]["count"] == 1

    def test_case_construction_is_not_docking_work(self, tmp_path,
                                                   monkeypatch):
        """A cold ``load_case`` refines the native pose with ADADELTA
        under ``grid.build``; those spans must not land in the docking
        rows of ``repro stats``."""
        from repro.core import DockingConfig, DockingEngine
        from repro.search.lga import LGAConfig
        from repro.serve.cache import load_case
        from repro.testcases import library

        monkeypatch.setattr(library, "_CACHE", {})   # build 1u4d cold
        path = tmp_path / "t.jsonl"
        tracer = configure(path)
        case = load_case({"kind": "case", "case": "1u4d"})
        cfg = DockingConfig(backend="baseline",
                            lga=LGAConfig(pop_size=8, max_evals=100_000,
                                          max_gens=3, ls_iters=4,
                                          ls_rate=0.25))
        DockingEngine(case, cfg).dock(n_runs=2, seed=5)
        disable()
        spans = [r for r in tracer.records() if r["type"] == "span"]
        ls_calls = sum(r["name"] == "lga.ls" for r in spans)
        assert ls_calls == 3
        # the refinement really ran, inside the build
        [build] = [r for r in spans if r["name"] == "grid.build"]
        assert sum(r["name"] == "adadelta.minimize" for r in spans) \
            == ls_calls + 1
        rows = summarize_log(path)["spans"]
        assert rows["grid.build"]["count"] == 1
        assert rows["grid.build"]["total_s"] == build["dur_s"]
        assert rows["adadelta.minimize"]["count"] == ls_calls
        assert rows["reduction.reduce4"]["count"] == 4 * ls_calls

    def test_cli_case_build_is_not_docking_work(self, tmp_path,
                                                monkeypatch, capsys):
        """The CLI brackets ``-case`` construction in ``case.build``; its
        refinement is folded the same way."""
        from repro.cli import main
        from repro.testcases import library

        monkeypatch.setattr(library, "_CACHE", {})   # build 1u4d cold
        path = tmp_path / "cli.jsonl"
        assert main(["-case", "1u4d", "-nrun", "2", "--evals", "600",
                     "--pop", "8", "--lsit", "4", "--trace",
                     str(path)]) == 0
        capsys.readouterr()
        spans = [r for _, r in read_log(path) if r["type"] == "span"]
        ls_calls = sum(r["name"] == "lga.ls" for r in spans)
        assert ls_calls > 0
        assert sum(r["name"] == "adadelta.minimize" for r in spans) \
            == ls_calls + 1
        rows = summarize_log(path)["spans"]
        assert rows["case.build"]["count"] == 1
        assert rows["adadelta.minimize"]["count"] == ls_calls


class TestStatsCli:
    def test_stats_renders_a_real_log(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "t.jsonl"
        t = Tracer(path, source="main")
        with t.span("engine.dock"):
            pass
        t.close()
        assert main(["stats", str(path), "--check"]) == 0
        out = capsys.readouterr().out
        assert "schema v1 OK" in out
        assert "engine.dock" in out

    def test_stats_errors_are_structured(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["stats", str(tmp_path / "absent.jsonl")]) == 2
        assert "no such trace log" in capsys.readouterr().err
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{}\n")
        assert main(["stats", str(bad)]) == 2
        assert "invalid trace log" in capsys.readouterr().err


class TestReductionMetrics:
    def test_gradient_call_records_backend_histogram(self, case_small,
                                                     tmp_path):
        """The cross-check hook: each gradient call's reduce4 is one
        ``reduction.reduce4`` span naming its backend and row count, and
        ``repro stats`` folds those spans into one count/total/min/max
        row, so traced Python times can be compared against the simt
        cost model's cycle ratios."""
        import numpy as np
        from repro.docking.cohort import (CohortGradientCalculator,
                                          CohortScoring)
        from repro.docking.scoring import ScoringFunction

        path = tmp_path / "t.jsonl"
        tracer = configure(path)
        sf = ScoringFunction(case_small.ligand, case_small.maps)
        grad = CohortGradientCalculator(CohortScoring([sf]), "baseline")
        genes = np.zeros((4, 6 + case_small.ligand.n_rot))
        grad(genes)
        disable()
        [span] = [r for r in tracer.records() if r["type"] == "span"]
        assert span["name"] == "reduction.reduce4"
        assert span["attrs"] == {"backend": "baseline", "rows": 4}
        assert span["dur_s"] > 0
        row = summarize_log(path)["spans"]["reduction.reduce4"]
        assert row["count"] == 1 and row["total_s"] == span["dur_s"]


class TestStageSpans:
    """The lock-step engine's stages and reductions are spans, so one
    traced dock is enough to split its wall time."""

    def test_traced_dock_records_stage_and_reduce4_spans(self, tmp_path):
        from repro.core import DockingConfig, DockingEngine
        from repro.search.lga import LGAConfig
        from repro.testcases import get_test_case

        cfg = DockingConfig(backend="baseline",
                            lga=LGAConfig(pop_size=8, max_evals=100_000,
                                          max_gens=4, ls_iters=5,
                                          ls_rate=0.25))
        engine = DockingEngine(get_test_case("1u4d"), cfg)
        path = tmp_path / "dock.jsonl"
        tracer = configure(path)
        result = engine.dock(n_runs=2, seed=3)
        disable()
        gens = result.generations
        assert gens == 4
        spans = [r for r in tracer.records() if r["type"] == "span"]
        by_name: dict[str, list[dict]] = {}
        for rec in spans:
            by_name.setdefault(rec["name"], []).append(rec)
        # one GA and one LS stage per generation; scoring also runs the
        # final pass after the last generation
        assert len(by_name["lga.ga_generation"]) == gens
        assert len(by_name["lga.ls"]) == gens
        assert len(by_name["lga.score"]) == gens + 1
        [run] = by_name["lga.run"]
        for stage in ("lga.score", "lga.ga_generation", "lga.ls"):
            assert all(r["parent_id"] == run["span_id"]
                       for r in by_name[stage]), stage
        # every gradient call is one reduce4 span, nested in its LS batch
        ls_ids = {r["span_id"] for r in by_name["lga.ls"]}
        minimize = by_name["adadelta.minimize"]
        assert len(minimize) == gens
        assert all(r["parent_id"] in ls_ids for r in minimize)
        for m in minimize:
            kids = [r for r in by_name["reduction.reduce4"]
                    if r["parent_id"] == m["span_id"]]
            assert len(kids) == m["attrs"]["iters"] == 5
            assert all(k["attrs"] == {"backend": "baseline",
                                      "rows": m["attrs"]["batch"]}
                       for k in kids)
        assert len(by_name["reduction.reduce4"]) == 5 * gens
        # and repro stats shows them as ordinary span rows
        summary = summarize_log(path)
        assert summary["spans"]["reduction.reduce4"]["count"] == 5 * gens
        assert "reduction.reduce4" in render_summary(summary)
