"""Per-layer metrics of a traced pass (see README.md for the table)."""

from __future__ import annotations

import statistics

from common import percentile
from tracing import covered, layers, read_worker_spans, summarize

#: every layer the benchmark times; one absent from a pass is idle there
LAYERS = ("core", "search", "docking", "reduction", "tensorcore", "simt",
          "io", "serve.queue", "serve.pool", "serve.cache",
          "serve.manifest", "serve.screen", "gateway")

#: per_layer metric -> (unit, layer whose idleness zeroes it)
METRICS = {
    "search.ls_s": ("s", "search"),
    "search.ga_s": ("s", "search"),
    "search.generation_p50_s": ("s", "search"),
    "search.generation_p90_s": ("s", "search"),
    "search.evals": ("count", "search"),
    "search.success_share": ("share", "search"),
    "docking.score_s": ("s", "docking"),
    "docking.score_calls": ("count", "docking"),
    "docking.gradient_s": ("s", "docking"),
    "docking.pad_ratio": ("share", "docking"),
    "reduction.reduce4_s": ("s", "reduction"),
    "reduction.reduce4_calls": ("count", "reduction"),
    "reduction.reduce4_rows": ("count", "reduction"),
    "tensorcore.mma_calls": ("count", "tensorcore"),
    "core.self_s": ("s", "core"),
    "simt.model_us_per_eval": ("us", "simt"),
    "simt.predict_err_p50": ("share", "gateway"),
    "io.rlig.read_s": ("s", "io"),
    "io.rlig.pack_s": ("s", "io"),
    "serve.queue.build_s": ("s", "serve.queue"),
    "serve.pool.pools": ("count", "serve.pool"),
    "serve.pool.idle_share": ("share", "serve.pool"),
    "serve.pool.retries": ("count", "serve.pool"),
    "serve.pool.workers_replaced": ("count", "serve.pool"),
    "serve.pool.dead_letters": ("count", "serve.pool"),
    "serve.manifest.write_s": ("s", "serve.manifest"),
    "serve.manifest.writes": ("count", "serve.manifest"),
    "serve.manifest.bytes": ("bytes", "serve.manifest"),
    "serve.cache.hit_share": ("share", "serve.cache"),
    "serve.store.disk_hits": ("count", "serve.cache"),
    "serve.store.disk_misses": ("count", "serve.cache"),
    "gateway.latency_p50_s": ("s", "gateway"),
    "gateway.latency_p90_s": ("s", "gateway"),
    "gateway.slo_attainment": ("share", "gateway"),
    "gateway.submit_p50_s": ("s", "gateway"),
    "gateway.submit_p90_s": ("s", "gateway"),
    "gateway.wait_p50_s": ("s", "gateway"),
    "gateway.wait_p90_s": ("s", "gateway"),
    "gateway.exec_p50_s": ("s", "gateway"),
    "gateway.exec_p90_s": ("s", "gateway"),
    "gateway.batch_jobs_mean": ("count", "gateway"),
    "gateway.rejected": ("count", "gateway"),
    "gateway.generator_lag_p90_s": ("s", "gateway"),
    "trace.overhead_share": ("share", None),
    "trace.unattributed_share": ("share", None),
}


def layer_metrics(w, out: dict, plain: dict, plain_wall: float, tracer,
                  setup_tracer, spans_dir) -> tuple[dict, dict, list[dict]]:
    """``(metrics, layer table, spans)`` of the traced pass ``out``.

    ``plain`` is the same pass run untraced, the source of the latency
    numbers (measured with tracing off); ``plain_wall`` is the untraced
    wall time the tracing overhead is measured against.
    """
    spans = tracer.records()
    worker_spans, worker_counts, worker_gaps = read_worker_spans(
        spans_dir, base=len(tracer.spans))
    spans += worker_spans
    spans += _client_spans(out)
    counts = dict(tracer.counts)
    for k, v in worker_counts.items():
        counts[k] = counts.get(k, 0) + v
    gaps = tracer.generation_gaps + worker_gaps
    by_name = summarize(spans)

    def self_s(*names):
        return sum(by_name.get(n, {}).get("self_s", 0.0) for n in names)

    def total_s(name):
        return by_name.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    jobs = _job_results(out)
    tot = w.totals(out)
    extra = w.extra(out)
    extra_plain = w.extra(plain)
    worker_busy = sum(j["wall_seconds"] for j in jobs)
    pool_capacity = sum((b - a) * n for a, b, n in tracer.pool_maps)
    cache = {k: sum((j.get("cache") or {}).get(k, 0) for j in jobs)
             for k in ("hits", "misses", "disk_hits", "disk_misses")}
    lookups = cache["hits"] + cache["misses"]
    hit_s, window_s = covered(spans, tot["windows"])
    m = {
        "search.ls_s": self_s("search.ls"),
        "search.ga_s": self_s("search.ga"),
        "search.generation_p50_s": percentile(gaps, 50) if gaps else 0.0,
        "search.generation_p90_s": percentile(gaps, 90) if gaps else 0.0,
        "search.evals": tot["evals"],
        "search.success_share": extra.get("search.success_share", 0.0),
        "docking.score_s": total_s("docking.score"),
        "docking.score_calls": calls("docking.score"),
        "docking.gradient_s": self_s("docking.gradient"),
        "docking.pad_ratio": _pad_ratio(w, tracer.cohorts),
        "reduction.reduce4_s": total_s("reduction.reduce4"),
        "reduction.reduce4_calls": calls("reduction.reduce4"),
        "reduction.reduce4_rows": counts.get("reduction.reduce4_rows", 0),
        "tensorcore.mma_calls": counts.get("tensorcore.mma_calls", 0),
        "core.self_s": self_s("core.dock", "core.dock_cohort"),
        "simt.model_us_per_eval": extra.get("simt.model_us_per_eval", 0.0),
        "simt.predict_err_p50": _predict_err(out),
        "io.rlig.read_s": total_s("io.rlig.read"),
        "io.rlig.pack_s": summarize(setup_tracer.records()).get(
            "io.rlig.pack", {}).get("total_s", 0.0),
        "serve.queue.build_s": self_s("serve.queue.jobs", "serve.queue.submit",
                                      "serve.queue.drain", "serve.queue.pack"),
        "serve.pool.pools": calls("serve.pool.init"),
        "serve.pool.idle_share": (1.0 - worker_busy / pool_capacity
                                  if pool_capacity else 0.0),
        "serve.pool.retries": sum(j["attempts"] - 1 for j in jobs),
        "serve.pool.workers_replaced": sum(p.workers_replaced
                                           for p in tracer.pools),
        "serve.pool.dead_letters": sum(len(p.dead_letters)
                                       for p in tracer.pools),
        "serve.manifest.write_s": total_s("serve.manifest.write"),
        "serve.manifest.writes": calls("serve.manifest.write"),
        "serve.manifest.bytes": counts.get("serve.manifest.bytes", 0),
        "serve.cache.hit_share": cache["hits"] / lookups if lookups else 0.0,
        "serve.store.disk_hits": cache["disk_hits"],
        "serve.store.disk_misses": cache["disk_misses"],
        "trace.overhead_share": out["wall"] / plain_wall - 1.0,
        "trace.unattributed_share": (1.0 - hit_s / window_s
                                     if window_s else 0.0),
    }
    m.update(_gateway_metrics(out, extra_plain, tracer.batches))
    table = _table(by_name, counts, worker_busy, pool_capacity)
    for name, (unit, layer) in METRICS.items():
        if layer is not None and table[layer]["idle"]:
            m[name] = 0.0
    metrics = {name: (float(m[name]), unit)
               for name, (unit, _layer) in METRICS.items()}
    return metrics, table, spans


def _client_spans(out: dict) -> list[dict]:
    """The load generator's lag and submit intervals, as spans."""
    spans = []
    for due, sent, answered in out.get("sends", []):
        for name, a, b in (("benchmark.lag", due, sent),
                           ("gateway.submit", sent, answered)):
            spans.append({"id": -1 - len(spans), "name": name, "start": a,
                          "end": max(a, b), "parent": None, "job": None,
                          "tid": 0, "pid": 0, "failed": False})
    return spans


def _job_results(out: dict) -> list[dict]:
    """JobResult dicts of the pass (screen: streamed; gateway: manifest)."""
    if "streamed" in out:
        return [r.to_dict() for r in out["streamed"]]
    return [r["result"] for r in out.get("records", {}).values()
            if r.get("result")]


def _pad_ratio(w, cohorts: list[list[dict]]) -> float:
    """Atom-lane padding of the packed cohorts, from member sizes."""
    n_atoms = [lig.n_atoms for lig in getattr(w, "ligands", [])]
    lanes = real = 0
    for members in cohorts:
        atoms = [n_atoms[s["index"]] for s in members]
        lanes += len(atoms) * max(atoms)
        real += sum(atoms)
    return 1.0 - real / lanes if lanes else 0.0


def _predict_err(out: dict) -> float:
    errs = [abs(r["predicted_s"] - r["wall_seconds"]) / r["wall_seconds"]
            for r in out.get("records", {}).values()
            if r.get("wall_seconds")]
    return percentile(errs, 50) if errs else 0.0


def _gateway_metrics(out: dict, extra_plain: dict, batches: list) -> dict:
    records = [r for r in out.get("records", {}).values()
               if r.get("wall_seconds") is not None]
    waits = [r["completed_at"] - r["submitted_at"] - r["wall_seconds"]
             for r in records]
    execs = [r["wall_seconds"] for r in records]
    submits = [b - a for _due, a, b in out.get("sends", [])]
    lags = [a - due for due, a, _b in out.get("sends", [])]

    def pct(xs, q):
        return percentile(xs, q) if xs else 0.0

    return {
        "gateway.latency_p50_s": extra_plain.get("gateway.latency_p50_s", 0.0),
        "gateway.latency_p90_s": extra_plain.get("gateway.latency_p90_s", 0.0),
        "gateway.slo_attainment": extra_plain.get("gateway.slo_attainment",
                                                  0.0),
        "gateway.submit_p50_s": pct(submits, 50),
        "gateway.submit_p90_s": pct(submits, 90),
        "gateway.wait_p50_s": pct(waits, 50),
        "gateway.wait_p90_s": pct(waits, 90),
        "gateway.exec_p50_s": pct(execs, 50),
        "gateway.exec_p90_s": pct(execs, 90),
        "gateway.batch_jobs_mean": statistics.fmean(batches) if batches
        else 0.0,
        "gateway.rejected": len(out.get("rejected", [])),
        "gateway.generator_lag_p90_s": pct(lags, 90),
    }


def _table(by_name, counts, worker_busy, pool_capacity) -> dict:
    """Per layer: calls, self seconds, wait seconds, failures, idle."""
    folded = layers(by_name, counts)
    table = {}
    for layer in LAYERS:
        row = folded.get(layer, {"calls": 0, "self_s": 0.0, "wait_s": 0.0,
                                 "failed": 0})
        table[layer] = dict(row, idle=row["calls"] == 0)
    table["serve.pool"]["wait_s"] = max(0.0, pool_capacity - worker_busy)
    # simt is read from the results, not timed: busy wherever docks ran
    table["simt"]["idle"] = table["core"]["idle"]
    return table
