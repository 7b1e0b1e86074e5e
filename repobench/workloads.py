"""The three workloads: inputs from the seed, set-up, timed pass, checks.

Each workload object is driven by ``run.py`` in this order::

    w.setup()              # repeated; each repetition starts from scratch
    out = w.run()          # one timed pass
    errors = w.check(out)  # [(item key or None for the whole run, message)]
    w.ok_keys(out), w.totals(out), w.extra(out)   # what the metrics read
    w.close()

Work per run is fixed from ``--seconds`` through a nominal per-item cost,
so one seed and one ``--seconds`` always mean the same work; on the
2-vCPU host the nominal costs were measured on, a pass takes about
``--seconds``.
"""

from __future__ import annotations

import json
import math
import shutil
import threading
import time
from pathlib import Path

import numpy as np

from common import (MAP_CASE, ledger_evals, mixed_ligands, percentile,
                    warm_store)

#: LGA budgets named after the ``BENCH_hot_path.json`` sections they copy
REFERENCE_LGA = dict(pop_size=30, max_evals=6000, max_gens=100,
                     ls_iters=10, ls_rate=0.3)
SCREEN_LGA = dict(pop_size=30, max_evals=3000, max_gens=100,
                  ls_iters=10, ls_rate=0.3)
#: the open loop's per-job budget: small, so pool hand-off shows
GATEWAY_LGA = dict(pop_size=10, max_evals=600, max_gens=60,
                   ls_iters=5, ls_rate=0.3)
#: a few reference-shaped generations: enough to fill the per-case caches
WARMUP_LGA = dict(REFERENCE_LGA, max_evals=600, max_gens=4)


def _lga(params: dict):
    from repro.search.lga import LGAConfig
    return LGAConfig(**params)


def _seed_panel(seed: int, n: int) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(seed).spawn(n)


class Workload:
    """One workload: ``work`` is its scratch directory, ``seed`` makes its
    inputs and ``seconds`` sizes its work (see the module docstring)."""

    name = "abstract"

    def __init__(self, work: Path, seed: int, seconds: float) -> None:
        self.work = work
        self.seed = seed
        self.setups = 0

    def restart(self) -> None:
        """Ready the workload for another timed pass."""

    def fresh_dir(self, tag: str) -> Path:
        path = self.work / tag
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# dock-tcec


class DockTcec(Workload):
    """Closed loop of 7cpa ``tcec-tf32`` docks, 8 runs each, one process."""

    name = "dock-tcec"
    #: wall seconds of one item on the reference host
    NOMINAL_ITEM_S = 5.0
    N_RUNS = 8

    def __init__(self, work, seed, seconds) -> None:
        super().__init__(work, seed, seconds)
        self.n_docks = max(1, round(seconds / self.NOMINAL_ITEM_S))

    def config(self):
        from repro.core import DockingConfig
        return DockingConfig(backend="tcec-tf32", device="A100",
                             block_size=64, lga=_lga(REFERENCE_LGA))

    def setup(self) -> None:
        """Build the case and engine, then one short untimed dock of the
        same case and backend that fills the flat-map and torsion caches."""
        from dataclasses import replace

        from repro.core import DockingEngine
        from repro.testcases import get_test_case
        from repro.testcases.library import clear_cache

        clear_cache()
        self.case = get_test_case(MAP_CASE)
        self.engine = DockingEngine(self.case, self.config())
        warm = replace(self.config(), lga=_lga(WARMUP_LGA))
        DockingEngine(self.case, warm).dock(n_runs=1, seed=self.seed)
        self.setups += 1

    def run(self) -> dict:
        # fresh sequences every pass: docking spawns children from them
        results, spans = [], []
        t0 = time.perf_counter()
        for s in _seed_panel(self.seed, self.n_docks):
            a = time.perf_counter()
            results.append(self.engine.dock(n_runs=self.N_RUNS, seed=s))
            spans.append((a, time.perf_counter()))
        return {"results": results, "items": spans,
                "wall": time.perf_counter() - t0}

    def check(self, out: dict) -> list[tuple]:
        errors = []
        want = self.N_RUNS * ledger_evals(self.config().lga)
        for k, r in enumerate(out["results"]):
            ledger = sum(run.evals_used for run in r.runs)
            if r.total_evals != want or ledger != want:
                errors.append((k, f"dock {k}: total_evals {r.total_evals},"
                                  f" run ledger {ledger}, expected {want}"))
            if not all(math.isfinite(run.best_score) for run in r.runs):
                errors.append((k, f"dock {k}: non-finite best score"))
        # the last dock again, same seed: must be bit-identical
        k = len(out["results"]) - 1
        again = self.engine.dock(n_runs=self.N_RUNS,
                                 seed=_seed_panel(self.seed, k + 1)[k])
        if _fingerprint(again) != _fingerprint(out["results"][k]):
            errors.append((k, f"dock {k}: a repeated dock with the same "
                              f"seed is not bit-identical"))
        return errors

    def ok_keys(self, out: dict) -> set:
        return set(range(len(out["results"])))

    def totals(self, out: dict) -> dict:
        return {"evals": sum(r.total_evals for r in out["results"]),
                "attempted": len(out["results"]),
                "windows": out["items"]}

    def extra(self, out: dict) -> dict:
        runs = [o for r in out["results"] for o in r.outcomes]
        return {"search.success_share":
                sum(o.first_success_score is not None for o in runs)
                / len(runs),
                "simt.model_us_per_eval": float(np.mean(
                    [r.us_per_eval for r in out["results"]]))}


def _fingerprint(result) -> list:
    return [(run.best_score.hex(), run.evals_used,
             [float(g).hex() for g in run.best_genotype])
            for run in result.runs]


# ----------------------------------------------------------------------
# screen-mixed


class ScreenMixed(Workload):
    """Offline ``.rlig`` screen: 2 workers, cohorts of 8, one pool."""

    name = "screen-mixed"
    #: ligands per second on the reference host
    NOMINAL_LIGANDS_PER_S = 4.0
    N_RUNS = 2
    WORKERS = 2
    COHORT = 8

    def __init__(self, work, seed, seconds) -> None:
        super().__init__(work, seed, seconds)
        self.n_ligands = max(2 * self.COHORT,
                             round(seconds * self.NOMINAL_LIGANDS_PER_S))
        self.passes = 0

    def config(self):
        from repro.core import DockingConfig
        return DockingConfig(backend="baseline", lga=_lga(SCREEN_LGA))

    def setup(self) -> None:
        """Generate and pack the library, warm a fresh disk store."""
        from repro.io import rlig
        from repro.testcases import get_test_case

        root = self.fresh_dir(f"setup{self.setups}")
        self.store = root / "store"
        warm_store(self.store)
        rng = np.random.default_rng(self.seed)
        allowed = set(get_test_case(MAP_CASE).maps.type_names)
        self.ligands = mixed_ligands(rng, self.n_ligands, allowed)
        self.pack = root / "library.rlig"
        rlig.pack_rlig(self.pack, self.ligands)
        self.setups += 1

    def screen(self):
        from repro.serve import VirtualScreen
        return VirtualScreen(case=MAP_CASE, rlig=self.pack,
                             config=self.config(), n_runs=self.N_RUNS,
                             seed=self.seed)

    def run(self) -> dict:
        out_dir = self.fresh_dir(f"pass{self.passes}")
        self.passes += 1
        manifest = out_dir / "manifest.json"
        streamed: list = []
        t0 = time.perf_counter()
        self.screen().run(workers=self.WORKERS, cohort_size=self.COHORT,
                          store=self.store, manifest=manifest,
                          stream=streamed.append)
        t1 = time.perf_counter()
        return {"streamed": streamed, "manifest": manifest,
                "items": [(t0, t1)], "wall": t1 - t0}

    def check(self, out: dict) -> list[tuple]:
        from repro.core import DockingEngine
        from repro.serve.manifest import load_manifest_jobs

        errors = []
        streamed = out["streamed"]
        want = self.N_RUNS * ledger_evals(self.config().lga)
        labels = [r.label for r in streamed]
        if sorted(labels) != sorted(lig.name for lig in self.ligands):
            errors.append((None, f"expected one terminal record per "
                                 f"ligand, got {len(labels)} for "
                                 f"{len(self.ligands)}"))
        errors += _check_results(
            {r.label: (r.status, r.result) for r in streamed}, want)
        jobs = load_manifest_jobs(out["manifest"])
        ranked = _ranking({j["label"]: j.get("result") for j in
                           jobs.values() if j["status"] == "ok"})
        if ranked != _ranking({r.label: r.result for r in streamed
                               if r.status == "ok"}):
            errors.append((None, "manifest ranking differs from the "
                                 "streamed results"))
        # one cohort member against a solo dock of the same ligand + seed
        jobs_by_label = {j.label: j for j in self.screen().jobs()}
        pick = streamed[len(streamed) // 2] if streamed else None
        if pick is not None and pick.result is not None:
            from repro.serve.cache import load_case
            from repro.serve.queue import seed_from_spec
            job = jobs_by_label[pick.label]
            solo = DockingEngine(load_case(job.spec), job.config).dock(
                n_runs=job.n_runs, seed=seed_from_spec(job.seed))
            if [r.to_dict(include_history=False) for r in solo.runs] \
                    != pick.result["runs"]:
                errors.append((pick.label, f"{pick.label}: cohort result "
                                           f"differs from a solo dock of the "
                                           f"same ligand and seed"))
        return errors

    def ok_keys(self, out: dict) -> set:
        return {r.label for r in out["streamed"] if r.status == "ok"}

    def totals(self, out: dict) -> dict:
        return {"evals": sum(r.result["total_evals"]
                             for r in out["streamed"]
                             if r.result is not None),
                "attempted": self.n_ligands, "windows": out["items"]}

    def extra(self, out: dict) -> dict:
        return {"simt.model_us_per_eval": _model_us_per_eval(
            [r.result for r in out["streamed"] if r.result is not None])}


def _check_results(results: dict, want_evals: int) -> list[tuple]:
    """Per item: status ok, finite scores, evals equal to the ledger."""
    errors = []
    for label, (status, result) in results.items():
        if status != "ok" or result is None:
            errors.append((label, f"{label}: status {status}"))
            continue
        scores = [r.get("best_score") for r in result.get("runs", [])]
        if not scores or not all(isinstance(s, (int, float))
                                 and math.isfinite(s) for s in scores):
            errors.append((label, f"{label}: non-finite or missing best "
                                  f"score"))
        if result.get("total_evals") != want_evals:
            errors.append((label, f"{label}: total_evals "
                                  f"{result.get('total_evals')}, ledger "
                                  f"{want_evals}"))
    return errors


def _ranking(results: dict) -> list[tuple[str, str]]:
    """(label, best score as hex) best first; ties broken by label."""
    rows = []
    for label, result in results.items():
        if result is None:
            continue
        best = min(float(r["best_score"]) for r in result["runs"])
        rows.append((best, label))
    return [(label, best.hex()) for best, label in sorted(rows)]


def _model_us_per_eval(results: list[dict]) -> float:
    evals = sum(r["total_evals"] for r in results)
    return (sum(r["runtime_seconds"] for r in results) * 1e6 / evals
            if evals else 0.0)


# ----------------------------------------------------------------------
# gateway-online


class GatewayOnline(Workload):
    """Open loop: seeded Poisson arrivals into an in-process gateway."""

    name = "gateway-online"
    #: arrivals per second: about half of what the gateway sustains on the
    #: reference host within the latency limit, a constant of the workload
    RATE = 5.0
    #: p90 needs ten jobs beyond it
    MIN_JOBS = 100
    #: latency limit [s]: the admission SLO and the slo_attainment bar
    LIMIT_S = 5.0
    SHARDS = 2

    def __init__(self, work, seed, seconds) -> None:
        super().__init__(work, seed, seconds)
        self.n_jobs = max(self.MIN_JOBS, round(seconds * self.RATE))
        # a Poisson process conditioned on n arrivals in [0, n / RATE)
        # is n sorted uniforms: the seed moves arrivals, not their count
        rng = np.random.default_rng([seed, 1])
        self.offsets = np.sort(rng.uniform(0.0, self.n_jobs / self.RATE,
                                           self.n_jobs))
        self.gateway = None
        self.passes = 0

    def config(self):
        from repro.core import DockingConfig
        return DockingConfig(backend="baseline", lga=_lga(GATEWAY_LGA))

    def setup(self) -> None:
        """Pack the library, warm a fresh store, start the gateway and
        stream one warm-up job through it."""
        from repro.io import rlig
        from repro.io.rlig import RligReader
        from repro.testcases import get_test_case

        root = self.fresh_dir(f"setup{self.setups}")
        self.store = root / "store"
        warm_store(self.store)
        rng = np.random.default_rng([self.seed, 2])
        allowed = set(get_test_case(MAP_CASE).maps.type_names)
        # the last ligand is the warm-up job's, outside the timed set
        ligands = mixed_ligands(rng, self.n_jobs + 1, allowed)
        self.pack = root / "library.rlig"
        rlig.pack_rlig(self.pack, ligands)
        with RligReader(self.pack) as reader:
            self.digests = [e["sha256"] for e in reader.index]
        self.start_gateway(root)
        self.setups += 1

    def start_gateway(self, root: Path) -> None:
        from repro.gateway.client import GatewayClient
        from repro.gateway.server import Gateway, GatewayConfig

        self.close()
        self.manifest = root / f"manifest{self.passes}"
        self.gateway = Gateway(GatewayConfig(
            n_shards=self.SHARDS, workers=1, manifest=str(self.manifest),
            manifest_shards=self.SHARDS, store=str(self.store),
            slo_seconds=self.LIMIT_S)).start()
        self.client = GatewayClient(f"http://127.0.0.1:{self.gateway.port}",
                                    timeout=60.0)
        warm = self.client.submit(self.job_doc(self.n_jobs))
        _wait_streamed(self.client, warm["accepted"][0]["job_id"],
                       timeout=60.0)

    def job_doc(self, i: int) -> dict:
        return {"spec": {"kind": "rlig", "pack": str(self.pack), "index": i,
                         "case": MAP_CASE,
                         "ligand_sha256": self.digests[i]},
                "config": self.config().to_dict(), "n_runs": 1,
                "seed": {"entropy": self.seed, "index": i},
                "label": f"lig{i:04d}"}

    def restart(self) -> None:
        """Another timed pass needs a gateway that has not seen the jobs."""
        self.passes += 1
        self.start_gateway(self.pack.parent)

    def run(self) -> dict:
        from repro.gateway.client import GatewayError

        client = self.client
        docs = [self.job_doc(i) for i in range(self.n_jobs)]
        seen: dict[str, tuple[float, dict]] = {}
        accepted: dict[str, int] = {}
        cond = threading.Condition()
        done = threading.Event()

        def reader() -> None:
            # /v1/stream closes whenever every known job is terminal, so
            # reopen it while an accepted job is unseen; records repeat
            # across streams and are deduplicated by job id
            while True:
                with cond:
                    cond.wait_for(lambda: done.is_set()
                                  or not set(accepted) <= set(seen))
                    if set(accepted) <= set(seen):
                        return
                for rec in client.stream(timeout=60.0):
                    with cond:
                        seen.setdefault(rec["job_id"],
                                        (time.perf_counter(), rec))

        # daemon: a stream that never ends must not keep the process alive;
        # the checks then report the jobs it never delivered
        thread = threading.Thread(target=reader, name="stream-reader",
                                  daemon=True)
        sends, rejected = [], []
        t0 = time.perf_counter() + 0.05
        thread.start()
        try:
            for i, doc in enumerate(docs):
                due = t0 + float(self.offsets[i])
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                a = time.perf_counter()
                try:
                    resp = client.submit(doc)
                except GatewayError as exc:        # 429: admission
                    resp = {"accepted": [], "rejected": [exc.payload]}
                b = time.perf_counter()
                sends.append((due, a, b))
                with cond:
                    for rec in resp.get("accepted", []):
                        accepted[rec["job_id"]] = i
                    rejected += resp.get("rejected", [])
                    cond.notify_all()
        finally:
            with cond:
                done.set()
                cond.notify_all()
            thread.join(timeout=120.0)
        # the pass lasts the whole schedule, and longer if results trail it
        last = max([t0 + self.n_jobs / self.RATE]
                   + [seen[j][0] for j in accepted if j in seen])
        return {"sends": sends, "accepted": accepted, "seen": seen,
                "rejected": rejected, "wall": last - t0,
                "manifest": self.manifest,
                "items": [(sends[i][0], seen[j][0])
                          for j, i in accepted.items() if j in seen]}

    def latencies(self, out: dict) -> list[float]:
        return [out["seen"][j][0] - out["sends"][i][0]
                for j, i in out["accepted"].items() if j in out["seen"]]

    def check(self, out: dict) -> list[tuple]:
        from repro.serve.manifest import ShardedManifest

        errors = []
        lags = [a - due for due, a, _b in out["sends"]]
        lat = self.latencies(out)
        if lat and percentile(lags, 90) > 0.25 * percentile(lat, 50):
            errors.append((None, f"run invalid: generator lag p90 "
                                 f"{percentile(lags, 90):.3f}s approaches "
                                 f"latency p50 {percentile(lat, 50):.3f}s"))
        # exactly one terminal record per accepted job: count the raw shard
        # logs before the gateway's shutdown compacts them (last record wins)
        per_job: dict[str, int] = {}
        records: dict[str, dict] = {}
        man = ShardedManifest(out["manifest"])
        for shard in range(man.n_shards):
            path = man.shard_path(shard)
            for line in (path.read_text().splitlines()
                         if path.is_file() else []):
                rec = json.loads(line)
                per_job[rec["job_id"]] = per_job.get(rec["job_id"], 0) + 1
                records[rec["job_id"]] = rec
        man.close()
        self.close()
        records = {j: records[j] for j in out["accepted"] if j in records}
        for job_id, i in out["accepted"].items():
            if per_job.get(job_id, 0) != 1:
                errors.append((job_id, f"lig{i:04d}: "
                                       f"{per_job.get(job_id, 0)} terminal "
                                       f"records in the manifest"))
            if job_id not in out["seen"]:
                errors.append((job_id, f"lig{i:04d}: never streamed"))
        for rec in out["rejected"]:
            errors.append((None, f"{rec.get('job_id', '?')}: rejected by "
                                 f"admission"))
        want = ledger_evals(self.config().lga)
        results = {j: (rec["status"], (rec.get("result") or {})
                       .get("result")) for j, rec in records.items()}
        errors += _check_results(results, want)
        streamed = {j: {"runs": [{"best_score": out["seen"][j][1]
                                  ["best_score"]}]}
                    for j in out["accepted"] if j in out["seen"]
                    and out["seen"][j][1]["status"] == "ok"}
        merged = {j: r for j, (status, r) in results.items()
                  if status == "ok"}
        if _ranking(merged) != _ranking(streamed):
            errors.append((None, "merged sharded-manifest ranking differs "
                                 "from the streamed results"))
        out["records"] = records
        return errors

    def ok_keys(self, out: dict) -> set:
        return {j for j in out["accepted"] if j in out["seen"]
                and out["seen"][j][1]["status"] == "ok"}

    def totals(self, out: dict) -> dict:
        evals = sum(((r.get("result") or {}).get("result") or {})
                    .get("total_evals", 0)
                    for r in out.get("records", {}).values())
        return {"evals": evals, "attempted": self.n_jobs,
                "windows": out["items"]}

    def extra(self, out: dict) -> dict:
        lat = self.latencies(out)
        ok_in_time = sum(
            1 for j, i in out["accepted"].items() if j in out["seen"]
            and out["seen"][j][1]["status"] == "ok"
            and out["seen"][j][0] - out["sends"][i][0] <= self.LIMIT_S)
        results = [(r.get("result") or {}).get("result")
                   for r in out.get("records", {}).values()]
        return {"gateway.latency_p50_s": percentile(lat, 50),
                "gateway.latency_p90_s": percentile(lat, 90),
                "gateway.slo_attainment": ok_in_time / self.n_jobs,
                "gateway.generator_lag_p90_s": percentile(
                    [a - due for due, a, _b in out["sends"]], 90),
                "simt.model_us_per_eval": _model_us_per_eval(
                    [r for r in results if r])}

    def close(self) -> None:
        if self.gateway is not None:
            self.gateway.stop()
            self.gateway = None


def _wait_streamed(client, job_id: str, timeout: float) -> None:
    """Block until ``job_id`` shows up on ``/v1/stream``."""
    deadline = time.monotonic() + timeout
    while all(rec["job_id"] != job_id
              for rec in client.stream(timeout=timeout)):
        if time.monotonic() > deadline:
            raise TimeoutError(f"job {job_id} never streamed")


WORKLOADS = {w.name: w for w in (DockTcec, ScreenMixed, GatewayOnline)}

