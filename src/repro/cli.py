"""Command-line interface mirroring the AutoDock-GPU binary.

The paper's artifact appendix runs::

    ./bin/autodock_gpu_64wi -ffile .../protein.maps.fld -lfile .../rand-0.pdbqt
        -nrun 100 -lsmet ad -A 0 -H 0 -resnam ad_7cpa_cuda

This CLI accepts the same style of invocation against the synthetic test
library (``-case 7cpa`` replaces the map/ligand file pair; ``-lfile`` is
also accepted for PDBQT ligands docked into a named case's maps), plus the
reproduction-specific switches (``--tensor`` backend, ``--device``,
``--nwi`` block size, mirroring the ``NUMWI``/``TENSOR`` make options).

Example::

    autodock-py -case 7cpa -nrun 20 -lsmet ad --tensor tcec-tf32 \\
        --device A100 --nwi 64 -resnam ad_7cpa
"""

from __future__ import annotations

import argparse
import sys

from repro.core import DockingConfig, DockingEngine
from repro.search.lga import LGAConfig
from repro.simt.costmodel import REDUCTION_BACKENDS

__all__ = ["main", "build_parser"]

#: every docking backend (one --tensor choice per cost-model key)
_BACKEND_CHOICES = REDUCTION_BACKENDS


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="autodock-py",
        description="AutoDock-GPU reproduction with Tensor Core reductions")
    p.add_argument("-case", default=None,
                   help="named test case from the set of 42 (e.g. 7cpa)")
    p.add_argument("-ffile", default=None,
                   help="AutoGrid .maps.fld index (receptor grid maps); "
                        "requires -lfile")
    p.add_argument("-lfile", default=None,
                   help="PDBQT ligand file (docked into -ffile's or "
                        "-case's maps)")
    p.add_argument("-nrun", type=int, default=20,
                   help="number of LGA runs (paper default: 100/20)")
    p.add_argument("-lsmet", choices=("ad", "sw"), default="ad",
                   help="local-search method: ADADELTA or Solis-Wets")
    p.add_argument("-resnam", default=None,
                   help="name of the docking log output file (.dlg)")
    p.add_argument("-seed", type=int, default=0)
    p.add_argument("-A", dest="autostop", type=int, default=0,
                   help="autostop: 1 enables convergence-based early stop")
    p.add_argument("-H", dest="heur", type=int, default=0,
                   help="heuristics: 1 picks the eval budget from N_rot")
    p.add_argument("--tensor", default="baseline",
                   choices=_BACKEND_CHOICES,
                   help="reduction backend (make TENSOR=ON -> tcec-tf32)")
    p.add_argument("--device", default="A100",
                   choices=("A100", "H100", "B200"),
                   help="simulated GPU for the runtime model")
    p.add_argument("--nwi", type=int, default=64, choices=(32, 64, 128, 256),
                   help="work items per block (the NUMWI make option)")
    p.add_argument("--evals", type=int, default=15_000,
                   help="max score evaluations per run (scaled-down default)")
    p.add_argument("--pop", type=int, default=30, help="population size")
    p.add_argument("--lsit", type=int, default=100,
                   help="max local-search iterations")
    r = p.add_argument_group("robustness (repro.robustness)")
    r.add_argument("--fault-policy", default="off",
                   choices=("off", "raise", "degrade", "ignore"),
                   help="guard the reduction backend against NaN/Inf/FP16 "
                        "overflow: raise on fault, degrade to the exact "
                        "FP32 block fallback, or audit only")
    r.add_argument("--inject-rate", type=float, default=0.0,
                   help="deterministic fault-injection rate per reduction "
                        "block (0 disables)")
    r.add_argument("--inject-mode", default="nan",
                   choices=("nan", "inf", "overflow", "bitflip"),
                   help="kind of fault injected")
    r.add_argument("--inject-seed", type=int, default=0,
                   help="seed of the injector's lane/bit choices")
    o = p.add_argument_group("observability (repro.obs)")
    o.add_argument("--trace", default=None, metavar="JSONL",
                   help="append spans/events (engine, search, reductions) "
                        "to this JSONL event log; summarise afterwards "
                        "with 'stats <log>'")
    return p


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "inject":
        return inject_main(argv[1:])
    if argv and argv[0] == "screen":
        return screen_main(argv[1:])
    if argv and argv[0] == "pack":
        return pack_main(argv[1:])
    if argv and argv[0] == "stats":
        return stats_main(argv[1:])
    if argv and argv[0] == "gateway":
        return gateway_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.trace:
        from repro.obs import configure
        configure(args.trace, source="main")

    if args.case is None and args.ffile is None:
        print("error: pass -case <name> or -ffile <maps.fld> -lfile "
              "<ligand.pdbqt>", file=sys.stderr)
        return 2

    if args.ffile is not None:
        if args.lfile is None:
            print("error: -ffile requires -lfile", file=sys.stderr)
            return 2
        spec = {"kind": "files", "fld": args.ffile, "ligand": args.lfile}
    elif args.lfile:
        spec = {"kind": "case-ligand", "case": args.case,
                "ligand": args.lfile}
    else:
        spec = {"kind": "case", "case": args.case}
    # bracket case construction: generating a synthetic case refines its
    # native pose (an ADADELTA descent of its own), which would otherwise
    # show up in traces as orphan spans outside engine.dock
    from repro.obs import get_tracer
    from repro.serve.cache import load_case
    with get_tracer().span("case.build", **spec):
        case = load_case(spec)
    if args.ffile is not None:
        print(f"Docking {case.ligand.name} into maps from {args.ffile}")
    elif args.lfile:
        print(f"Docking external ligand {case.ligand.name} into "
              f"{args.case}'s maps")

    max_evals = args.evals
    if args.heur:
        from repro.search import heuristic_max_evals
        # scale the paper-sized heuristic budget down to CLI proportions
        max_evals = heuristic_max_evals(case.n_rot,
                                        scale=args.evals / 2_500_000)
        print(f"Heuristics (-H): eval budget set to {max_evals} "
              f"(N_rot={case.n_rot})")
    fault_policy = None if args.fault_policy == "off" else args.fault_policy
    if args.inject_rate > 0 and fault_policy is None:
        # injection without a guard is pure sabotage; audit at minimum
        fault_policy = "ignore"
        print("Fault injection requested without --fault-policy; "
              "auditing with policy 'ignore'")
    cfg = DockingConfig(
        backend=args.tensor,
        device=args.device,
        block_size=args.nwi,
        lga=LGAConfig(pop_size=args.pop, max_evals=max_evals,
                      ls_method=args.lsmet, ls_iters=args.lsit,
                      ls_rate=0.15, autostop=bool(args.autostop)),
        fault_policy=fault_policy,
        inject_rate=args.inject_rate,
        inject_mode=args.inject_mode,
        inject_seed=args.inject_seed,
    )
    engine = DockingEngine(case, cfg)
    print(f"Docking {case.name} (N_rot={case.n_rot}) with "
          f"backend={args.tensor} on {args.device}/{args.nwi}wi, "
          f"{args.nrun} LGA runs ...")
    result = engine.dock(n_runs=args.nrun, seed=args.seed)

    print(f"Number of energy evaluations performed: {result.total_evals}")
    print(f"Best score: {result.best_score:+.3f} kcal/mol "
          f"@ RMSD {result.rmsd_of_best:.2f} A")
    print(f"Best RMSD: {result.best_rmsd:.2f} A "
          f"@ score {result.score_of_best_rmsd:+.3f} kcal/mol")
    print(f"Run time {result.runtime_seconds:.3f} sec (simulated on "
          f"{args.device}); {result.us_per_eval:.3f} us/eval")
    if result.fault_stats is not None:
        fs = result.fault_stats
        print(f"Fault ledger: {fs['blocks_faulty']}/{fs['blocks_checked']} "
              f"reduction blocks faulty, {fs['blocks_recovered']} recovered "
              f"by exact fallback, {fs['blocks_unrecoverable']} "
              f"unrecoverable")
    if result.quarantine is not None:
        q = result.quarantine
        print(f"Quarantined at generation {q['generation']}: "
              f"{q['reason']} ({q['detail']}); results are the best poses "
              f"found before it")

    if args.resnam:
        from repro.io import write_dlg
        out = args.resnam if args.resnam.endswith(".dlg") \
            else args.resnam + ".dlg"
        write_dlg(result, out, case=case)
        print(f"Docking log written to {out}")
    return 0


def build_inject_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="autodock-py inject",
        description="Fault-injection recovery study: run the same docking "
                    "ensemble under the clean FP32 baseline and under an "
                    "injected Tensor Core backend with the 'ignore' and "
                    "'degrade' fault policies, and report best scores plus "
                    "the fault ledger (see EXPERIMENTS.md).")
    p.add_argument("-case", default="1u4d",
                   help="named test case (default 1u4d)")
    p.add_argument("--base", default="tc-fp16",
                   choices=_BACKEND_CHOICES,
                   help="backend the faults are injected into")
    p.add_argument("--rate", type=float, default=1e-3,
                   help="injection rate per reduction block")
    p.add_argument("--mode", default="overflow",
                   choices=("nan", "inf", "overflow", "bitflip"))
    p.add_argument("-nrun", type=int, default=4)
    p.add_argument("-seed", type=int, default=0)
    p.add_argument("--evals", type=int, default=4_000)
    p.add_argument("--pop", type=int, default=16)
    p.add_argument("--lsit", type=int, default=20)
    return p


def inject_main(argv: list[str] | None = None) -> int:
    """The ``autodock-py inject`` subcommand."""
    from repro.robustness.inject import run_injection_study

    args = build_inject_parser().parse_args(argv)
    lga = LGAConfig.screening(args.pop, args.evals, args.lsit)
    print(f"Injecting {args.mode} faults into {args.base} at rate "
          f"{args.rate:g} ({args.case}, {args.nrun} runs) ...")
    study = run_injection_study(args.case, base=args.base, rate=args.rate,
                                mode=args.mode, n_runs=args.nrun,
                                seed=args.seed, lga=lga)
    print(f"baseline (clean FP32)      best score "
          f"{study['baseline_best']:+.3f} kcal/mol")
    for policy in ("ignore", "degrade"):
        d = study["policies"][policy]
        led = d["ledger"]
        print(f"{args.base} + policy={policy:<8} best score "
              f"{d['best_score']:+.3f} kcal/mol | {d['injected']} injected, "
              f"{led['blocks_faulty']} detected, "
              f"{led['blocks_recovered']} recovered")
    drift_ignore = abs(study["policies"]["ignore"]["best_score"]
                       - study["baseline_best"])
    drift_degrade = abs(study["policies"]["degrade"]["best_score"]
                        - study["baseline_best"])
    print(f"best-score drift vs baseline: ignore {drift_ignore:.3f}, "
          f"degrade {drift_degrade:.3f} kcal/mol")
    return 0


def build_screen_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="autodock-py screen",
        description="Virtual screening service: fan a ligand library "
                    "across a sharded worker pool (repro.serve), with a "
                    "content-addressed grid cache, crash recovery and a "
                    "resumable append-only manifest log.")
    t = p.add_argument_group("target (pick one style)")
    t.add_argument("-ffile", default=None,
                   help="AutoGrid .maps.fld index shared by every ligand")
    t.add_argument("-case", default=None,
                   help="named library case whose maps every ligand "
                        "docks into")
    t.add_argument("--cases", nargs="+", default=None, metavar="NAME",
                   help="screen named library cases (each docks its own "
                        "ligand; no files needed)")
    p.add_argument("-l", "--ligands", nargs="+", default=None,
                   metavar="PDBQT", help="ligand PDBQT files to screen")
    p.add_argument("--library", default=None, metavar="RLIG",
                   help="packed binary ligand library (.rlig, built with "
                        "the 'pack' subcommand) instead of -l: ligands "
                        "stream to workers by offset with no per-job "
                        "text parsing")
    p.add_argument("--workers", type=int, default=2,
                   help="worker processes (0 = run inline)")
    p.add_argument("--cohort-size", type=int, default=1, metavar="N",
                   help="pack up to N ligands per lock-step cohort job "
                        "(1 = one ligand per job); per-ligand results "
                        "are bit-identical either way")
    p.add_argument("-nrun", type=int, default=4,
                   help="LGA runs per ligand")
    p.add_argument("-seed", type=int, default=2025,
                   help="master entropy; job i uses the spawned stream "
                        "(seed, spawn_key=(i,))")
    p.add_argument("--tensor", default="tcec-tf32",
                   choices=_BACKEND_CHOICES,
                   help="reduction backend for every job")
    p.add_argument("--device", default="A100",
                   choices=("A100", "H100", "B200"))
    p.add_argument("--nwi", type=int, default=64,
                   choices=(32, 64, 128, 256))
    p.add_argument("--evals", type=int, default=4_000,
                   help="max score evaluations per run")
    p.add_argument("--pop", type=int, default=16, help="population size")
    p.add_argument("--lsit", type=int, default=20,
                   help="max local-search iterations")
    p.add_argument("--manifest", default="screen_manifest",
                   help="resumable manifest log directory (one NDJSON "
                        "line appended per completed job; rank or merge "
                        "logs with tools/merge_manifests.py)")
    p.add_argument("--manifest-shards", type=int, default=1, metavar="N",
                   help="shard count of a new manifest log: N append-only "
                        "NDJSON files partitioned by job-id hash "
                        "(default 1; an existing log keeps its own)")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="shared disk cache tier: content-addressed "
                        "mmap-able blobs (flat grid buffers, assembled "
                        "cases) under DIR, shared by all workers and "
                        "reused across screens")
    p.add_argument("--resume", action="store_true",
                   help="skip jobs already completed in --manifest "
                        "(dead-letter records stay terminal)")
    p.add_argument("--retry-dead", action="store_true",
                   help="with --resume: re-admit dead-letter jobs with "
                        "a fresh retry budget")
    p.add_argument("--retries", type=int, default=2,
                   help="retry budget per crashed/failed job")
    p.add_argument("--job-timeout", type=float, default=None,
                   metavar="SEC", help="per-job watchdog budget")
    p.add_argument("--lease", type=float, default=None, metavar="SEC",
                   help="parent-side hard lease: an in-flight job older "
                        "than this gets its worker terminated (default "
                        "4x --job-timeout)")
    p.add_argument("--cache-mb", type=int, default=256,
                   help="per-worker content cache capacity [MiB]")
    p.add_argument("--top", type=int, default=10,
                   help="ranked hits to print")
    p.add_argument("--trace", default=None, metavar="JSONL",
                   help="shared JSONL trace log: the parent and every "
                        "worker append spans/events to it (summarise "
                        "with 'stats <log>')")
    p.add_argument("--heartbeat", type=float, default=None, metavar="SEC",
                   help="worker heartbeat interval in seconds (liveness "
                        "cadence of idle workers; default "
                        f"{_default_heartbeat()}s)")
    p.add_argument("--allow-dead", action="store_true",
                   help="exit 0 even when the manifest contains "
                        "dead-lettered (status='dead') jobs; by default "
                        "dead jobs make the screen exit nonzero so CI "
                        "sees the failure")
    return p


def _default_heartbeat() -> float:
    from repro.serve.pool import DEFAULT_HEARTBEAT_SECONDS
    return DEFAULT_HEARTBEAT_SECONDS


def screen_main(argv: list[str] | None = None) -> int:
    """The ``autodock-py screen`` subcommand."""
    from repro.serve import VirtualScreen

    args = build_screen_parser().parse_args(argv)
    styles = sum(x is not None for x in (args.ffile, args.case, args.cases))
    if styles != 1:
        print("error: pass exactly one of -ffile, -case or --cases",
              file=sys.stderr)
        return 2
    if args.ligands and args.library:
        print("error: pass -l or --library, not both", file=sys.stderr)
        return 2
    if args.cases is None and not args.ligands and not args.library:
        print("error: -ffile/-case need -l <ligand.pdbqt> ... or "
              "--library <pack.rlig>", file=sys.stderr)
        return 2

    cfg = DockingConfig(
        backend=args.tensor, device=args.device, block_size=args.nwi,
        lga=LGAConfig.screening(args.pop, args.evals, args.lsit))
    screen = VirtualScreen(
        cases=args.cases, ligands=args.ligands, rlig=args.library,
        fld=args.ffile, case=args.case, config=cfg, n_runs=args.nrun,
        seed=args.seed)

    n_jobs = screen._n_entries()
    print(f"Screening {n_jobs} ligands with backend={args.tensor} on "
          f"{args.device}/{args.nwi}wi, {args.workers} workers, "
          f"{args.nrun} runs each ...")

    done = {"n": 0}

    def stream(result):
        done["n"] += 1
        if result.status == "ok":
            print(f"  [{done['n']}/{n_jobs}] {result.label}: "
                  f"best {result.best_score:+.3f} kcal/mol "
                  f"({result.attempts} attempt(s), "
                  f"{result.wall_seconds:.2f}s)")
        else:
            err = (result.error or {}).get("error_type", "unknown")
            word = "DEAD" if result.status == "dead" else "FAILED"
            print(f"  [{done['n']}/{n_jobs}] {result.label}: {word} "
                  f"({err} after {result.attempts} attempt(s))")

    report = screen.run(workers=args.workers, manifest=args.manifest,
                        resume=args.resume, stream=stream,
                        retries=args.retries,
                        job_wall_seconds=args.job_timeout,
                        lease_seconds=args.lease,
                        cache_bytes=args.cache_mb * 1024 * 1024,
                        trace=args.trace,
                        cohort_size=args.cohort_size,
                        retry_dead=args.retry_dead,
                        heartbeat_seconds=args.heartbeat,
                        manifest_shards=args.manifest_shards,
                        store=args.store)

    s = report.stats
    print(f"\nScreen finished: {s['jobs_completed']} new, "
          f"{s['jobs_cached']} cached, {s['jobs_failed']} failed "
          f"({s['jobs_dead']} dead-lettered, "
          f"{s['jobs_per_second']:.2f} jobs/s over "
          f"{s['wall_seconds']:.1f}s)")
    if s.get("pool", {}).get("quarantines"):
        print(f"Lane quarantines: {s['pool']['quarantines']} cohort "
              f"member(s) re-dispatched individually")
    c = s["cache"]
    print(f"Grid cache: {c['hits']} hits / {c['misses']} misses "
          f"(hit rate {c['hit_rate']:.0%})")
    if args.store:
        print(f"Disk store: {c.get('disk_hits', 0)} hits / "
              f"{c.get('disk_misses', 0)} misses / "
              f"{c.get('disk_writes', 0)} writes under {args.store}")
    print(f"\nTop hits (of {len(report.ranking)} ranked):")
    for hit in report.ranking[: args.top]:
        print(f"  #{hit['rank']:<3} {hit['label']:<24} "
              f"{hit['best_score']:+9.3f} kcal/mol  [{hit['status']}]")
    print(f"Manifest written to {report.manifest_path}")
    # Exit code contract: plain failures are always fatal (1); a
    # manifest left with dead-lettered jobs is fatal too (3) unless the
    # operator explicitly accepts partial results with --allow-dead.
    if s["jobs_failed"] > s["jobs_dead"]:
        return 1
    if s["jobs_dead"]:
        if args.allow_dead:
            print(f"{s['jobs_dead']} dead-lettered job(s) accepted "
                  f"(--allow-dead)")
            return 0
        print(f"error: manifest contains {s['jobs_dead']} dead-lettered "
              f"job(s); rerun with --resume --retry-dead to re-admit "
              f"them, or pass --allow-dead to accept partial results",
              file=sys.stderr)
        return 3
    return 0


def build_pack_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="autodock-py pack",
        description="Pack PDBQT ligands into a .rlig binary library: "
                    "the text is parsed exactly once, records decode "
                    "with buffer slices, and the per-record content "
                    "digests in the index become job identities "
                    "(screen --library <pack.rlig>).")
    p.add_argument("inputs", nargs="+", metavar="PDBQT|DIR",
                   help="ligand PDBQT files and/or directories to scan "
                        "for *.pdbqt")
    p.add_argument("--out", required=True, metavar="RLIG",
                   help="output pack path")
    return p


def pack_main(argv: list[str] | None = None) -> int:
    """The ``autodock-py pack`` subcommand."""
    import time as _time
    from pathlib import Path

    from repro.io import ParseError, pack_rlig

    args = build_pack_parser().parse_args(argv)
    sources: list[Path] = []
    for inp in args.inputs:
        path = Path(inp)
        if path.is_dir():
            sources.extend(sorted(path.glob("*.pdbqt")))
        else:
            sources.append(path)
    if not sources:
        print("error: no ligand files found", file=sys.stderr)
        return 2
    t0 = _time.perf_counter()
    try:
        n = pack_rlig(args.out, sources)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    dt = _time.perf_counter() - t0
    out_bytes = Path(args.out).stat().st_size
    in_bytes = sum(p.stat().st_size for p in sources)
    print(f"Packed {n} ligands into {args.out} "
          f"({out_bytes} bytes from {in_bytes} bytes of PDBQT, "
          f"{n / dt:.0f} ligands/s)")
    return 0


def build_stats_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="autodock-py stats",
        description="Summarise a JSONL trace log written by --trace "
                    "(repro.obs): per-stage span timings, job throughput, "
                    "queue depth, cache hit rate and worker heartbeats.")
    p.add_argument("log", help="JSONL event log to summarise")
    p.add_argument("--top", type=int, default=20,
                   help="span rows to print (sorted by total time)")
    p.add_argument("--check", action="store_true",
                   help="validate every record against the event schema "
                        "before summarising (exit 2 on the first bad line)")
    return p


def stats_main(argv: list[str] | None = None) -> int:
    """The ``autodock-py stats`` subcommand."""
    from repro.obs import (SchemaError, render_summary, summarize_log,
                           validate_log)

    args = build_stats_parser().parse_args(argv)
    try:
        if args.check:
            counts = validate_log(args.log)
            print(f"{args.log}: schema v1 OK "
                  f"({counts['spans']} spans, {counts['events']} events, "
                  f"{len(counts['sources'])} sources)")
        summary = summarize_log(args.log)
    except FileNotFoundError:
        print(f"error: no such trace log: {args.log}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"error: invalid trace log: {exc}", file=sys.stderr)
        return 2
    print(render_summary(summary, top=args.top))
    return 0


def build_gateway_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="autodock-py gateway",
        description="Serving gateway (repro.gateway): an asyncio HTTP "
                    "front-end over sharded worker pools with SLO-driven, "
                    "cost-model-aware admission and scheduling.")
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("serve", help="run a gateway instance")
    s.add_argument("--host", default="127.0.0.1")
    s.add_argument("--port", type=int, default=8321,
                   help="listen port (0 = ephemeral)")
    s.add_argument("--shards", type=int, default=2,
                   help="content-hash shard count (one pool each)")
    s.add_argument("--workers", type=int, default=0,
                   help="worker processes per shard (0 = inline)")
    s.add_argument("--slo", type=float, default=None, metavar="SEC",
                   help="submit-to-result SLO; jobs predicted to miss "
                        "it are rejected with 429")
    s.add_argument("--route", default="hash", choices=("hash", "packed"),
                   help="shard routing: strict content-hash partition, "
                        "or bin-pack new ids by predicted backlog")
    s.add_argument("--quantum", type=float, default=1.0, metavar="SEC",
                   help="weighted-deficit-round-robin quantum")
    s.add_argument("--autoscale", action="store_true",
                   help="resize shard pools from predicted backlog "
                        "(requires --workers > 0)")
    s.add_argument("--min-workers", type=int, default=1)
    s.add_argument("--max-workers", type=int, default=4)
    s.add_argument("--drain-target", type=float, default=30.0,
                   metavar="SEC", help="autoscale drain target")
    s.add_argument("--retries", type=int, default=1)
    s.add_argument("--job-timeout", type=float, default=None,
                   metavar="SEC")
    s.add_argument("--heartbeat", type=float,
                   default=_default_heartbeat(), metavar="SEC",
                   help="worker heartbeat interval")
    s.add_argument("--manifest", default=None,
                   help="manifest log directory (one NDJSON line appended "
                        "per completed job, before it is streamed)")
    s.add_argument("--trace", default=None, metavar="JSONL")
    s.add_argument("--bench", default=None, metavar="JSON",
                   help="predictor calibration file (default: the "
                        "committed BENCH_gateway.json)")

    c = sub.add_parser("submit", help="submit jobs over HTTP")
    c.add_argument("--url", required=True,
                   help="gateway base URL (http://host:port)")
    c.add_argument("--cases", nargs="+", required=True, metavar="NAME",
                   help="library cases to dock")
    c.add_argument("-nrun", type=int, default=4)
    c.add_argument("-seed", type=int, default=2025)
    c.add_argument("--tensor", default="tcec-tf32",
                   choices=_BACKEND_CHOICES)
    c.add_argument("--device", default="A100",
                   choices=("A100", "H100", "B200"))
    c.add_argument("--nwi", type=int, default=64,
                   choices=(32, 64, 128, 256))
    c.add_argument("--evals", type=int, default=4_000)
    c.add_argument("--pop", type=int, default=16)
    c.add_argument("--lsit", type=int, default=20)
    c.add_argument("--tenant", default="default")
    c.add_argument("--deadline", type=float, default=None, metavar="SEC",
                   help="per-job deadline; jobs predicted to miss it "
                        "are rejected")
    c.add_argument("--priority", type=int, default=0)
    c.add_argument("--watch", action="store_true",
                   help="stream results until every job is terminal")

    w = sub.add_parser("watch", help="stream terminal results (NDJSON)")
    w.add_argument("--url", required=True)
    w.add_argument("--once", action="store_true",
                   help="dump currently-terminal records and exit")
    return p


def gateway_main(argv: list[str] | None = None) -> int:
    """The ``autodock-py gateway`` subcommand."""
    args = build_gateway_parser().parse_args(argv)

    if args.cmd == "serve":
        from repro.gateway import Gateway, GatewayConfig
        cfg = GatewayConfig(
            host=args.host, port=args.port, n_shards=args.shards,
            workers=args.workers, slo_seconds=args.slo, route=args.route,
            quantum_s=args.quantum, autoscale=args.autoscale,
            min_workers=args.min_workers, max_workers=args.max_workers,
            drain_target_s=args.drain_target, retries=args.retries,
            job_wall_seconds=args.job_timeout,
            heartbeat_seconds=args.heartbeat, manifest=args.manifest,
            trace=args.trace, bench_path=args.bench)
        return Gateway(cfg).run()

    from repro.gateway import GatewayClient

    if args.cmd == "submit":
        client = GatewayClient(args.url)
        docs = [{"case": name, "n_runs": args.nrun,
                 "seed": {"entropy": args.seed, "index": i},
                 "backend": args.tensor, "device": args.device,
                 "block_size": args.nwi, "evals": args.evals,
                 "pop": args.pop, "ls_iters": args.lsit,
                 "tenant": args.tenant, "priority": args.priority,
                 **({"deadline_s": args.deadline}
                    if args.deadline is not None else {})}
                for i, name in enumerate(args.cases)]
        out = client.submit_batch(docs)
        for rec in out["accepted"]:
            dup = " (duplicate)" if rec.get("duplicate") else ""
            print(f"accepted {rec['label']:<12} shard {rec['shard']} "
                  f"predicted {rec['predicted_s']:.2f}s "
                  f"[{rec['job_id'][:12]}]{dup}")
        for rej in out["rejected"]:
            print(f"REJECTED {rej['job_id'][:12]}: {rej['reason']} "
                  f"(predicted {rej['predicted_seconds']:.2f}s + "
                  f"{rej['backlog_seconds']:.2f}s backlog > "
                  f"{rej['limit_seconds']:.2f}s; retry after "
                  f"{rej['retry_after_s']:.1f}s)")
        if args.watch and out["accepted"]:
            for rec in client.stream():
                score = rec.get("best_score")
                score_txt = (f"best {score:+.3f} kcal/mol"
                             if score is not None else rec["status"])
                print(f"  {rec['label']:<12} [{rec['status']}] "
                      f"{score_txt}")
        return 1 if out["rejected"] and not out["accepted"] else 0

    if args.cmd == "watch":
        import json as _json
        client = GatewayClient(args.url)
        for rec in client.stream(once=args.once):
            print(_json.dumps(rec))
        return 0
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
