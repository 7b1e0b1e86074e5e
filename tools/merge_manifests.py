#!/usr/bin/env python
"""Merge screen and gateway manifests into one ranked report.

A manifest log (:class:`~repro.serve.manifest.ShardedManifest`) keeps
one append-only NDJSON file per content-hash shard, the right shape for
a million-ligand screen but not for analysis.  This tool folds any
number of logs (or retired single-file ``manifest.json`` documents)
into one ranked JSON report::

    python tools/merge_manifests.py out/manifest host-b/manifest \
        --out merged.json --top 10

Records load through :func:`~repro.serve.manifest.load_manifest_jobs`
(last record wins, a torn final line is skipped) and rank through
:func:`~repro.serve.manifest.rank_records`, the ranking screens and the
gateway report; across inputs, later arguments win.  The project's
``src/`` is found from this file's path, so no ``PYTHONPATH`` is needed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.serve.manifest import (atomic_write_json,  # noqa: E402
                                  load_manifest_jobs, rank_records)

#: version of the merged report written with ``--out``
MERGED_VERSION = 1


def merge(paths: list[Path]) -> dict:
    """Load, merge (later paths win) and rank the manifests at ``paths``."""
    jobs: dict[str, dict] = {}
    for path in paths:
        jobs.update(load_manifest_jobs(path))
    by_status: dict[str, int] = {}
    for rec in jobs.values():
        status = rec.get("status", "unknown")
        by_status[status] = by_status.get(status, 0) + 1
    return {
        "version": MERGED_VERSION,
        "merged_from": [str(p) for p in paths],
        "jobs": jobs,
        "ranking": rank_records(jobs.values()),
        "stats": {"jobs_total": len(jobs), "by_status": by_status},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description="Merge screen and gateway manifests into one ranked "
                    "report")
    ap.add_argument("manifests", nargs="+", type=Path,
                    help="manifest log directories (or retired "
                         "single-file manifest.json files); later "
                         "arguments win on job-id collision")
    ap.add_argument("--out", type=Path, default=None,
                    help="write the merged report here (atomic rename)")
    ap.add_argument("--top", type=int, default=5, metavar="N",
                    help="print the top-N ranked hits (default 5; "
                         "0 silences the table)")
    args = ap.parse_args(argv)

    try:
        doc = merge(args.manifests)
    except (OSError, ValueError) as exc:
        print(f"merge_manifests: {exc}", file=sys.stderr)
        return 1

    stats = doc["stats"]
    print(f"merged {len(args.manifests)} manifest(s): "
          f"{stats['jobs_total']} jobs, {len(doc['ranking'])} ranked "
          f"({stats['by_status']})")
    for rec in doc["ranking"][:max(args.top, 0)]:
        print(f"  #{rec['rank']:<3d} {rec['label']:<24s} "
              f"{rec['best_score']:10.4f}  [{rec['status']}]")
    if args.out is not None:
        atomic_write_json(args.out, doc)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
