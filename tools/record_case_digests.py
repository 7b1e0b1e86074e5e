"""Record or check ``tests/data/case_digests.json``.

For every named library case the file stores the sha256 of the fused
map buffer (``maps.flat_maps``), of the receptor (coords, then charges),
and of the native pose (genotype, then coords), plus the reference
``global_min_score`` as float hex.  A case build is deterministic, so any
change to grid construction, pocket generation or the native refinement
that moves a single bit shows up as a digest mismatch.

Usage (from the repository root)::

    PYTHONPATH=src python tools/record_case_digests.py [--out PATH]
    PYTHONPATH=src python tools/record_case_digests.py --check [CASE ...]

Recording always rebuilds all 42 cases.  ``--check`` rebuilds the named
cases (all 42 by default) and also puts each one through a
``BlobStore`` under a temporary root, spilled with the codec the cache
uses for ``case/<name>`` keys, and reads it back; the built and the
store-loaded case must both carry the recorded digests.  Each rebuild
runs under ``tracemalloc``, and its transient -- the traced peak minus
what the finished case holds -- must stay within ``TRANSIENT_BOUND``,
whatever the grid's size.  It prints every field that differs and every
transient over the bound, and exits 1 if there is any.  The committed
file was recorded at commit 7001096, before ``Receptor.make_maps`` was
tiled.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "tests" / "data" / "case_digests.json"
#: the most a case rebuild may allocate beyond what the finished case
#: holds: the map tiles and the well-sculpting slabs are fixed-size
#: scratch buffers (~1 MiB on all 42 cases), so the bound does not grow
#: with the grid; grid-sized temporaries (~5-6 MiB on 7cpa and 1z95)
#: exceed it
TRANSIENT_BOUND = 2 * 2**20


def _sha256(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def case_digest(case) -> dict:
    """The digest entry of one built :class:`TestCase`."""
    return {
        "maps": _sha256(case.maps.flat_maps),
        "receptor": _sha256(case.receptor.coords, case.receptor.charges),
        "native": _sha256(case.native_genotype, case.native_coords),
        "global_min": float(case.global_min_score).hex(),
    }


def build_digest(name: str) -> dict:
    """Build one case from scratch (bypassing the library's per-process
    cache) and digest it."""
    from repro.testcases.library import build_test_case
    return case_digest(build_test_case(name))


def traced_build(name: str):
    """``(case, transient)``: one case built from scratch under
    ``tracemalloc``, and the traced peak minus what the case holds."""
    from repro.testcases.library import build_test_case
    tracemalloc.start()
    try:
        case = build_test_case(name)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return case, peak - held


def store_round_trip(case, root: str | Path):
    """``case`` as a store hit returns it: spilled to a ``BlobStore`` at
    ``root`` and decoded from its memory-mapped blob."""
    from repro.serve.store import BlobStore, codec_for_key
    key = f"case/{case.name}"
    codec = codec_for_key(key)
    store = BlobStore(root)
    store.put(key, *codec.encode(case))
    return codec.decode(*store.get(key))


def mismatches(recorded: dict, name: str, fresh: dict) -> list[str]:
    """One line per field of ``fresh`` that differs from ``recorded``."""
    want = recorded["cases"].get(name)
    if want is None:
        return [f"{name}: not in the recorded file"]
    return [f"{name}: {field} {fresh[field]} != recorded {want[field]}"
            for field in sorted(want) if fresh.get(field) != want[field]]


def main(argv=None) -> int:
    from repro.testcases import SET_OF_42

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("cases", nargs="*",
                    help="case names to check (default: all 42)")
    ap.add_argument("--out", type=Path, default=OUT,
                    help="file to write, or to check against")
    ap.add_argument("--check", action="store_true",
                    help="compare against --out instead of writing it")
    args = ap.parse_args(argv)
    if args.cases and not args.check:
        ap.error("case names need --check: recording writes all 42")
    names = args.cases or [n for n, _ in SET_OF_42]

    from repro.testcases.library import build_test_case

    recorded = json.loads(args.out.read_text()) if args.check else None
    if recorded is not None:
        build_test_case("1u4d")      # lazy imports stay out of the traces
    cases, failed = {}, []
    for name in names:
        if recorded is None:
            cases[name] = case_digest(build_test_case(name))
            continue
        case, transient = traced_build(name)
        cases[name] = case_digest(case)
        bad = mismatches(recorded, name, cases[name])
        with tempfile.TemporaryDirectory() as root:
            stored = case_digest(store_round_trip(case, root))
        bad += [f"{line} (store round trip)"
                for line in mismatches(recorded, name, stored)]
        if transient > TRANSIENT_BOUND:
            bad.append(f"{name}: build transient {transient / 2**20:.2f} "
                       f"MiB > {TRANSIENT_BOUND / 2**20:.2f} MiB")
        failed += bad
        print(f"{name}: {'FAIL' if bad else 'ok'} (build transient "
              f"{transient / 2**20:.2f} MiB)", file=sys.stderr)
    if recorded is not None:
        for line in failed:
            print(line)
        print(f"checked {len(names)} case(s): {len(failed)} failure(s)",
              file=sys.stderr)
        return 1 if failed else 0
    args.out.write_text(json.dumps({"cases": cases}, indent=1,
                                   sort_keys=True) + "\n")
    print(f"recorded {len(cases)} case(s) to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
