"""The 42-case evaluation library (names, N_rot spread, caching).

Case names follow the AD-GPU set-of-42 PDB codes; the rotatable-bond counts
span 0-32 as the paper states, with ``7cpa`` fixed at ``N_rot = 15``
("medium complexity", Section 5.1.1).  Cases are generated lazily and
cached per process — building all 42 one after another took 27-29 s on a
2-vCPU x86 host (NumPy 2.4), so tests and benchmarks request only what
they need via :func:`get_test_case` / :func:`set_of_42`.
"""

from __future__ import annotations

import numpy as np

from repro.docking.ligand import Ligand
from repro.testcases.generator import TestCase, _grow_ligand, make_test_case

__all__ = ["SET_OF_42", "get_test_case", "build_test_case", "case_ligand",
           "set_of_42", "clear_cache"]

#: (name, n_rot) for the 42 evaluation complexes.  Names are the PDB codes
#: of the AD-GPU set (labels for the synthetic molecules); N_rot covers the
#: paper's 0-32 range with a ligand-library-like skew toward small counts.
SET_OF_42: tuple[tuple[str, int], ...] = (
    ("1u4d", 0), ("1xoz", 1), ("1yv3", 2), ("1owe", 3), ("1oyt", 4),
    ("1ywr", 5), ("1t46", 5), ("2bm2", 6), ("1mzc", 6), ("1r55", 7),
    ("5wlo", 7), ("1kzk", 8), ("3ce3", 8), ("5kao", 9), ("1hfs", 9),
    ("1jyq", 10), ("2d1o", 10), ("1ig3", 11), ("4er4", 11), ("1n1m", 12),
    ("1l7f", 12), ("1r8o", 13), ("2bsm", 13), ("1y6b", 14), ("1hvy", 14),
    ("7cpa", 15), ("1w9u", 16), ("1p62", 17), ("1gpk", 18), ("1t9b", 19),
    ("2brb", 20), ("1u1c", 21), ("1nja", 22), ("1q4g", 23), ("1yvf", 24),
    ("1v0p", 25), ("2j47", 26), ("1w1p", 27), ("3er5", 28), ("1x8r", 30),
    ("1z95", 31), ("2bai", 32),
)

_NAME_TO_NROT = dict(SET_OF_42)
_CACHE: dict[str, TestCase] = {}
_BASE_SEED = 20250

def _case_seed(name: str) -> int:
    if name not in _NAME_TO_NROT:
        raise ValueError(f"unknown test case {name!r}; "
                         f"known: {[n for n, _ in SET_OF_42]}")
    return _BASE_SEED + [n for n, _ in SET_OF_42].index(name)


def build_test_case(name: str) -> TestCase:
    """Build one named case of the set of 42 from scratch (uncached)."""
    seed = _case_seed(name)          # raises ValueError for unknown names
    return make_test_case(name, _NAME_TO_NROT[name], seed=seed)


def get_test_case(name: str) -> TestCase:
    """Build (or fetch from cache) one named case of the set of 42."""
    if name not in _CACHE:
        _CACHE[name] = build_test_case(name)
    return _CACHE[name]


def case_ligand(name: str) -> Ligand:
    """The ligand of a named case without its receptor and maps.

    It is the first draw of the case's seeded generator, so it equals
    ``get_test_case(name).ligand`` at ~2 ms instead of the seconds a
    full case build takes (grids, native-pose refinement).
    """
    return _grow_ligand(np.random.default_rng(_case_seed(name)), name,
                        _NAME_TO_NROT[name])


def set_of_42(limit: int | None = None) -> list[TestCase]:
    """The evaluation set, optionally truncated to the first ``limit``
    cases (ordered by N_rot) for scaled-down runs."""
    names = [n for n, _ in SET_OF_42][:limit]
    return [get_test_case(n) for n in names]


def clear_cache() -> None:
    """Drop all cached cases (frees memory in long sessions)."""
    _CACHE.clear()
