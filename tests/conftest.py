"""Shared fixtures: a small deterministic ligand/receptor and cached cases."""

import numpy as np
import pytest

from repro.docking import Ligand, Receptor, TorsionBond


def pytest_report_header(config):
    """NumPy's version and the SIMD extensions ``numpy.show_runtime()``
    lists as ``found`` (shown by ``pytest -v``).  The recorded bit
    goldens ``golden_cohort.json`` and ``case_digests.json`` hold only
    on NumPy's AVX-512 loops; on other loops they fail (README "Tests
    and benchmarks")."""
    try:
        from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                                   __cpu_features__)
    except ImportError:                                  # NumPy 1.x
        from numpy.core._multiarray_umath import (__cpu_dispatch__,
                                                  __cpu_features__)
    found = [f for f in __cpu_dispatch__ if __cpu_features__[f]]
    return f"numpy {np.__version__}; SIMD found: {' '.join(found) or '-'}"


@pytest.fixture(autouse=True)
def _obs_isolation():
    """The tracer is process-global: a test that configures it must not
    leak a live JSONL writer (often into a deleted tmp dir) into the
    next test."""
    yield
    from repro.obs import disable
    disable()


@pytest.fixture(scope="session")
def butane_like():
    """A 5-atom, 1-torsion ligand with simple geometry (fast unit tests)."""
    coords = np.array([
        [0.0, 0.0, 0.0],
        [1.5, 0.0, 0.0],
        [2.25, 1.3, 0.0],
        [3.75, 1.3, 0.0],
        [4.5, 2.6, 0.0],
    ])
    return Ligand(
        name="butane-like",
        atom_types=["C", "C", "C", "OA", "HD"],
        ref_coords=coords,
        charges=np.array([0.02, 0.01, 0.0, -0.3, 0.2]),
        bonds=[(0, 1), (1, 2), (2, 3), (3, 4)],
        torsions=[TorsionBond(atom_a=1, atom_b=2, moved=(3, 4))],
    )


@pytest.fixture(scope="session")
def small_receptor():
    """A handful of receptor atoms around the origin."""
    rng = np.random.default_rng(42)
    coords = rng.normal(scale=4.0, size=(12, 3)) + np.array([2.0, 1.0, 0.0])
    # push them at least 3.5 Å away from the origin region
    norms = np.linalg.norm(coords, axis=1, keepdims=True)
    coords = coords / np.maximum(norms, 1e-9) * np.maximum(norms, 5.0)
    return Receptor(
        name="mini-pocket",
        atom_types=["C", "OA", "N", "C", "HD", "C",
                    "C", "OA", "C", "N", "C", "C"],
        coords=coords,
        charges=rng.normal(0, 0.1, size=12),
    )


@pytest.fixture(scope="session")
def small_maps(butane_like, small_receptor):
    """Grid maps covering the small ligand's types."""
    return small_receptor.make_maps(
        sorted(set(butane_like.atom_types)),
        origin=np.array([-8.0, -8.0, -8.0]),
        shape=(33, 33, 33),
        spacing=0.5,
    )


@pytest.fixture(scope="session")
def case_7cpa():
    """The paper's reference medium-complexity case (cached per session)."""
    from repro.testcases import get_test_case
    return get_test_case("7cpa")


@pytest.fixture(scope="session")
def case_small():
    """The smallest case of the set (n_rot = 0)."""
    from repro.testcases import get_test_case
    return get_test_case("1u4d")
