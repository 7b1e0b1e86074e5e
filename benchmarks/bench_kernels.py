"""Micro-benchmarks of the reproduction's hot kernels.

Wall-clock timing (pytest-benchmark's bread and butter) for the simulated
numerical kernels: the three reduction back-ends, the MMA unit, pose
calculation (one ligand, and a mixed 16-ligand pack), the fused
gradient kernel and the AutoGrid-style map build.  These guard against
performance regressions of the *simulator itself* — the paper-shape
results live in the other bench files.
"""

import numpy as np
import pytest

from repro.docking.cohort import CohortGradientCalculator, CohortScoring
from repro.docking.genotype import random_genotypes
from repro.docking.pose import calc_coords
from repro.reduction import get_reduction_backend
from repro.tensorcore import mma, tcec_mma
from repro.testcases import SET_OF_42, get_test_case


@pytest.fixture(scope="module")
def vectors():
    rng = np.random.default_rng(0)
    return rng.normal(size=(64, 256, 4)).astype(np.float32)


@pytest.mark.benchmark(group="kernel-reduction")
@pytest.mark.parametrize("backend", ["baseline", "tc-fp16", "tcec-tf32",
                                     "exact"])
def test_reduce4_backends(benchmark, vectors, backend):
    b = get_reduction_backend(backend)
    out = benchmark(b.reduce4, vectors)
    assert out.shape == (64, 4)


@pytest.mark.benchmark(group="kernel-mma")
def test_mma_batched(benchmark):
    rng = np.random.default_rng(1)
    a = rng.normal(size=(32, 16, 16)).astype(np.float32)
    b = rng.normal(size=(32, 16, 16)).astype(np.float32)
    c = np.zeros((32, 16, 16), dtype=np.float32)
    out = benchmark(mma, a, b, c, in_format="tf32")
    assert out.shape == (32, 16, 16)


@pytest.mark.benchmark(group="kernel-mma")
def test_tcec_mma_batched(benchmark):
    rng = np.random.default_rng(2)
    a = rng.normal(size=(32, 16, 16)).astype(np.float32)
    b = rng.normal(size=(32, 16, 16)).astype(np.float32)
    c = np.zeros((32, 16, 16), dtype=np.float32)
    out = benchmark(tcec_mma, a, b, c)
    assert out.shape == (32, 16, 16)


@pytest.mark.benchmark(group="kernel-docking")
def test_pose_calculation(benchmark):
    case = get_test_case("7cpa")
    rng = np.random.default_rng(3)
    genotypes = case.native_genotype[None, :] + rng.normal(0, 0.3, (128, 21))
    coords = benchmark(calc_coords, case.ligand, genotypes)
    assert coords.shape == (128, case.ligand.n_atoms, 3)


@pytest.mark.benchmark(group="kernel-docking")
def test_pose_calculation_mixed_cohort(benchmark):
    """One rotation-list pass over the first 16 set-of-42 ligands packed
    as one cohort, at the reference ADADELTA batch (8 runs x 9 local-
    search individuals = 72 rows per ligand)."""
    cohort = CohortScoring([get_test_case(name).scoring()
                            for name, _ in SET_OF_42[:16]])
    pack = cohort.pack
    rng = np.random.default_rng(5)
    genes = np.zeros((pack.C, 72, pack.G))
    for a, sf in enumerate(pack.scorings):
        genes[a, :, :pack.glens[a]] = random_genotypes(
            rng, 72, sf.ligand, sf.maps.box_lo, sf.maps.box_hi)
    coords = benchmark(cohort.coords, genes)
    assert coords.shape == (16, 72, pack.N, 3)
    assert pack.rotation_list.n_steps == pack.R == 10


@pytest.mark.benchmark(group="kernel-docking")
def test_make_maps(benchmark):
    """The receptor's grid maps on 7cpa's inputs: 7 probe types over a
    47^3 grid and 46 receptor atoms, the largest layer of a cold case
    build."""
    case = get_test_case("7cpa")
    maps = case.maps
    built = benchmark(case.receptor.make_maps, maps.type_names, maps.origin,
                      maps.affinity.shape[1:], maps.spacing)
    assert built.affinity.shape == (7, 47, 47, 47)
    assert built.elec.tobytes() == maps.elec.tobytes()


@pytest.mark.benchmark(group="kernel-docking")
@pytest.mark.parametrize("backend", ["baseline", "tcec-tf32"])
def test_gradient_kernel(benchmark, backend):
    case = get_test_case("7cpa")
    gc = CohortGradientCalculator(CohortScoring([case.scoring()]), backend)
    rng = np.random.default_rng(4)
    genotypes = case.native_genotype[None, :] + rng.normal(0, 0.3, (64, 21))
    e, g = benchmark(gc, genotypes)
    assert e.shape == (64,) and g.shape == (64, 21)
