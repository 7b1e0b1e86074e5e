"""The gradient kernel's memory layouts against the layouts they replaced.

Grotbond runs on ``(3, A*N, B)`` component planes with a leading-axis
tree, and the grid gather lands corner-major ``(8, 4, ..., n)``.  The
oracles below are the gather-based Grotbond and the ``(..., 8)``
trilinear interpolation as they stood before, kept verbatim.  Only the
layout changed, so the pass rule is bit identity: energies and
gradients equal the oracles' byte for byte.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.docking import ScoringFunction
from repro.docking import cohort as cohort_mod
from repro.docking.cohort import CohortGradientCalculator, CohortScoring
from repro.docking.grids import OUT_OF_BOX_PENALTY
from repro.docking.quaternion import cross3, xyz_sum
from repro.obs.trace import configure, disable
from repro.reduction.simt_backend import _tree_reduce_inplace, tree_width
from repro.robustness.inject import FaultInjector
from tests.test_pose_rotation_list import (BRANCHED, _genes, _make_ligand,
                                          branched_ligands)

#: float64 values that stress a three-term sum's rounding and signs
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                    2.2250738585072014e-308, 1.7e308, -1.7e308, 1.0, -1.0])


# ----------------------------------------------------------------------
# oracles: the layouts as they stood before


def _reference_grotbond(coords, g_atoms, pack):
    """Grotbond by ``take_along_axis`` and three-index gathers over
    ``(A, B, N, 3)`` rows, tree-reduced over the last axis."""
    A, B, N = g_atoms.shape[:3]
    R = pack.R
    axa = np.zeros((A, 1, R, 1), dtype=np.int64)
    axb = np.zeros((A, 1, R, 1), dtype=np.int64)
    ec, ek, ei = [], [], []
    for a, lig in enumerate(pack.ligands):
        for k, tors in enumerate(lig.torsions):
            axa[a, 0, k, 0] = tors.atom_a
            axb[a, 0, k, 0] = tors.atom_b
        moved = np.zeros((lig.n_rot, lig.n_atoms))
        for k, tors in enumerate(lig.torsions):
            moved[k, list(tors.moved)] = 1.0
        pk, pi_ = np.nonzero(moved)
        ec.append(np.full(pk.shape[0], a, dtype=np.int64))
        ek.append(pk.astype(np.int64))
        ei.append(pi_.astype(np.int64))
    ec, ek, ei = (np.concatenate(v) for v in (ec, ek, ei))
    a_pos = np.take_along_axis(coords, axa, axis=2)
    b_pos = np.take_along_axis(coords, axb, axis=2)
    axis = b_pos - a_pos
    axis /= np.maximum(np.sqrt(
        np.sum(axis * axis, axis=-1, keepdims=True)), 1e-12)
    arm = coords[ec, :, ei, :] - b_pos[ec, :, ek, :]
    cr = cross3(axis[ec, :, ek, :], arm)
    np.multiply(cr, g_atoms[ec, :, ei, :], out=cr)
    vals = np.sum(cr, axis=-1)
    contrib = np.zeros((A, B, R, tree_width(N)), dtype=np.float32)
    contrib[ec, :, ek, ei] = vals
    return _tree_reduce_inplace(contrib)


def _reference_corner_flat(i0, i1, ny, nz):
    x0, y0, z0 = i0[..., 0], i0[..., 1], i0[..., 2]
    x1, y1, z1 = i1[..., 0], i1[..., 1], i1[..., 2]
    bx0 = x0 * ny
    bx1 = x1 * ny
    r00 = (bx0 + y0) * nz
    r10 = (bx1 + y0) * nz
    r01 = (bx0 + y1) * nz
    r11 = (bx1 + y1) * nz
    flat = np.empty(i0.shape[:-1] + (8,), dtype=np.int64)
    flat[..., 0] = r00 + z0
    flat[..., 1] = r10 + z0
    flat[..., 2] = r01 + z0
    flat[..., 3] = r11 + z0
    flat[..., 4] = r00 + z1
    flat[..., 5] = r10 + z1
    flat[..., 6] = r01 + z1
    flat[..., 7] = r11 + z1
    return flat


def _reference_interp(c, f):
    fx, fy, fz = f[..., 0], f[..., 1], f[..., 2]
    gx, gy, gz = 1 - fx, 1 - fy, 1 - fz
    c00 = c[..., 0] * gx + c[..., 1] * fx
    c10 = c[..., 2] * gx + c[..., 3] * fx
    c01 = c[..., 4] * gx + c[..., 5] * fx
    c11 = c[..., 6] * gx + c[..., 7] * fx
    c0 = c00 * gy + c10 * fy
    c1 = c01 * gy + c11 * fy
    return c0 * gz + c1 * fz


def _reference_interp_grad_raw(c, f):
    fx, fy, fz = f[..., 0], f[..., 1], f[..., 2]
    ox, oy, oz = 1 - fx, 1 - fy, 1 - fz
    c000, c100, c010, c110 = c[..., 0], c[..., 1], c[..., 2], c[..., 3]
    c001, c101, c011, c111 = c[..., 4], c[..., 5], c[..., 6], c[..., 7]
    gx = ((c100 - c000) * oy * oz
          + (c110 - c010) * fy * oz
          + (c101 - c001) * oy * fz
          + (c111 - c011) * fy * fz)
    gy = ((c010 - c000) * ox * oz
          + (c110 - c100) * fx * oz
          + (c011 - c001) * ox * fz
          + (c111 - c101) * fx * fz)
    gz = ((c001 - c000) * ox * oy
          + (c101 - c100) * fx * oy
          + (c011 - c010) * ox * fy
          + (c111 - c110) * fx * fy)
    return np.stack([gx, gy, gz], axis=-1)


def _reference_blend(c, f, out, spacing, charges, solpar, vol,
                     with_gradient):
    """Energy / gradient assembly over ``(4, ..., n, 8)`` corners."""
    e = _reference_interp(c, f)
    energy = e[0] + charges * e[1] + solpar * e[2] + vol * e[3]
    d_out = out * spacing
    energy = energy + OUT_OF_BOX_PENALTY * np.sum(d_out ** 2, axis=-1)
    if not with_gradient:
        return energy
    g = _reference_interp_grad_raw(c, f) / spacing
    grad = (g[0] + charges[..., None] * g[1]
            + solpar[..., None] * g[2] + vol[..., None] * g[3])
    return energy, grad + 2.0 * OUT_OF_BOX_PENALTY * d_out


def _reference_pack_inter_energy(pack, coords, with_gradient=False):
    """``LigandPack.inter_energy`` with ``(4, C, B, N, 8)`` corners."""
    maps = [sf.maps for sf in pack.scorings]
    origin = np.stack([m.origin for m in maps])[:, None, None, :]
    spacing = np.array([m.spacing for m in maps])[:, None, None, None]
    shape = np.array([m.shape for m in maps], dtype=np.int64)
    u = (coords - origin) / spacing
    if not np.isfinite(u).all():
        u = np.nan_to_num(u, nan=1e4, posinf=1e4, neginf=-1e4)
    uc = np.clip(u, 0.0, (shape - 1.0 - 1e-9)[:, None, None, :])
    i0 = np.floor(uc).astype(np.int64)
    i1 = np.minimum(i0 + 1, (shape - 1)[:, None, None, :])
    flat = _reference_corner_flat(i0, i1, shape[:, 1, None, None],
                                  shape[:, 2, None, None])
    c = pack.flat_maps.take(flat[None] + pack.offs[..., None])
    return _reference_blend(c, uc - i0, u - uc, spacing, pack.charges,
                            pack.solpar, pack.vol, with_gradient)


def _reference_interatom_energy(maps, coords, type_idx, charges, solpar,
                                vol, with_gradient=False):
    """``GridMaps.interatom_energy`` with ``(4, ..., n, 8)`` corners."""
    u = (np.asarray(coords, dtype=np.float64) - maps.origin) / maps.spacing
    u = np.nan_to_num(u, nan=1e4, posinf=1e4, neginf=-1e4)
    dims = np.asarray(maps.shape, dtype=np.float64)
    uc = np.clip(u, 0.0, dims - 1.0 - 1e-9)
    i0 = np.floor(uc).astype(np.int64)
    i1 = np.minimum(i0 + 1, np.asarray(maps.shape) - 1)
    flat = _reference_corner_flat(i0, i1, maps.shape[1], maps.shape[2])
    n = type_idx.shape[0]
    offs = np.empty((4, n), dtype=np.int64)
    offs[0] = type_idx * maps._n_voxels
    offs[1:] = maps._chan_base[:, None]
    offs = offs.reshape((4,) + (1,) * (flat.ndim - 2) + (n, 1))
    c = maps.flat_maps.take(flat[None] + offs)
    return _reference_blend(c, uc - i0, u - uc, maps.spacing, charges,
                            solpar, vol, with_gradient)


# ----------------------------------------------------------------------
# helpers


def assert_same_bytes(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype
    assert got.shape == ref.shape
    assert np.ascontiguousarray(got).tobytes() \
        == np.ascontiguousarray(ref).tobytes()


@st.composite
def pack_ligands(draw, max_size=4):
    """Branched ligands of mixed size, a repeated ligand object, or (the
    uniform path) one ligand object in every slot."""
    if draw(st.booleans()):
        ligands = [draw(branched_ligands())] * draw(st.integers(1, 4))
    else:
        distinct = draw(st.lists(branched_ligands(), min_size=1,
                                 max_size=max_size))
        ligands = distinct + [distinct[draw(
            st.integers(0, len(distinct) - 1))]]
    return ligands


batch_sizes = st.sampled_from([1, 3, 72])


def _cohort(ligands, maps):
    return CohortScoring([ScoringFunction(lig, maps) for lig in ligands])


def _subset(draw, pack):
    """A drawn non-empty subset of the slots (all of them gives the pack
    itself), as ``bind`` narrows a calculator."""
    idx = sorted(draw(st.sets(st.integers(0, pack.C - 1), min_size=1)))
    return idx, pack.subset(idx)


# ----------------------------------------------------------------------
# the xyz-sum helper


def _bits_equal(got, want):
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    assert (got[~nan].view(np.uint64) == want[~nan].view(np.uint64)).all()


def test_xyz_sum_is_np_sum_bit_for_bit():
    rng = np.random.default_rng(0)
    v = rng.normal(0.0, 1.0, (60_000, 3)) \
        * np.exp(rng.uniform(-700.0, 700.0, (60_000, 3)))
    special = rng.random(v.shape) < 0.4
    v[special] = rng.choice(SPECIAL, int(special.sum()))
    # every ordered triple of the special values, the all -0.0 row first
    grid = np.stack(np.meshgrid(SPECIAL, SPECIAL, SPECIAL,
                                indexing="ij"), -1).reshape(-1, 3)
    v = np.concatenate([np.full((1, 3), -0.0), grid, v])
    with np.errstate(all="ignore"):
        want = np.sum(v, axis=-1)
        _bits_equal(xyz_sum(v[:, 0], v[:, 1], v[:, 2]), want)
        planes = np.ascontiguousarray(v.T)
        _bits_equal(xyz_sum(*planes), want)
        _bits_equal(xyz_sum(*planes, squares=True),
                    np.sum(v * v, axis=-1))
        _bits_equal(np.sqrt(xyz_sum(*planes, squares=True)),
                    np.linalg.norm(v, axis=-1))
        # why the trailing + 0.0 is there: the plain sum keeps the sign
        # of an all -0.0 row, np.sum does not
        plain = (v[:, 0] + v[:, 1]) + v[:, 2]
    assert np.signbit(plain[0]) and not np.signbit(want[0])
    assert not np.signbit(xyz_sum(v[:1, 0], v[:1, 1], v[:1, 2])[0])


# ----------------------------------------------------------------------
# Grotbond


@settings(max_examples=40, deadline=None)
@given(ligands=pack_ligands(), B=batch_sizes,
       seed=st.integers(0, 2**32 - 1),
       zeros=st.floats(0.0, 1.0), data=st.data())
@example(ligands=[BRANCHED, BRANCHED], B=72, seed=0, zeros=0.5,
         data=None)
def test_grotbond_matches_gather_oracle(small_maps, ligands, B, seed,
                                        zeros, data):
    cohort = _cohort(ligands, small_maps)
    pack = cohort.pack
    if data is not None:
        _, pack = _subset(data.draw, pack)
    genes = _genes(pack.ligands, B, seed, G=cohort.pack.G)
    coords = cohort.coords(genes, pack)
    _, g_atoms = CohortGradientCalculator(cohort).atom_gradients(coords,
                                                                 pack)
    # exact zeros of both signs: an atom whose gradient is all -0.0 (or
    # whose cross product is) makes an all -0.0 product row
    rng = np.random.default_rng(seed)
    g_atoms[rng.random(g_atoms.shape) < zeros] = 0.0
    g_atoms[rng.random(g_atoms.shape) < zeros / 2] = -0.0
    dead = rng.random(g_atoms.shape[:3]) < zeros / 4
    g_atoms[dead] = -0.0
    if pack.R:
        assert_same_bytes(cohort_mod.grotbond(coords, g_atoms, pack),
                          _reference_grotbond(coords, g_atoms, pack))


# ----------------------------------------------------------------------
# corner-major grid gather


@settings(max_examples=40, deadline=None)
@given(ligands=pack_ligands(), B=batch_sizes,
       seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_pack_inter_energy_matches_eight_corner_oracle(small_maps, ligands,
                                                       B, seed, data):
    cohort = _cohort(ligands, small_maps)
    _, pack = _subset(data.draw, cohort.pack)
    coords = cohort.coords(_genes(pack.ligands, B, seed, G=cohort.pack.G),
                           pack)
    # a few atoms far outside the box, and non-finite ones
    rng = np.random.default_rng(seed)
    coords[rng.random(coords.shape) < 0.02] *= 40.0
    coords[rng.random(coords.shape) < 0.005] = np.nan
    with np.errstate(invalid="ignore"):
        assert_same_bytes(pack.inter_energy(coords),
                          _reference_pack_inter_energy(pack, coords))
        e, g = pack.inter_energy(coords, with_gradient=True)
        e_ref, g_ref = _reference_pack_inter_energy(pack, coords, True)
    assert_same_bytes(e, e_ref)
    assert_same_bytes(g, g_ref)


@settings(max_examples=30, deadline=None)
@given(ligand=branched_ligands(), B=st.sampled_from([None, 1, 3, 72]),
       seed=st.integers(0, 2**32 - 1))
def test_scalar_interatom_energy_matches_eight_corner_oracle(
        small_maps, ligand, B, seed):
    sf = ScoringFunction(ligand, small_maps)
    rng = np.random.default_rng(seed)
    shape = (ligand.n_atoms, 3) if B is None else (B, ligand.n_atoms, 3)
    coords = rng.normal(0.0, 6.0, shape)
    coords[rng.random(shape) < 0.02] = np.inf
    args = (sf.type_idx, sf.charges, sf.solpar, sf.vol)
    assert_same_bytes(small_maps.interatom_energy(coords, *args),
                      _reference_interatom_energy(small_maps, coords, *args))
    e, g = small_maps.interatom_energy(coords, *args, with_gradient=True)
    e_ref, g_ref = _reference_interatom_energy(small_maps, coords, *args,
                                               with_gradient=True)
    assert_same_bytes(e, e_ref)
    assert_same_bytes(g, g_ref)


# ----------------------------------------------------------------------
# the whole gradient call


@settings(max_examples=30, deadline=None)
@given(ligands=pack_ligands(), B=batch_sizes,
       seed=st.integers(0, 2**32 - 1),
       data=st.data())
@example(ligands=[BRANCHED] * 3, B=3, seed=5, data=None)
def test_gradient_call_matches_oracle_layouts(small_maps, ligands, B, seed,
                                              data):
    """Energies and gradients of ``CohortGradientCalculator`` (after
    ``bind`` to a subset) equal the same call with both oracles swapped
    in."""
    cohort = _cohort(ligands, small_maps)
    calc = CohortGradientCalculator(cohort)
    idx = None
    if data is not None:
        idx, _ = _subset(data.draw, cohort.pack)
    calc.bind(idx)
    pack = calc._pack
    x = _genes(pack.ligands, B, seed, G=cohort.pack.G).reshape(
        -1, cohort.pack.G)
    energy, gradient = calc(x)

    def oracle_inter(coords, with_gradient=False):
        return _reference_pack_inter_energy(pack, coords, with_gradient)

    def oracle_grotbond(coords, g_atoms, pack):
        return _reference_grotbond(coords, g_atoms, pack)

    with mock.patch.object(pack, "inter_energy", oracle_inter), \
            mock.patch.object(cohort_mod, "grotbond", oracle_grotbond):
        energy_ref, gradient_ref = calc(x)
    assert_same_bytes(energy, energy_ref)
    assert_same_bytes(gradient, gradient_ref)


# ----------------------------------------------------------------------
# fault injection into the corner-major gather


def test_grid_injection_names_exactly_the_masked_lanes(small_maps):
    """Each ``cohort.grid_inject`` event names the lanes whose slice of
    the injector's mask is non-empty: nothing more, nothing less."""
    second = _make_ligand("second", 2, [0, 1], [1, 2], 3)
    cohort = _cohort([BRANCHED, second, BRANCHED, second], small_maps)
    pack = cohort.pack
    injector = FaultInjector(rate=1.5e-4, mode="nan", seed=7)
    masks = []
    corrupt = injector.corrupt_values

    def recording(values):
        out, mask = corrupt(values)
        masks.append(mask)
        return out, mask

    injector.corrupt_values = recording
    pack.grid_injector = injector
    calls = []
    tracer = configure(None, source="test")
    try:
        for seed in range(8):
            for idx in (None, [1, 3], [0, 2, 3]):
                sub = pack if idx is None else pack.subset(idx)
                calls.append(sub.global_indices)
                genes = _genes(sub.ligands, 5, seed, G=pack.G)
                with np.errstate(invalid="ignore"):
                    cohort.score(genes, idx)
        events = [r["attrs"]["lanes"] for r in tracer.records()
                  if r["name"] == "cohort.grid_inject"]
    finally:
        disable()
    assert len(masks) == len(calls)
    want = []
    for mask, lanes in zip(masks, calls):
        assert mask.shape[:2] == (8, 4) and mask.shape[2] == len(lanes)
        hit = lanes[mask.any(axis=(0, 1, 3, 4))]
        if hit.size:
            want.append([int(g) for g in hit])
    assert events == want
    # the seed and rate give both partial and multi-lane hits
    assert any(len(lanes) == 1 for lanes in want)
    assert any(len(lanes) > 1 for lanes in want)


# ----------------------------------------------------------------------
# a pair-free ligand in several slots of a mixed pack


def test_shared_pair_free_ligand_in_a_mixed_pack(case_small, case_7cpa):
    """1u4d (no torsions, no intra pairs) in two slots beside 7cpa: its
    slot group's pair->atom contraction has zero pairs.  The gradient
    call used to fail reshaping that empty operand; each slot now equals
    its ligand packed alone."""
    assert case_small.scoring().pair_tables.n_pairs == 0
    scorings = [case_small.scoring(), case_small.scoring(),
                case_7cpa.scoring()]
    cohort = CohortScoring(scorings)
    assert not cohort.pack.uniform and len(cohort.pack.groups) == 2
    B = 4
    genes = _genes(cohort.pack.ligands, B, 9)
    genes[..., 0:3] = case_7cpa.maps.origin + np.random.default_rng(
        9).uniform(4.0, 12.0, (3, B, 3))
    energy, gradient = CohortGradientCalculator(cohort)(
        genes.reshape(-1, cohort.pack.G))
    for a, sf in enumerate(scorings):
        solo = CohortScoring([sf])
        g = np.ascontiguousarray(genes[a, :, :solo.pack.G])
        e_solo, grad_solo = CohortGradientCalculator(solo)(g)
        rows = slice(a * B, (a + 1) * B)
        assert_same_bytes(energy[rows], e_solo)
        assert_same_bytes(gradient[rows, :solo.pack.G], grad_solo)
