"""The lean cold build against the tile loop and the well sculpting it
replaced.

``Receptor.make_maps`` used to allocate a dozen fresh tile-sized planes
per tile (``r2``, ``r``, ``inv_r2``, the powers, each probe's product,
``eps``, ``gauss``, ...) at 65,536 pairs a tile, and ``_sculpt_wells``
built four grid-sized temporaries per well.  Both now write into scratch
buffers allocated once per call: tile planes of about 16,384 pairs and
one x-slab.  The two bodies below are the replaced ones, kept verbatim
(only their names changed, and the old tile size is a test constant).
Every map value must see the same float64 operations in the same order,
so the pass rule is bit identity, for every tile and slab size.
"""

import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.docking import receptor as receptor_module
from repro.docking.energy import (
    COULOMB,
    ECLAMP,
    RMIN,
    dielectric,
    vdw_pair_coefficients,
)
from repro.docking.grids import GridMaps
from repro.docking.params import (
    FE_WEIGHTS,
    HBOND_ACCEPTOR,
    HBOND_DONOR,
    get_atom_params,
)
from repro.docking.receptor import _QSOLPAR, _SIGMA, Receptor
from repro.testcases import generator as generator_module
from repro.testcases.generator import _GRID_SPACING
from tests.test_receptor_maps import (
    ACCEPTORS,
    ALL_TYPES,
    DONORS,
    PLAIN,
    assert_same_bytes,
)

#: the replaced builder's tile, in (grid point, receptor atom) pairs
PARENT_TILE_PAIRS = 1 << 16


# ----------------------------------------------------------------------
# oracles: the bodies as they stood before


def parent_make_maps(self, probe_types: list[str], origin: np.ndarray,
                     shape: tuple[int, int, int], spacing: float) -> GridMaps:
    """Build grid maps for the given probe (ligand) atom types.

    The affinity maps carry the AD4 vdW/H-bond FE weights; the
    electrostatic map carries ``w_elec * 332 * q_j / (r eps(r))``; the
    two desolvation maps carry the receptor-side volume and solvation
    sums with the gaussian kernel and ``w_desolv`` baked in.

    The grid is swept in tiles of whole z-rows, about ``PARENT_TILE_PAIRS``
    (grid point, receptor atom) pairs each, so the working set no
    longer grows with the grid.  Squared distances come from per-axis
    tables ``(axis_k - X[:, k]) ** 2``, and the probe-independent
    powers ``inv_r2 ** 3`` / ``** 5`` are taken once per tile; a probe
    whose pairs are all 12-6 reads ``inv_r2 ** 3`` directly.

    Byte-identity contract: every map value is the float64 result of
    the point-by-point form -- ``r = max(norm(point - X, axis=-1),
    RMIN)``, whose length-3 reduce adds ``(dx**2 + dy**2) + dz**2``,
    then the same elementwise operations in the same order, and one
    contiguous ``.sum(axis=1)`` over all receptor atoms.  Tiling
    changes neither the operations nor the row length of that sum, so
    the maps do not depend on the tile size.  Keep ``**`` for the
    powers and ``.sum`` for the atom sums: repeated multiplies or a
    BLAS product round differently.
    """
    origin = np.asarray(origin, dtype=np.float64)
    nx, ny, nz = shape
    axes = [origin[k] + spacing * np.arange(n)
            for k, n in enumerate(shape)]
    dx2, dy2, dz2 = [(axes[k][:, None] - self.coords[None, :, k]) ** 2
                     for k in range(3)]

    rec_params = [get_atom_params(t) for t in self.atom_types]
    rec_vol = np.array([p.vol for p in rec_params])
    rec_sol = np.array([p.solpar for p in rec_params]) \
        + _QSOLPAR * np.abs(self.charges)

    # per-(probe, receptor-atom) pair coefficients, assembled once
    w_vdw, w_hb = FE_WEIGHTS["vdw"], FE_WEIGHTS["hbond"]
    n_probes = len(probe_types)
    m_atoms = self.n_atoms
    pc = np.empty((n_probes, m_atoms))
    pd = np.empty((n_probes, m_atoms))
    pm = np.empty((n_probes, m_atoms), dtype=np.int64)
    for t_idx, t in enumerate(probe_types):
        probe = get_atom_params(t)
        for a_idx, rp in enumerate(rec_params):
            is_hb = (
                (probe.hbond == HBOND_DONOR and rp.hbond == HBOND_ACCEPTOR)
                or (probe.hbond == HBOND_ACCEPTOR and rp.hbond == HBOND_DONOR)
            )
            if is_hb:
                acc = rp if rp.hbond == HBOND_ACCEPTOR else probe
                c, d, m = vdw_pair_coefficients(
                    probe.rii, probe.epsii, rp.rii, rp.epsii,
                    hbond=True, rij_hb=acc.rii_hb,
                    epsij_hb=acc.epsii_hb)
                w = w_hb
            else:
                c, d, m = vdw_pair_coefficients(
                    probe.rii, probe.epsii, rp.rii, rp.epsii, hbond=False)
                w = w_vdw
            pc[t_idx, a_idx] = w * c
            pd[t_idx, a_idx] = w * d
            pm[t_idx, a_idx] = m
    all_6 = (pm == 6).all(axis=1)

    # every map is a block of the one buffer the returned GridMaps
    # adopts: the affinity stack, then elec / desolv_v / desolv_s
    n_points = nx * ny * nz
    flat = np.empty((n_probes + 3) * n_points)
    blocks = flat.reshape(n_probes + 3, n_points)
    aff = blocks[:n_probes]
    elec, desolv_v, desolv_s = blocks[n_probes:]

    # a tile is a run of whole (x, y) rows of nz grid points each
    n_rows = nx * ny
    tile_rows = max(1, PARENT_TILE_PAIRS // max(1, nz * m_atoms))
    for r0 in range(0, n_rows, tile_rows):
        r1 = min(r0 + tile_rows, n_rows)
        lo, hi = r0 * nz, r1 * nz
        ix, iy = np.divmod(np.arange(r0, r1), ny)
        r2 = (dx2[ix] + dy2[iy])[:, None, :] + dz2[None, :, :]
        r = np.maximum(np.sqrt(r2).reshape(hi - lo, m_atoms), RMIN)
        inv_r2 = 1.0 / (r * r)
        inv_r6 = inv_r2 ** 3
        inv_r12 = inv_r6 ** 2
        inv_r10 = inv_r2 ** 5
        for t_idx in range(n_probes):
            inv_rm = inv_r6 if all_6[t_idx] \
                else np.where(pm[t_idx] == 6, inv_r6, inv_r10)
            aff[t_idx, lo:hi] = (pc[t_idx] * inv_r12
                                 - pd[t_idx] * inv_rm).sum(axis=1)
        eps = dielectric(r)
        elec[lo:hi] = (FE_WEIGHTS["elec"] * COULOMB
                       * (self.charges[None, :] / (r * eps)).sum(axis=1))
        gauss = np.exp(-0.5 * (r / _SIGMA) ** 2)
        desolv_v[lo:hi] = FE_WEIGHTS["desolv"] * (gauss * rec_vol).sum(axis=1)
        desolv_s[lo:hi] = FE_WEIGHTS["desolv"] * (gauss * rec_sol).sum(axis=1)

    np.clip(aff, -ECLAMP, ECLAMP, out=aff)
    np.clip(elec, -ECLAMP, ECLAMP, out=elec)

    return GridMaps.from_flat(flat, origin=origin, spacing=spacing,
                              type_names=list(probe_types), shape=shape)


def parent_sculpt_wells(maps, ligand, native_coords: np.ndarray,
                        origin: np.ndarray, n_side: int) -> None:
    """Stamp the two-scale gaussian well of every native atom into its
    type's affinity map (see :func:`make_test_case`).

    Each well's squared distances come from per-axis tables added as
    ``(dx2 + dy2) + dz2``: the values, in the order, of the sum over a
    3-D meshgrid, without the meshgrid.  Nothing grid-sized outlives the
    call.
    """
    well_depth = max(0.45, 12.0 / ligand.n_atoms)   # kcal/mol per atom
    well_scales = ((4.5, 0.4), (2.5, 0.6))          # (sigma Å, depth share)
    axes = [origin[k] + _GRID_SPACING * np.arange(n_side) for k in range(3)]
    type_idx = maps.type_index(ligand.atom_types)
    for i, pos in enumerate(native_coords):
        dx2, dy2, dz2 = ((axes[k] - pos[k]) ** 2 for k in range(3))
        d2 = (dx2[:, None, None] + dy2[None, :, None]) + dz2[None, None, :]
        for sigma, share in well_scales:
            maps.affinity[type_idx[i]] -= (well_depth * share
                                           * np.exp(-d2 / (2.0 * sigma ** 2)))


# ----------------------------------------------------------------------
# map builds


@st.composite
def lean_problems(draw):
    """A receptor of one atom or a few dozen, a probe set that is all
    12-6 (plain probes) or mixes 12-10 pairs in (donor and acceptor
    probes), a grid, and a tile drawn against one z-row's ``nz * m``
    pairs: smaller than a z-row, or a few whole rows plus a remainder,
    which need not divide the grid's ``nx * ny`` rows."""
    m = draw(st.integers(1, 40))
    types = draw(st.lists(st.sampled_from(ALL_TYPES), min_size=m,
                          max_size=m))
    pool = draw(st.sampled_from([PLAIN, DONORS + ACCEPTORS + PLAIN]))
    probes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4,
                           unique=True))
    shape = tuple(draw(st.lists(st.integers(1, 14), min_size=3,
                                max_size=3)))
    spacing = draw(st.sampled_from([0.375, 0.5]))
    origin = np.array(draw(st.lists(
        st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
        min_size=3, max_size=3)))
    extent = origin + spacing * (np.array(shape) - 1)
    coords = np.array([[draw(st.floats(origin[k] - 3.0, extent[k] + 3.0,
                                       allow_nan=False,
                                       allow_infinity=False))
                        for k in range(3)] for _ in range(m)])
    charges = np.array(draw(st.lists(st.floats(-1.0, 1.0, allow_nan=False),
                                     min_size=m, max_size=m)))
    tile = draw(st.integers(1, 4 * shape[2] * m))
    rec = Receptor("drawn", types, coords, charges)
    return rec, probes, origin, shape, spacing, tile


def _problem(types, probes, shape, tile, seed=0):
    rng = np.random.default_rng(seed)
    origin = np.array([-1.0, 0.5, 2.0])
    extent = origin + 0.5 * (np.array(shape) - 1)
    coords = rng.uniform(origin - 2.0, extent + 2.0, (len(types), 3))
    charges = rng.uniform(-0.5, 0.5, len(types))
    return (Receptor("fixed", list(types), coords, charges), probes, origin,
            shape, 0.5, tile)


#: a single receptor atom; 7 x 5 rows in tiles of 3 rows (+ remainder);
#: a tile of 5 pairs against 6-pair z-rows; all-12-10 donor over acceptors
FIXED = [
    _problem(["OA"], ["HD", "C"], (4, 3, 5), 1),
    _problem(["OA", "HD", "C"], ["HD", "OA", "C"], (7, 5, 4), 3 * 4 * 3 + 2),
    _problem(["NA", "C"], ["HD"], (3, 4, 3), 5),
    _problem(["OA", "SA", "NA"], ["HD"], (2, 6, 5), 17),
]


class TestMaps:
    @given(lean_problems())
    @example(FIXED[0])
    @example(FIXED[1])
    @example(FIXED[2])
    @example(FIXED[3])
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_maps_are_the_replaced_tile_loops_bytes(self, problem):
        rec, probes, origin, shape, spacing, tile = problem
        want = parent_make_maps(rec, probes, origin, shape, spacing)
        with mock.patch.object(receptor_module, "_TILE_PAIRS", tile):
            got = rec.make_maps(probes, origin, shape, spacing)
        assert_same_bytes(got, want)
        assert got.flat_maps.tobytes() == want.flat_maps.tobytes()

    @given(lean_problems())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_two_tile_sizes_return_the_same_bytes(self, problem):
        rec, probes, origin, shape, spacing, tile = problem
        own = rec.make_maps(probes, origin, shape, spacing)
        with mock.patch.object(receptor_module, "_TILE_PAIRS", tile):
            drawn = rec.make_maps(probes, origin, shape, spacing)
        assert own.flat_maps.tobytes() == drawn.flat_maps.tobytes()

    def test_scratch_is_tile_sized_whatever_the_grid(self, case_7cpa):
        """Regression: about a dozen fresh planes of 65,536 pairs per
        tile (7cpa: ~4.6 MiB beyond its maps); now seven planes of
        ``_TILE_PAIRS`` pairs, allocated once."""
        maps = case_7cpa.maps
        args = (maps.type_names, maps.origin, maps.affinity.shape[1:],
                maps.spacing)
        tracemalloc.start()
        try:
            built = case_7cpa.receptor.make_maps(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scratch = peak - built.flat_maps.nbytes
        assert 0 < scratch <= 8 * 8 * receptor_module._TILE_PAIRS, scratch


# ----------------------------------------------------------------------
# well sculpting


@st.composite
def sculpt_problems(draw):
    """Random maps over a cube of ``n_side`` nodes, native atoms inside
    or near the box or, for some draws, far outside it (their wells
    underflow to zero), and a slab of one x-plane, a few planes plus a
    remainder, or the module's own."""
    n_side = draw(st.integers(1, 20))
    types = draw(st.lists(st.sampled_from(["C", "OA", "HD", "N"]),
                          min_size=1, max_size=12))
    origin = np.array(draw(st.lists(
        st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
        min_size=3, max_size=3)))
    extent = origin + _GRID_SPACING * (n_side - 1)
    far = draw(st.booleans())
    lo, hi = (origin - 60.0, extent + 60.0) if far \
        else (origin - 2.0, extent + 2.0)
    native = np.array([[draw(st.floats(lo[k], hi[k], allow_nan=False,
                                       allow_infinity=False))
                        for k in range(3)] for _ in types])
    plane = n_side * n_side
    slab = draw(st.sampled_from([1, 2 * plane + 1, 3 * plane - 1,
                                 generator_module._SLAB_VOXELS]))
    seed = draw(st.integers(0, 2**32 - 1))
    return types, origin, n_side, native, slab, seed


def _random_maps(type_names, origin, n_side, seed):
    rng = np.random.default_rng(seed)
    shape = (n_side,) * 3
    return GridMaps(origin=origin, spacing=_GRID_SPACING,
                    type_names=type_names,
                    affinity=rng.normal(size=(len(type_names),) + shape),
                    elec=rng.normal(size=shape),
                    desolv_v=rng.normal(size=shape),
                    desolv_s=rng.normal(size=shape))


class TestSculptWells:
    @given(sculpt_problems())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_wells_are_the_replaced_stamps_bytes(self, problem):
        types, origin, n_side, native, slab, seed = problem
        ligand = SimpleNamespace(n_atoms=len(types), atom_types=types)
        names = sorted(set(types))
        want = _random_maps(names, origin, n_side, seed)
        got = _random_maps(names, origin, n_side, seed)
        parent_sculpt_wells(want, ligand, native, origin, n_side)
        with mock.patch.object(generator_module, "_SLAB_VOXELS", slab):
            generator_module._sculpt_wells(got, ligand, native, origin,
                                           n_side)
        assert got.flat_maps.tobytes() == want.flat_maps.tobytes()
