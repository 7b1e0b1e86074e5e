"""The cohort pair and grid kernels against the bodies they replaced.

``LigandPack.intra`` used to gather pair endpoints with a ``(C, P)``
fancy index (landing pair-major, then transposed back), take
``inv_rv2 ** 5`` over every pair and keep every intermediate alive to
the end; ``LigandPack.inter_energy`` built an ``(8, 4, C, B, N)`` int64
index for one ``take``.  The oracles below are those two bodies kept
verbatim (only ``self`` became ``pack``, and the pair index the old pack
carried is derived in place).  Only buffers and gathers changed, so the
pass rule is bit identity: energies, ``de_dr``, ``delta``, ``r_raw`` and
the grid gradients equal the oracles' byte for byte.  One allowance:
where a pair term meets two NaN operands (non-finite coordinates), which
NaN comes out depends on whether NumPy's SIMD body or its scalar tail
handled the element, so on the memory layout, and the replaced uniform
gather landed pair-major.  With NaN coordinates drawn, the pair outputs
must match everywhere else bit for bit, with NaN in the same places.

The memory test pins what the change is for: a cohort score call of the
shape that sets a ``screen-mixed`` worker's peak stays within a few
times its delta buffer.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.docking import Ligand, ScoringFunction
from repro.docking.cohort import CohortScoring
from repro.docking.energy import (
    ECLAMP,
    GRADCLAMP,
    RMIN,
    SMOOTH_HALF_WIDTH,
    _MS_A,
    _MS_B,
    _MS_LAM,
    _MS_RK,
)
from repro.docking.grids import _corner_flat, _grid_terms
from repro.docking.quaternion import xyz_sum
from repro.obs import get_tracer
from repro.robustness.inject import FaultInjector
from repro.testcases.generator import _grow_ligand
from tests.test_gradient_layout import _bits_equal, assert_same_bytes
from tests.test_pose_rotation_list import (BRANCHED, _genes, _make_ligand,
                                          branched_ligands)

# ----------------------------------------------------------------------
# oracles: the kernels as they stood before


def _reference_inter_energy(pack, coords, with_gradient=False):
    """``LigandPack.inter_energy`` with its ``(8, 4, C, B, N)`` index."""
    u = np.subtract(np.moveaxis(coords, -1, 0), pack.origin, order="C")
    u /= pack.spacing
    # non-finite coordinates used to be masked silently; keep the
    # clamp (the trajectory still needs finite lookups) but record
    # which lanes were hit first.  The finite fast path skips the
    # nan_to_num copy entirely — bit-identical, since it only
    # rewrites NaN/Inf.
    if not np.isfinite(u).all():
        pack._record_nonfinite(u)
        u = np.nan_to_num(u, nan=1e4, posinf=1e4, neginf=-1e4)
    uc = np.clip(u, 0.0, pack.dims_lim)
    out = u - uc
    i0 = np.floor(uc).astype(np.int64)
    i1 = np.minimum(i0 + 1, pack.shape_m1)
    f = uc - i0
    flat = _corner_flat(i0, i1, pack.ny, pack.nz)    # (8, C, B, N)
    c = pack.flat_maps.take(flat[:, None] + pack.offs)  # (8, 4, C, B, N)
    if pack.grid_injector is not None:
        # grid-gather stride site: corrupt the fetched corner values
        # (modelling corrupt device memory under the trilinear blend)
        c, inj = pack.grid_injector.corrupt_values(c)
        if inj.any():
            per_lane = inj.sum(axis=(0, 1, 3, 4))
            get_tracer().event(
                "cohort.grid_inject",
                lanes=[int(g) for g in
                       pack.global_indices[per_lane > 0]],
                n_values=int(inj.sum()))
    return _grid_terms(c, f, out * pack.spacing, pack.spacing,
                       pack.charges, pack.solpar, pack.vol,
                       with_gradient)


def _reference_intra(pack, coords, with_geometry=False):
    """``LigandPack.intra`` with the fancy-index pair gather, the
    full-size ``np.where`` 12-10 select and every intermediate kept."""
    # the pair index the old pack carried (its ``_init_pair_index``)
    _gather_c = np.arange(pack.C, dtype=np.int64)[:, None]
    _pif = pack.pi[:, 0, :, 0]
    _pjf = pack.pj[:, 0, :, 0]
    _pm6 = pack.pm == 6
    _pm_all6 = bool(_pm6.all())
    if pack.uniform:
        C, B = coords.shape[:2]
        flat = coords.reshape(C * B, pack.N, 3)
        delta = flat[:, _pif[0]] - flat[:, _pjf[0]]
        pc, pd, pm = pack.pc[0, 0], pack.pd[0, 0], pack.pm[0, 0]
        pqq, pdsolv = pack.pqq[0, 0], pack.pdsolv[0, 0]
        pm6, r_opt = _pm6[0, 0], pack.r_opt[0, 0]
        smooth = pack.smooth_col[0, 0, 0]
        lead = (C, B)
    else:
        # fancy indexing lands pair-major (C, P, B, 3); one
        # contiguous transpose back keeps every downstream
        # elementwise op on dense batch-major memory
        ci = coords[_gather_c, :, _pif]      # (C, P, B, 3)
        cj = coords[_gather_c, :, _pjf]
        delta = np.ascontiguousarray(np.moveaxis(ci - cj, 1, 2))
        pc, pd, pm = pack.pc, pack.pd, pack.pm
        pqq, pdsolv = pack.pqq, pack.pdsolv
        pm6, r_opt = _pm6, pack.r_opt
        smooth = pack.smooth_col
        lead = None
    r_raw = np.sqrt(xyz_sum(delta[..., 0], delta[..., 1], delta[..., 2],
                            squares=True))
    r = np.maximum(r_raw, RMIN)
    in_well = None
    if pack.any_smooth:
        hw = SMOOTH_HALF_WIDTH
        in_well = (np.abs(r - r_opt) <= hw) & smooth
        r_vdw = np.where(smooth,
                         np.where(r < r_opt - hw, r + hw,
                                  np.where(r > r_opt + hw, r - hw,
                                           r_opt)),
                         r)
    else:
        r_vdw = r

    # the tail runs in place over a handful of full-size buffers: each
    # step keeps the single path's operand grouping (left-assoc
    # products, ``(a + b) + c`` sums, ``(-a) * b`` sign placement), so
    # every element carries exactly the single-path bits while the
    # temporary count drops from ~18 allocations to 6
    inv_r = 1.0 / r
    # no smoothing means r_vdw aliases r, so one divide serves both
    inv_rv = inv_r if r_vdw is r else 1.0 / r_vdw
    inv_rv2 = inv_rv * inv_rv
    inv_r6 = inv_rv2 ** 3
    # all-6 packs alias the 12-6 column; bitwise equal to the where()
    inv_rm = inv_r6 if _pm_all6 \
        else np.where(pm6, inv_r6, inv_rv2 ** 5)
    inv_r12 = inv_r6 ** 2

    e_vdw = pc * inv_r12
    t = pd * inv_rm
    np.subtract(e_vdw, t, out=e_vdw)
    de_vdw = -12.0 * pc * inv_r12
    np.multiply(pm * pd, inv_rm, out=t)
    np.add(de_vdw, t, out=de_vdw)
    np.multiply(de_vdw, inv_rv, out=de_vdw)
    if in_well is not None:
        de_vdw = np.where(in_well, 0.0, de_vdw)

    # Mehler-Solmajer dielectric and its derivative share the same
    # ``exp`` term; evaluating it once is the single biggest saving
    # (dielectric() / dielectric_derivative() recompute it, with
    # identical expressions, so the bits match)
    u = _MS_RK * np.exp(-_MS_LAM * _MS_B * r)
    one_u = 1.0 + u
    eps = _MS_A + _MS_B / one_u
    e_elec = pqq * inv_r
    np.divide(e_elec, eps, out=e_elec)
    np.multiply(u, _MS_LAM * _MS_B * _MS_B, out=u)
    np.multiply(one_u, one_u, out=one_u)      # (1 + u) ** 2
    np.divide(u, one_u, out=u)
    np.divide(u, eps, out=u)
    np.add(u, inv_r, out=u)
    np.multiply(u, e_elec, out=u)
    de_elec = np.negative(u, out=u)

    g = r / 3.6
    np.multiply(g, g, out=g)                  # (r / 3.6) ** 2
    np.multiply(g, -0.5, out=g)
    np.exp(g, out=g)                          # gauss
    e_solv = pdsolv * g
    np.divide(r, -(3.6 ** 2), out=g)          # -r / 3.6 ** 2
    de_solv = np.multiply(g, e_solv, out=g)

    energy = e_vdw
    np.add(energy, e_elec, out=energy)
    np.add(energy, e_solv, out=energy)
    de_dr = de_vdw
    np.add(de_dr, de_elec, out=de_dr)
    np.add(de_dr, de_solv, out=de_dr)
    np.clip(energy, -ECLAMP, ECLAMP, out=energy)
    np.clip(de_dr, -GRADCLAMP, GRADCLAMP, out=de_dr)
    if lead is not None:
        energy = energy.reshape(lead + (-1,))
        de_dr = de_dr.reshape(lead + (-1,))
        if with_geometry:
            r_raw = r_raw.reshape(lead + (-1,))
            delta = delta.reshape(lead + (-1, 3))
    if with_geometry:
        return energy, de_dr, delta, r_raw
    return energy, de_dr


# ----------------------------------------------------------------------
# packs


def _all_carbon(ligand):
    """The same tree with every atom a carbon: no H-bond pair, so every
    pair is 12-6."""
    return Ligand(name=ligand.name + "-c", atom_types=["C"] * ligand.n_atoms,
                  ref_coords=ligand.ref_coords, charges=ligand.charges,
                  bonds=ligand.bonds, torsions=ligand.torsions)


#: torsions but no intramolecular pair (every pair is too close in the
#: bond graph), and no torsion at all
PAIR_FREE = _make_ligand("pair-free", 2, [0, 1], [1, 2], 3)
RIGID = _make_ligand("rigid", 4, [], [], 5)


@st.composite
def kernel_packs(draw):
    """``(ligands, smooth)`` for one pack: one ligand object in every
    slot (the uniform path) or a mixed pack with a repeated slot, any
    mix of pair-free, torsion-free and all-12-6 ligands, and smoothing
    off, on everywhere, or on for some slots."""
    def ligand():
        lig = draw(st.one_of(branched_ligands(max_rot=10),
                             st.sampled_from([BRANCHED, PAIR_FREE, RIGID])))
        return _all_carbon(lig) if draw(st.booleans()) else lig

    if draw(st.booleans()):
        ligands = [ligand()] * draw(st.integers(1, 4))
    else:
        distinct = [ligand() for _ in range(draw(st.integers(1, 4)))]
        ligands = distinct + [distinct[draw(
            st.integers(0, len(distinct) - 1))]]
    smooth = draw(st.sampled_from(["off", "on", "mixed"]))
    flags = [smooth == "on" or (smooth == "mixed" and draw(st.booleans()))
             for _ in ligands]
    return ligands, flags


def _pack(ligands, flags, maps):
    return CohortScoring([ScoringFunction(lig, maps, smooth=s)
                          for lig, s in zip(ligands, flags)])


def _coords(cohort, pack, B, seed, nan=False):
    """Poses, with coincident pair endpoints (below ``RMIN``), atoms far
    outside the box and, with ``nan``, a few NaN values."""
    coords = cohort.coords(_genes(pack.ligands, B, seed, G=cohort.pack.G),
                           pack)
    rng = np.random.default_rng(seed)
    if pack.N > 1:
        same = rng.random(coords.shape[:3]) < 0.05
        a, b, _ = np.nonzero(same)
        coords[same] = coords[a, b, 0]
    coords[rng.random(coords.shape) < 0.02] *= 40.0
    if nan:
        coords[rng.random(coords.shape) < 0.003] = np.nan
    return coords


# ----------------------------------------------------------------------


def _same_but_nan_sign(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    _bits_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(drawn=kernel_packs(),
       B=st.one_of(st.just(1), st.integers(1, 15).map(lambda k: 2 * k + 1),
                   st.just(60)),
       seed=st.integers(0, 2**32 - 1), nan=st.booleans(), data=st.data())
@example(drawn=([BRANCHED, PAIR_FREE, _all_carbon(BRANCHED), RIGID],
                [True, False, True, False]), B=60, seed=0, nan=False,
         data=None)
@example(drawn=([BRANCHED] * 3, [False] * 3), B=1, seed=1, nan=False,
         data=None)
def test_kernels_match_the_replaced_bodies(small_maps, drawn, B, seed, nan,
                                           data):
    ligands, flags = drawn
    cohort = _pack(ligands, flags, small_maps)
    pack = cohort.pack
    if data is not None:
        idx = sorted(data.draw(st.sets(st.integers(0, pack.C - 1),
                                       min_size=1)))
        pack = pack.subset(idx)
    coords = _coords(cohort, pack, B, seed, nan)
    same = _same_but_nan_sign if nan else assert_same_bytes
    with np.errstate(invalid="ignore"):
        for got, want in zip(pack.intra(coords),
                             _reference_intra(pack, coords)):
            same(got, want)
        for got, want in zip(pack.intra(coords, with_geometry=True),
                             _reference_intra(pack, coords, True)):
            same(got, want)
        assert_same_bytes(pack.inter_energy(coords),
                          _reference_inter_energy(pack, coords))
        for got, want in zip(pack.inter_energy(coords, with_gradient=True),
                             _reference_inter_energy(pack, coords, True)):
            assert_same_bytes(got, want)


def test_twelve_ten_columns_are_the_h_bond_pairs(small_maps):
    """The columns that take ``inv_rv2 ** 5`` are exactly the ``m != 6``
    pairs, per slot of a mixed pack and once for a uniform one."""
    mixed = _pack([BRANCHED, _all_carbon(BRANCHED), PAIR_FREE],
                  [False] * 3, small_maps).pack
    want = [np.nonzero(mixed.pm[a, 0] != 6)[0] for a in range(mixed.C)]
    assert want[0].size and not want[1].size and not want[2].size
    for a in range(mixed.C):
        assert (mixed._m10_cols[mixed._m10_rows == a] == want[a]).all()
    uniform = _pack([BRANCHED] * 3, [False] * 3, small_maps).pack
    assert uniform.uniform and (uniform._m10_rows == 0).all()
    assert (uniform._m10_cols == want[0]).all()


@settings(max_examples=15, deadline=None)
@given(drawn=kernel_packs(), B=st.sampled_from([1, 7, 60]),
       seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["nan", "inf"]))
def test_grid_injector_corrupts_the_same_corners(small_maps, drawn, B, seed,
                                                  mode):
    """An injector installed on the pack corrupts the same corner values
    of the gathered buffer, and so the same energies and gradients, as
    it did in the replaced gather (two injectors, one schedule)."""
    ligands, flags = drawn
    cohort = _pack(ligands, flags, small_maps)
    pack = cohort.pack
    coords = _coords(cohort, pack, B, seed, nan=True)
    rate = 1.0 / 13.0          # at least one hit in every (8, 4, ...) gather
    with np.errstate(invalid="ignore"):
        for with_gradient in (False, True):
            pack.grid_injector = FaultInjector(rate, mode=mode, seed=seed)
            got = pack.inter_energy(coords, with_gradient)
            assert pack.grid_injector.n_injected > 0
            pack.grid_injector = FaultInjector(rate, mode=mode, seed=seed)
            want = _reference_inter_energy(pack, coords, with_gradient)
            for g, w in zip(np.atleast_1d(got) if not with_gradient
                            else got,
                            np.atleast_1d(want) if not with_gradient
                            else want):
                assert_same_bytes(g, w)
    pack.grid_injector = None


# ----------------------------------------------------------------------
# the working set


def _screen_cohort(maps, n_rots=(15, 15, 15, 15, 15, 14, 14, 14)):
    """Eight grown ligands with 14-15 rotatable bonds: the largest
    cohort of a seed-1 ``screen-mixed`` library, as far as shape goes."""
    allowed = set(maps.type_names)
    rng = np.random.default_rng(1)
    ligands = []
    for n_rot in n_rots:
        while True:
            lig = _grow_ligand(rng, f"lig{len(ligands)}", n_rot)
            if set(lig.atom_types) <= allowed:
                break
        ligands.append(lig)
    return CohortScoring([ScoringFunction(lig, maps) for lig in ligands])


def test_cohort_score_call_holds_a_few_delta_buffers(case_7cpa):
    """Regression: the score call peaked at 8.6x its ``(C, B, P, 3)``
    pair-delta buffer (fancy-index gather, pair-major transpose copy, a
    dozen live full-size intermediates, an ``(8, 4, C, B, N)`` corner
    index); the lean kernels measure ~3.7x."""
    cohort = _screen_cohort(case_7cpa.maps)
    pack = cohort.pack
    B = 60
    rng = np.random.default_rng(0)
    genes = np.zeros((pack.C, B, pack.G))
    genes[..., :3] = (case_7cpa.native_coords.mean(axis=0)
                      + rng.normal(0.0, 2.0, (pack.C, B, 3)))
    genes[..., 3:] = rng.normal(0.0, 1.0, (pack.C, B, pack.G - 3))
    cohort.score(genes)                 # first-call caches stay out
    tracemalloc.start()
    try:
        cohort.score(genes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    delta_bytes = pack.C * B * pack.P * 3 * 8
    assert pack.P > 100 and delta_bytes > 1_000_000
    assert peak <= 5.0 * delta_bytes, (peak, delta_bytes)


@pytest.mark.parametrize("uniform", [True, False])
def test_score_path_returns_no_geometry(small_maps, uniform):
    """The score path's result: ``(C, B, P)`` energies and derivatives,
    the gradient path's also ``delta`` and ``r_raw``."""
    ligands = [BRANCHED] * 3 if uniform else [BRANCHED, PAIR_FREE, BRANCHED]
    cohort = _pack(ligands, [False] * 3, small_maps)
    pack = cohort.pack
    assert pack.uniform == uniform
    coords = cohort.coords(_genes(pack.ligands, 5, 0, G=pack.G))
    out = pack.intra(coords)
    assert [a.shape for a in out] == [(3, 5, pack.P)] * 2
    geo = pack.intra(coords, with_geometry=True)
    assert [a.shape for a in geo] == [(3, 5, pack.P)] * 2 + [
        (3, 5, pack.P, 3), (3, 5, pack.P)]
