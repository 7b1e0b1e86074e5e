"""``Receptor.make_maps``: byte-identical to the point-by-point form, and
bounded in memory by the maps it returns.

The oracle below is the untiled ``make_maps`` body (commit 7001096),
kept verbatim: chunks of grid points against every receptor atom, a
``(points, atoms, 3)`` delta and ``np.linalg.norm``.  The tiled builder
must reproduce its four maps bit for bit for every receptor, probe set,
grid shape, origin and tile size.
"""

import json
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from tools.record_case_digests import (  # noqa: E402
    OUT as DIGESTS,
    build_digest,
    mismatches,
)


def oracle_make_maps(self, probe_types: list[str], origin: np.ndarray,
                     shape: tuple[int, int, int], spacing: float) -> GridMaps:
    """Build grid maps for the given probe (ligand) atom types.

    The affinity maps carry the AD4 vdW/H-bond FE weights; the
    electrostatic map carries ``w_elec * 332 * q_j / (r eps(r))``; the
    two desolvation maps carry the receptor-side volume and solvation
    sums with the gaussian kernel and ``w_desolv`` baked in.
    """
    origin = np.asarray(origin, dtype=np.float64)
    axes = [origin[k] + spacing * np.arange(n)
            for k, n in enumerate(shape)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    points = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)
    n_points = points.shape[0]

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

    aff = np.zeros((n_probes, n_points))
    elec = np.zeros(n_points)
    desolv_v = np.zeros(n_points)
    desolv_s = np.zeros(n_points)

    # chunk grid points to bound the (points x atoms) working set
    chunk = max(1, 2_000_000 // max(1, m_atoms))
    for lo in range(0, n_points, chunk):
        hi = min(lo + chunk, n_points)
        delta = points[lo:hi, None, :] - self.coords[None, :, :]
        r = np.maximum(np.linalg.norm(delta, axis=-1), RMIN)
        inv_r2 = 1.0 / (r * r)
        inv_r12 = (inv_r2 ** 3) ** 2
        for t_idx in range(n_probes):
            inv_rm = np.where(pm[t_idx] == 6, inv_r2 ** 3, inv_r2 ** 5)
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

    return GridMaps(
        origin=origin,
        spacing=spacing,
        type_names=list(probe_types),
        affinity=aff.reshape((n_probes,) + tuple(shape)),
        elec=elec.reshape(shape),
        desolv_v=desolv_v.reshape(shape),
        desolv_s=desolv_s.reshape(shape),
    )


#: receptor types by H-bond role: donor, acceptors, and plain atoms
DONORS = ("HD",)
ACCEPTORS = ("OA", "NA", "SA")
PLAIN = ("C", "A", "N", "S", "H", "F", "Cl", "Br", "I", "P")
ALL_TYPES = DONORS + ACCEPTORS + PLAIN


def _map_arrays(maps: GridMaps) -> list[np.ndarray]:
    return [maps.affinity, maps.elec, maps.desolv_v, maps.desolv_s]


def assert_same_bytes(got: GridMaps, want: GridMaps) -> None:
    assert got.type_names == want.type_names
    assert got.origin.tobytes() == want.origin.tobytes()
    for name, a, b in zip(("affinity", "elec", "desolv_v", "desolv_s"),
                          _map_arrays(got), _map_arrays(want)):
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


@st.composite
def map_problems(draw):
    """A receptor, a probe set, a grid and a tile size.

    Receptor types mix donors, acceptors and plain atoms, so probe rows
    come out all 12-6 (plain probes), mixed 12-10 / 12-6 (donor and
    acceptor probes) and, for a donor probe over an all-acceptor
    receptor, all 12-10.  Grid dims run from a single node to planes of
    a few hundred nodes, and the tile size from one z-row per tile to the
    builder's own, so tiles split planes, span several planes or hold the
    whole grid.  Half the draws put one receptor atom exactly on a grid
    node, which drives ``r`` to the ``RMIN`` clamp.
    """
    m = draw(st.integers(1, 60))
    pool = draw(st.sampled_from([ALL_TYPES, ACCEPTORS, DONORS + PLAIN]))
    types = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
    probes = draw(st.lists(st.sampled_from(ALL_TYPES), min_size=1,
                           max_size=5, unique=True))
    shape = tuple(draw(st.lists(st.integers(1, 18), min_size=3,
                                max_size=3)))
    spacing = draw(st.sampled_from([0.375, 0.5, 0.7]))
    origin = np.array(draw(st.lists(
        st.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False),
        min_size=3, max_size=3)))
    extent = origin + spacing * (np.array(shape) - 1)
    coords = np.array([[draw(st.floats(origin[k] - 4.0, extent[k] + 4.0,
                                       allow_nan=False,
                                       allow_infinity=False))
                        for k in range(3)] for _ in range(m)])
    charges = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(-1.0, 1.0, allow_nan=False)),
        min_size=m, max_size=m)))
    if draw(st.booleans()):
        atom = draw(st.integers(0, m - 1))
        node = [draw(st.integers(0, n - 1)) for n in shape]
        coords[atom] = [origin[k] + spacing * node[k] for k in range(3)]
    tile = draw(st.sampled_from([1, 50, 700, 4096,
                                 receptor_module._TILE_PAIRS]))
    rec = Receptor("drawn", types, coords, charges)
    return rec, probes, origin, shape, spacing, tile


class TestOracle:
    @given(map_problems())
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_maps_are_byte_identical_to_the_point_by_point_form(
            self, problem):
        rec, probes, origin, shape, spacing, tile = problem
        want = oracle_make_maps(rec, probes, origin, shape, spacing)
        with mock.patch.object(receptor_module, "_TILE_PAIRS", tile):
            got = rec.make_maps(probes, origin, shape, spacing)
        assert_same_bytes(got, want)

    @pytest.mark.parametrize("tile", [1, receptor_module._TILE_PAIRS])
    @pytest.mark.parametrize("shape", [(1, 1, 1), (5, 3, 4)])
    def test_a_node_on_a_receptor_atom_hits_the_rmin_clamp(self, shape,
                                                          tile):
        origin = np.array([-1.5, 0.25, 2.0])
        spacing = 0.5
        idx = tuple(n // 2 for n in shape)
        node = origin + spacing * np.array(idx)
        rec = Receptor("on-node", ["OA", "HD", "C", "NA"],
                       np.array([node, node + 1.3, node - 2.1,
                                 node + [0.0, 3.0, 0.0]]),
                       np.array([-0.4, 0.3, 0.0, -0.2]))
        probes = ["HD", "OA", "C"]
        want = oracle_make_maps(rec, probes, origin, shape, spacing)
        with mock.patch.object(receptor_module, "_TILE_PAIRS", tile):
            got = rec.make_maps(probes, origin, shape, spacing)
        assert_same_bytes(got, want)
        # r = RMIN at the node: the repulsive wall saturates every probe
        assert (np.abs(got.affinity[(slice(None),) + idx]) == ECLAMP).all()


class TestMemory:
    def test_peak_is_bounded_by_the_returned_maps(self, case_7cpa):
        """Transients stay tile-sized: the traced peak is at most 3x the
        maps themselves (the untiled form peaked at ~28x on 7cpa)."""
        maps = case_7cpa.maps
        args = (maps.type_names, maps.origin, maps.affinity.shape[1:],
                maps.spacing)
        tracemalloc.start()
        try:
            built = case_7cpa.receptor.make_maps(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nbytes = sum(a.nbytes for a in _map_arrays(built))
        assert peak <= 3 * nbytes, (peak, nbytes)


class TestCaseDigests:
    """Cheap cases rebuilt from scratch against the digests recorded by
    ``tools/record_case_digests.py`` (CI checks all 42).

    The digests hold only on NumPy's AVX-512 loops (``pytest -v`` prints
    the SIMD extensions NumPy found); on its AVX2 loops all four cases
    fail at every commit, which reproduces on an AVX-512 host with::

        NPY_DISABLE_CPU_FEATURES=X86_V4,AVX512_ICL,AVX512_SPR \\
            PYTHONPATH=src python -m pytest -q tests/test_receptor_maps.py
    """

    @pytest.mark.parametrize("name", ["1u4d", "1xoz", "1yv3", "7cpa"])
    def test_rebuilt_case_matches_its_recorded_digest(self, name):
        recorded = json.loads(DIGESTS.read_text())
        assert mismatches(recorded, name, build_digest(name)) == []
