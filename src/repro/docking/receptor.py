"""Receptor model and AutoGrid-style map construction.

A receptor is a rigid set of atoms (the binding pocket).  ``make_maps``
plays the role of AutoGrid: for every requested ligand atom type it
evaluates the AD4 pairwise potential between a probe atom at each grid node
and all receptor atoms, producing the affinity / electrostatic /
desolvation maps that :class:`repro.docking.grids.GridMaps` interpolates at
dock time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.docking.energy import (
    COULOMB,
    ECLAMP,
    RMIN,
    _MS_A,
    _MS_B,
    _MS_LAM,
    _MS_RK,
    vdw_pair_coefficients,
)
from repro.docking.grids import GridMaps
from repro.docking.params import (
    FE_WEIGHTS,
    HBOND_ACCEPTOR,
    HBOND_DONOR,
    get_atom_params,
)

__all__ = ["Receptor"]

_SIGMA = 3.6
_QSOLPAR = 0.01097
#: (grid point, receptor atom) pairs per ``make_maps`` tile, 128 KiB per
#: float64 plane: the seven planes stay in cache, and since they are
#: allocated once per build, a small tile costs no page faults per tile
_TILE_PAIRS = 1 << 14


@dataclass
class Receptor:
    """A rigid receptor (binding-pocket atoms).

    Parameters
    ----------
    name:
        Identifier.
    atom_types:
        AD4 atom type per receptor atom.
    coords:
        ``(m, 3)`` Cartesian coordinates [Å].
    charges:
        Partial charges, ``(m,)``.
    """

    name: str
    atom_types: list[str]
    coords: np.ndarray
    charges: np.ndarray

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=np.float64)
        self.charges = np.asarray(self.charges, dtype=np.float64)
        m = self.coords.shape[0]
        if self.coords.shape != (m, 3) or self.charges.shape != (m,):
            raise ValueError("receptor coords/charges shape mismatch")
        if len(self.atom_types) != m:
            raise ValueError("receptor atom_types length mismatch")
        for t in self.atom_types:
            get_atom_params(t)

    @property
    def n_atoms(self) -> int:
        return self.coords.shape[0]

    # ------------------------------------------------------------------

    def make_maps(self, probe_types: list[str], origin: np.ndarray,
                  shape: tuple[int, int, int], spacing: float) -> GridMaps:
        """Build grid maps for the given probe (ligand) atom types.

        The affinity maps carry the AD4 vdW/H-bond FE weights; the
        electrostatic map carries ``w_elec * 332 * q_j / (r eps(r))``; the
        two desolvation maps carry the receptor-side volume and solvation
        sums with the gaussian kernel and ``w_desolv`` baked in.

        The grid is swept in tiles of whole z-rows, about ``_TILE_PAIRS``
        (grid point, receptor atom) pairs each, so the working set grows
        with the tile, not the grid: seven tile-sized planes (``r``, the
        powers of ``inv_r2`` and two work planes) are allocated once per
        call and every step writes into them with ``out=``.  Squared
        distances come from per-axis tables ``(axis_k - X[:, k]) ** 2``,
        and the probe-independent powers ``inv_r2 ** 3`` / ``** 5`` are
        taken once per tile; a probe whose pairs are all 12-6 reads
        ``inv_r2 ** 3`` directly, the others select the 12-10 columns
        with two ``np.copyto`` calls.

        Byte-identity contract: every map value is the float64 result of
        the point-by-point form -- ``r = max(norm(point - X, axis=-1),
        RMIN)``, whose length-3 reduce adds ``(dx**2 + dy**2) + dz**2``,
        then the same elementwise operations in the same order, and one
        contiguous ``.sum(axis=1)`` over all receptor atoms.  Tiling
        changes neither the operations nor the row length of that sum, so
        the maps do not depend on the tile size.  ``np.power(inv_r2, k,
        out=...)`` and ``np.square`` are the loops ``inv_r2 ** k`` and
        ``** 2`` run, and ``.sum(axis=1, out=...)`` is the ``.sum`` loop;
        keep them: repeated multiplies or a BLAS product round
        differently.
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

        # a tile is a run of whole (x, y) rows of nz grid points each; its
        # planes are allocated once and every step writes into them
        n_rows = nx * ny
        tile_rows = max(1, _TILE_PAIRS // max(1, nz * m_atoms))
        planes = np.empty((7, tile_rows * nz, m_atoms))
        xy = np.empty((tile_rows, m_atoms))
        m10 = pm != 6
        c_eps = -_MS_LAM * _MS_B
        for r0 in range(0, n_rows, tile_rows):
            r1 = min(r0 + tile_rows, n_rows)
            lo, hi = r0 * nz, r1 * nz
            r, inv_r2, inv_r6, inv_r12, inv_r10, w1, w2 = planes[:, :hi - lo]
            ix, iy = np.divmod(np.arange(r0, r1), ny)
            np.add(dx2[ix], dy2[iy], out=xy[:r1 - r0])
            np.add(xy[:r1 - r0, None, :], dz2[None, :, :],
                   out=r.reshape(r1 - r0, nz, m_atoms))
            np.sqrt(r, out=r)
            np.maximum(r, RMIN, out=r)
            np.multiply(r, r, out=inv_r2)
            np.divide(1.0, inv_r2, out=inv_r2)
            np.power(inv_r2, 3, out=inv_r6)
            np.square(inv_r6, out=inv_r12)
            np.power(inv_r2, 5, out=inv_r10)
            for t_idx in range(n_probes):
                # np.where(pm == 6, inv_r6, inv_r10), selected in place
                inv_rm = inv_r6
                if not all_6[t_idx]:
                    inv_rm = w2
                    np.copyto(inv_rm, inv_r6)
                    np.copyto(inv_rm, inv_r10, where=m10[t_idx])
                np.multiply(pd[t_idx], inv_rm, out=w2)
                np.multiply(pc[t_idx], inv_r12, out=w1)
                np.subtract(w1, w2, out=w1)
                w1.sum(axis=1, out=aff[t_idx, lo:hi])
            # q / (r * dielectric(r)), energy.dielectric's chain in place
            np.multiply(c_eps, r, out=w1)
            np.exp(w1, out=w1)
            np.multiply(_MS_RK, w1, out=w1)
            np.add(1.0, w1, out=w1)
            np.divide(_MS_B, w1, out=w1)
            np.add(_MS_A, w1, out=w1)
            np.multiply(r, w1, out=w1)
            np.divide(self.charges, w1, out=w1)
            w1.sum(axis=1, out=elec[lo:hi])
            # gauss = exp(-0.5 * (r / _SIGMA) ** 2)
            np.divide(r, _SIGMA, out=w1)
            np.square(w1, out=w1)
            np.multiply(-0.5, w1, out=w1)
            np.exp(w1, out=w1)
            np.multiply(w1, rec_vol, out=w2)
            w2.sum(axis=1, out=desolv_v[lo:hi])
            np.multiply(w1, rec_sol, out=w2)
            w2.sum(axis=1, out=desolv_s[lo:hi])

        elec *= FE_WEIGHTS["elec"] * COULOMB
        blocks[n_probes + 1:] *= FE_WEIGHTS["desolv"]
        np.clip(aff, -ECLAMP, ECLAMP, out=aff)
        np.clip(elec, -ECLAMP, ECLAMP, out=elec)

        return GridMaps.from_flat(flat, origin=origin, spacing=spacing,
                                  type_names=list(probe_types), shape=shape)
