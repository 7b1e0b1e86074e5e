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

__all__ = ["Receptor"]

_SIGMA = 3.6
_QSOLPAR = 0.01097
#: (grid point, receptor atom) pairs per ``make_maps`` tile, 512 KiB per
#: float64 temporary: small enough for the cache, large enough that the
#: per-tile NumPy call overhead stays small
_TILE_PAIRS = 1 << 16


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
        tile_rows = max(1, _TILE_PAIRS // max(1, nz * m_atoms))
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
