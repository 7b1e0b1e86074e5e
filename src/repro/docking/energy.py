"""AutoDock4 pairwise energy terms and their radial derivatives.

Implements the four AD4 free-energy terms for intramolecular contributor
pairs (and, via :mod:`repro.docking.receptor`, for grid-map construction):

* dispersion/repulsion 12-6 (``C/r^12 - D/r^6``),
* hydrogen bonding 12-10 (``C/r^12 - D/r^10``, donor-H <-> acceptor pairs;
  directionality omitted — see DESIGN.md),
* screened Coulomb electrostatics with the Mehler-Solmajer
  distance-dependent dielectric,
* gaussian desolvation.

Energies are clamped at ``ECLAMP`` and pair distances floored at ``RMIN``
exactly like the CUDA kernels clamp steep clashes; note the clamp value
exceeds FP16's max finite value (65504), so clash gradients saturate in the
FP16 Tensor Core path while surviving in TF32 — one of the mechanisms behind
the paper's Figure 1 accuracy loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.docking.ligand import Ligand
from repro.docking.params import FE_WEIGHTS, HBOND_ACCEPTOR, HBOND_DONOR
from repro.docking.quaternion import xyz_sum

__all__ = [
    "ECLAMP",
    "GRADCLAMP",
    "RMIN",
    "PairTables",
    "build_pair_tables",
    "dielectric",
    "dielectric_derivative",
    "intra_contributions",
    "vdw_pair_coefficients",
]

#: energy clamp for clashing pairs [kcal/mol] (AutoDock-GPU's EINTCLAMP)
ECLAMP = 100_000.0

#: per-contribution gradient bound [kcal/mol/Å] — a float-safety cap only.
#: AutoDock-GPU does not clamp per-contribution gradients: steep vdW
#: clashes produce values of 1e6 and beyond, far past FP16's max finite
#: value (65504).  Those contributions overflow at the FP16 *input
#: conversion* of the uncorrected Tensor Core reduction (Schieffer-Peng's
#: Listing 1), while FP32/TF32 handle them — one of the mechanisms behind
#: the paper's Figure 1 accuracy loss.  The genotype-space trust region
#: (GENE_GRADIENT_CLAMP) keeps the optimiser stable for valid back-ends.
GRADCLAMP = 1.0e7

#: pair-distance floor [Å]
RMIN = 0.5

#: Coulomb conversion constant [kcal Å / (mol e^2)]
COULOMB = 332.06363

#: AutoDock's pairwise-potential smoothing half-width [Å]: within
#: ``SMOOTH_HALF_WIDTH`` of the potential minimum the energy is flattened
#: to the minimum value, absorbing small experimental coordinate errors
#: (AutoDock's default smoothing parameter is 0.5 Å total width)
SMOOTH_HALF_WIDTH = 0.25

#: Mehler-Solmajer sigmoidal dielectric constants
_MS_A = -8.5525
_MS_B = 78.4 - _MS_A          # epsilon0 - A
_MS_RK = 7.7839
_MS_LAM = 0.003627

#: desolvation gaussian width [Å] and charge-dependent solvation parameter
_SIGMA = 3.6
_QSOLPAR = 0.01097


def dielectric(r: np.ndarray) -> np.ndarray:
    """Mehler-Solmajer distance-dependent dielectric ``eps(r)``."""
    r = np.asarray(r, dtype=np.float64)
    u = _MS_RK * np.exp(-_MS_LAM * _MS_B * r)
    return _MS_A + _MS_B / (1.0 + u)


def dielectric_derivative(r: np.ndarray) -> np.ndarray:
    """``d eps / d r`` of the Mehler-Solmajer dielectric."""
    r = np.asarray(r, dtype=np.float64)
    u = _MS_RK * np.exp(-_MS_LAM * _MS_B * r)
    return _MS_LAM * _MS_B * _MS_B * u / (1.0 + u) ** 2


def vdw_pair_coefficients(rii: float, epsii: float, rjj: float, epsjj: float,
                          hbond: bool, rij_hb: float = 0.0,
                          epsij_hb: float = 0.0) -> tuple[float, float, int]:
    """AD4 pair coefficients ``(C, D, m)`` for the 12-m potential.

    Lorentz-Berthelot style combination: ``Rij = (Rii + Rjj) / 2``,
    ``epsij = sqrt(epsii * epsjj)``.  Hydrogen-bonding pairs use the 12-10
    form with the acceptor's H-bond radius/depth.
    """
    if hbond:
        rij = rij_hb
        epsij = epsij_hb
        m = 10
        c = 5.0 * epsij * rij ** 12
        d = 6.0 * epsij * rij ** 10
    else:
        rij = 0.5 * (rii + rjj)
        epsij = float(np.sqrt(epsii * epsjj))
        m = 6
        c = epsij * rij ** 12
        d = 2.0 * epsij * rij ** 6
    return c, d, m


@dataclass(frozen=True)
class PairTables:
    """Precomputed per-pair force-field columns for a ligand's intra pairs.

    All arrays have length ``n_intra``; ``i`` / ``j`` index atoms.
    """

    i: np.ndarray
    j: np.ndarray
    c: np.ndarray          # repulsive coefficient (weighted)
    d: np.ndarray          # attractive coefficient (weighted)
    m: np.ndarray          # attractive power (6 or 10)
    qq: np.ndarray         # weighted Coulomb product w_e * 332 * qi * qj
    dsolv: np.ndarray      # weighted desolvation prefactor

    @property
    def n_pairs(self) -> int:
        return self.i.shape[0]


def build_pair_tables(ligand: Ligand) -> PairTables:
    """Assemble the intramolecular pair tables for ``ligand``."""
    pairs = ligand.intra_pairs()
    cols = ligand.params_arrays()
    i = pairs[:, 0]
    j = pairs[:, 1]

    hb_i, hb_j = cols["hbond"][i], cols["hbond"][j]
    donor_acceptor = ((hb_i == HBOND_DONOR) & (hb_j == HBOND_ACCEPTOR)) | \
                     ((hb_i == HBOND_ACCEPTOR) & (hb_j == HBOND_DONOR))

    n = pairs.shape[0]
    c = np.empty(n)
    d = np.empty(n)
    m = np.empty(n, dtype=np.int64)
    w_vdw = FE_WEIGHTS["vdw"]
    w_hb = FE_WEIGHTS["hbond"]
    for k in range(n):
        a, b = i[k], j[k]
        if donor_acceptor[k]:
            # acceptor side carries the H-bond radius/depth
            acc = a if cols["hbond"][a] == HBOND_ACCEPTOR else b
            ck, dk, mk = vdw_pair_coefficients(
                cols["rii"][a], cols["epsii"][a],
                cols["rii"][b], cols["epsii"][b],
                hbond=True, rij_hb=cols["rii_hb"][acc],
                epsij_hb=cols["epsii_hb"][acc])
            c[k], d[k], m[k] = w_hb * ck, w_hb * dk, mk
        else:
            ck, dk, mk = vdw_pair_coefficients(
                cols["rii"][a], cols["epsii"][a],
                cols["rii"][b], cols["epsii"][b], hbond=False)
            c[k], d[k], m[k] = w_vdw * ck, w_vdw * dk, mk

    q = np.asarray(ligand.charges, dtype=np.float64)
    qq = FE_WEIGHTS["elec"] * COULOMB * q[i] * q[j]
    s_i = cols["solpar"][i] + _QSOLPAR * np.abs(q[i])
    s_j = cols["solpar"][j] + _QSOLPAR * np.abs(q[j])
    dsolv = FE_WEIGHTS["desolv"] * (s_i * cols["vol"][j] + s_j * cols["vol"][i])

    return PairTables(i=i, j=j, c=c, d=d, m=m, qq=qq, dsolv=dsolv)


def intra_contributions(tables: PairTables, coords: np.ndarray,
                        smooth: bool = False, with_geometry: bool = False
                        ) -> tuple[np.ndarray, ...]:
    """Per-pair intramolecular energies and radial derivatives.

    Parameters
    ----------
    tables:
        Output of :func:`build_pair_tables`.
    coords:
        ``(pop, n_atoms, 3)`` coordinates.
    smooth:
        Apply AutoDock's potential smoothing: distances within
        ``SMOOTH_HALF_WIDTH`` of the pair's vdW optimum are evaluated at
        the optimum (flat well bottom, zero derivative there).  Off by
        default — the synthetic landscapes are calibrated without it.
    with_geometry:
        Also return the pair displacement vectors and raw distances, so
        gradient callers reuse them instead of re-gathering the pair
        coordinates (two fancy gathers per call on the hot path).

    Returns
    -------
    (energy, dE_dr):
        Both ``(pop, n_pairs)``; the gradient contribution of pair ``k`` on
        atom ``i`` is ``dE_dr[..., k] * (r_i - r_j) / r``.  With
        ``with_geometry`` the tuple extends to
        ``(energy, dE_dr, delta, r_raw)`` where ``delta`` is
        ``(pop, n_pairs, 3)`` and ``r_raw`` the unclamped distances.
    """
    coords = np.asarray(coords, dtype=np.float64)
    delta = coords[..., tables.i, :] - coords[..., tables.j, :]
    # np.linalg.norm's reduction, without its wrapper or strided sum
    r_raw = np.sqrt(xyz_sum(delta[..., 0], delta[..., 1], delta[..., 2],
                            squares=True))
    r = np.maximum(r_raw, RMIN)
    in_well = None
    if smooth:
        # the 12-m potential's minimum: r_opt = (12 c / (m d))^(1/(12-m))
        r_opt = (12.0 * tables.c / (tables.m * tables.d)) \
            ** (1.0 / (12.0 - tables.m))
        hw = SMOOTH_HALF_WIDTH
        in_well = np.abs(r - r_opt) <= hw
        # AutoDock smoothing: shift every distance toward the optimum by
        # up to the half-width; inside the band the well bottom is flat
        r_vdw = np.where(r < r_opt - hw, r + hw,
                         np.where(r > r_opt + hw, r - hw, r_opt))
    else:
        r_vdw = r

    inv_r = 1.0 / r
    # the vdW/H-bond terms use the (optionally smoothed) distance
    inv_rv = 1.0 / r_vdw
    inv_rv2 = inv_rv * inv_rv
    inv_r6 = inv_rv2 ** 3
    inv_rm = np.where(tables.m == 6, inv_r6, inv_rv2 ** 5)
    inv_r12 = inv_r6 ** 2

    e_vdw = tables.c * inv_r12 - tables.d * inv_rm
    de_vdw = (-12.0 * tables.c * inv_r12
              + tables.m * tables.d * inv_rm) * inv_rv
    if in_well is not None:
        de_vdw = np.where(in_well, 0.0, de_vdw)   # flat well bottom

    eps = dielectric(r)
    e_elec = tables.qq * inv_r / eps
    de_elec = -e_elec * (inv_r + dielectric_derivative(r) / eps)

    gauss = np.exp(-0.5 * (r / _SIGMA) ** 2)
    e_solv = tables.dsolv * gauss
    de_solv = e_solv * (-r / _SIGMA ** 2)

    energy = e_vdw + e_elec + e_solv
    de_dr = de_vdw + de_elec + de_solv

    # clash clamping: cap energy and its slope
    np.clip(energy, -ECLAMP, ECLAMP, out=energy)
    np.clip(de_dr, -GRADCLAMP, GRADCLAMP, out=de_dr)
    # below the distance floor the derivative direction is ill-defined;
    # keep the (clamped) slope so the optimiser still pushes apart
    if with_geometry:
        return energy, de_dr, delta, r_raw
    return energy, de_dr
