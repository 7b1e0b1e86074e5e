"""Receptor affinity grid maps with trilinear interpolation and gradients.

AutoDock precomputes, per ligand atom type, a 3-D grid of interaction
energies with the rigid receptor; docking then evaluates the intermolecular
score as one trilinear interpolation per atom (InterScore, Algorithm 2) and
its gradient analytically from the same eight corners (InterGradient,
Algorithm 4).  This module reproduces that machinery:

* one affinity map per ligand atom type (vdW + H-bond, weights baked in),
* an electrostatics map (multiplied by the atom charge at lookup),
* two desolvation maps (volume- and solvation-weighted receptor sums,
  combined with the atom's own parameters at lookup),
* a quadratic out-of-box penalty that pushes strays back inside, as the
  CUDA kernels do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.docking.quaternion import xyz_sum

__all__ = ["GridMaps", "OUT_OF_BOX_PENALTY"]

#: quadratic penalty slope for atoms outside the box [kcal/mol/Å^2]
OUT_OF_BOX_PENALTY = 50.0


def _planes(v, ndim: int) -> np.ndarray:
    """A per-axis ``(3,)`` vector shaped ``(3, 1, ..., 1)`` to broadcast
    against rank-``ndim`` component planes."""
    return np.asarray(v).reshape((3,) + (1,) * (ndim - 1))


def _corner_flat(i0: np.ndarray, i1: np.ndarray, ny, nz) -> np.ndarray:
    """Raveled indices ``(8, ...)`` of the eight interpolation corners.

    ``i0`` / ``i1`` are ``(3, ...)`` lower / upper corner planes; ``ny``
    and ``nz`` broadcast against one plane (scalars for one map set,
    per-ligand columns in a cohort pack).  Computed once per lookup and
    shared by all four map channels.  Corner-major, so each corner's
    gathered values are one contiguous block for the blends; order
    ``c000, c100, c010, c110, c001, ..., c111``.
    """
    x0, y0, z0 = i0
    x1, y1, z1 = i1
    bx0 = x0 * ny
    bx1 = x1 * ny
    r00 = (bx0 + y0) * nz
    r10 = (bx1 + y0) * nz
    r01 = (bx0 + y1) * nz
    r11 = (bx1 + y1) * nz
    flat = np.empty((8,) + x0.shape, dtype=np.int64)
    np.add(r00, z0, out=flat[0])
    np.add(r10, z0, out=flat[1])
    np.add(r01, z0, out=flat[2])
    np.add(r11, z0, out=flat[3])
    np.add(r00, z1, out=flat[4])
    np.add(r10, z1, out=flat[5])
    np.add(r01, z1, out=flat[6])
    np.add(r11, z1, out=flat[7])
    return flat


def _interp(c: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Trilinear blend of the corner-major values ``c (8, ...)`` at the
    fraction planes ``f (3, ...)``; extra leading axes of ``c[k]`` (the
    channel axis of the fused gather) broadcast against ``f``."""
    fx, fy, fz = f
    gx, gy, gz = 1 - fx, 1 - fy, 1 - fz
    c00 = c[0] * gx + c[1] * fx
    c10 = c[2] * gx + c[3] * fx
    c01 = c[4] * gx + c[5] * fx
    c11 = c[6] * gx + c[7] * fx
    c0 = c00 * gy + c10 * fy
    c1 = c01 * gy + c11 * fy
    return c0 * gz + c1 * fz


def _interp_grad_raw(c: np.ndarray, f: np.ndarray):
    """Analytic gradient of the trilinear interpolant in *grid units*
    (not yet divided by the spacing), as the three component arrays
    ``(gx, gy, gz)``, each shaped like one corner ``c[k]``."""
    fx, fy, fz = f
    ox, oy, oz = 1 - fx, 1 - fy, 1 - fz
    c000, c100, c010, c110, c001, c101, c011, c111 = c
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
    return gx, gy, gz


def _grid_terms(c: np.ndarray, f: np.ndarray, d_out: np.ndarray, spacing,
                charges, solpar, vol, with_gradient: bool):
    """Per-atom energies (and gradients) from the gathered corners.

    ``c`` is the ``(8, 4, ..., n)`` corner-major gather of the four map
    channels, ``f`` and ``d_out`` the ``(3, ..., n)`` fraction and
    out-of-box displacement [Å] planes; ``spacing`` and the per-atom AD4
    parameters broadcast against ``(..., n)``.  Returns ``(..., n)``
    energies, plus ``(..., n, 3)`` gradients when ``with_gradient`` is
    set.  The single-ligand reference and cohort packs both call it.
    """
    e = _interp(c, f)                                   # (4, ..., n)
    energy = e[0] + charges * e[1] + solpar * e[2] + vol * e[3]
    # out-of-box quadratic penalty (grid-space displacement -> Å)
    energy = energy + OUT_OF_BOX_PENALTY * xyz_sum(*d_out, squares=True)
    if not with_gradient:
        return energy
    grad = np.empty(energy.shape + (3,))
    for k, g in enumerate(_interp_grad_raw(c, f)):
        g /= spacing                                    # (4, ..., n)
        grad[..., k] = (g[0] + charges * g[1] + solpar * g[2]
                        + vol * g[3]) + 2.0 * OUT_OF_BOX_PENALTY * d_out[k]
    return energy, grad


@dataclass
class GridMaps:
    """A set of docking grid maps.

    Attributes
    ----------
    origin:
        Cartesian position of grid node ``(0, 0, 0)`` [Å].
    spacing:
        Grid spacing [Å] (AutoDock default 0.375).
    type_names:
        Atom-type order of the ``affinity`` stack.
    affinity:
        ``(n_types, nx, ny, nz)`` vdW+H-bond maps (FE weights baked in).
    elec:
        ``(nx, ny, nz)`` electrostatic potential map (weighted; multiply by
        the atom charge).
    desolv_v / desolv_s:
        ``(nx, ny, nz)`` receptor desolvation sums (volume-weighted and
        solvation-weighted); combined at lookup with per-atom parameters.
    """

    origin: np.ndarray
    spacing: float
    type_names: list[str]
    affinity: np.ndarray
    elec: np.ndarray
    desolv_v: np.ndarray
    desolv_s: np.ndarray

    def __post_init__(self) -> None:
        self.origin = np.asarray(self.origin, dtype=np.float64)
        self.affinity = np.asarray(self.affinity, dtype=np.float64)
        if self.affinity.ndim != 4 or self.affinity.shape[0] != len(self.type_names):
            raise ValueError("affinity must be (n_types, nx, ny, nz)")
        shape = self.affinity.shape[1:]
        for name in ("elec", "desolv_v", "desolv_s"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"{name} map shape {arr.shape} != {shape}")
            setattr(self, name, arr)
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")
        # type -> affinity-map index LUT, built once (type_index sits on the
        # dock-setup path of every screening job)
        self._type_lut = {t: k for k, t in enumerate(self.type_names)}
        self._n_voxels = int(np.prod(shape))
        # fused lookup buffer, built lazily on first interpolation: builders
        # (e.g. the synthetic-case generator) may still write into the map
        # arrays after construction, so the snapshot is deferred until the
        # maps are actually used.  Maps must not change afterwards; use
        # dataclasses.replace (re-runs this hook) to derive modified maps.
        self._flat_maps = None
        self._chan_base = None
        self._offs_cache = None

    def _build_flat(self) -> None:
        """Flatten all maps into one contiguous buffer so the trilinear
        corner lookups become single ``take`` calls: affinity stack first
        (one voxel block per type), then elec / desolv_v / desolv_s."""
        n_types = len(self.type_names)
        self._flat_maps = np.concatenate([
            self.affinity.reshape(-1), self.elec.reshape(-1),
            self.desolv_v.reshape(-1), self.desolv_s.reshape(-1)])
        #: voxel-block offsets of the 3 shared channels behind the stack
        self._chan_base = self._n_voxels * np.arange(
            n_types, n_types + 3, dtype=np.int64)

    @classmethod
    def from_flat(cls, flat: np.ndarray, *, origin, spacing: float,
                  type_names: list[str],
                  shape: tuple[int, int, int]) -> "GridMaps":
        """Rebuild a map set from its fused flat buffer (zero-copy).

        ``flat`` is the layout :meth:`_build_flat` produces — the affinity
        stack followed by the elec / desolv_v / desolv_s blocks — e.g. a
        read-only ``np.load(..., mmap_mode="r")`` view of a stored blob.
        The four map attributes become *views into that buffer*, and the
        fused lookup buffer is installed directly, so neither text parsing
        nor the concatenation in :meth:`_build_flat` runs.
        """
        flat = np.asarray(flat)
        if flat.dtype != np.float64:
            flat = flat.astype(np.float64)
        n_types = len(type_names)
        nx, ny, nz = (int(d) for d in shape)
        nvox = nx * ny * nz
        expected = (n_types + 3) * nvox
        if flat.shape != (expected,):
            raise ValueError(
                f"flat buffer has shape {flat.shape}, expected ({expected},) "
                f"for {n_types} types and grid {shape}")
        blocks = [flat[k * nvox:(k + 1) * nvox]
                  for k in range(n_types, n_types + 3)]
        maps = cls(origin=origin, spacing=float(spacing),
                   type_names=list(type_names),
                   affinity=flat[:n_types * nvox].reshape(n_types, nx, ny, nz),
                   elec=blocks[0].reshape(nx, ny, nz),
                   desolv_v=blocks[1].reshape(nx, ny, nz),
                   desolv_s=blocks[2].reshape(nx, ny, nz))
        maps._flat_maps = flat
        maps._chan_base = nvox * np.arange(n_types, n_types + 3,
                                           dtype=np.int64)
        return maps

    @property
    def flat_maps(self) -> np.ndarray:
        """The fused lookup buffer, building it on first access.

        This is what the disk cache tier stores: one contiguous array
        whose layout :meth:`from_flat` inverts.
        """
        if self._flat_maps is None:
            self._build_flat()
        return self._flat_maps

    @property
    def nbytes(self) -> int:
        """Resident-byte cost including the lazily-built fused buffer.

        The fused buffer duplicates all four map stacks, so a map set is
        charged for it *up front* — whether or not :meth:`_build_flat` has
        run yet — keeping cache accounting an upper bound on what the
        entry can ever grow to.  Instances built by :meth:`from_flat` hold
        views into one buffer and are charged for that buffer once.
        """
        component = (self.affinity.nbytes + self.elec.nbytes
                     + self.desolv_v.nbytes + self.desolv_s.nbytes)
        flat = self._flat_maps
        if flat is not None and np.shares_memory(flat, self.affinity):
            total = flat.nbytes          # from_flat: maps are views
        else:
            total = 2 * component        # built, or will be built lazily
        # _build_flat always creates the 3-element channel-base table;
        # charge it up front so the lazy build never grows the entry
        total += 3 * np.dtype(np.int64).itemsize
        cached = self._offs_cache
        if cached is not None:
            total += cached[2].nbytes
        return total

    # ------------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.affinity.shape[1:]

    @property
    def box_lo(self) -> np.ndarray:
        return self.origin

    @property
    def box_hi(self) -> np.ndarray:
        return self.origin + (np.array(self.shape) - 1) * self.spacing

    def type_index(self, atom_types: list[str]) -> np.ndarray:
        """Map atom type names to affinity-map indices."""
        try:
            return np.asarray([self._type_lut[t] for t in atom_types],
                              dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"no grid map for atom type {exc.args[0]!r}") from None

    # ------------------------------------------------------------------
    # interpolation core

    def _locate(self, coords: np.ndarray):
        """Corner indices, fractions and out-of-box displacement of every
        atom, as ``(3, ..., n)`` component planes."""
        coords = np.asarray(coords, dtype=np.float64)
        # one strided transpose up front; every step after it runs on
        # contiguous planes
        u = np.subtract(np.moveaxis(coords, -1, 0),
                        _planes(self.origin, coords.ndim), order="C")
        u /= self.spacing
        # non-finite coordinates (degenerate poses) land far outside the
        # box: clamped inside with a very large out-of-box penalty
        u = np.nan_to_num(u, nan=1e4, posinf=1e4, neginf=-1e4)
        dims = np.asarray(self.shape, dtype=np.float64)
        uc = np.clip(u, 0.0, _planes(dims - 1.0 - 1e-9, coords.ndim))
        out = u - uc                     # signed out-of-box displacement
        i0 = np.floor(uc).astype(np.int64)
        i1 = np.minimum(i0 + 1, _planes(np.asarray(self.shape) - 1,
                                        coords.ndim))
        f = uc - i0
        return i0, i1, f, out

    def _gather_corners(self, type_idx: np.ndarray, i0: np.ndarray,
                        i1: np.ndarray) -> np.ndarray:
        """Corner values of all four channels in one ``take``.

        Returns ``(8, 4, ..., n_atoms)``, corner-major: channel 0 is the
        per-atom-type affinity map, channels 1-3 the shared elec /
        desolv_v / desolv_s maps.  Per-atom type offsets plus the flat
        corner indices address the stacked buffer built in
        ``__post_init__``.
        """
        if self._flat_maps is None:
            self._build_flat()
        _, ny, nz = self.shape
        flat = _corner_flat(i0, i1, ny, nz)            # (8, ..., n)
        n = type_idx.shape[0]
        # channel 0: per-atom voxel-block offset; channels 1-3: fixed
        # blocks.  The offset tensor depends only on the caller's type_idx
        # array (one per bound scoring function) and the batch rank, so it
        # is cached across lookups (the cache holds the type_idx reference,
        # making the identity check safe against id reuse).
        cached = self._offs_cache
        if (cached is not None and cached[0] is type_idx
                and cached[1] == flat.ndim):
            offs = cached[2]
        else:
            offs = np.empty((4, n), dtype=np.int64)
            np.multiply(type_idx, self._n_voxels, out=offs[0])
            offs[1:] = self._chan_base[:, None]
            # right-align the per-atom axis against flat's (8, ..., n)
            offs = offs.reshape((4,) + (1,) * (flat.ndim - 2) + (n,))
            self._offs_cache = (type_idx, flat.ndim, offs)
        return self._flat_maps.take(flat[:, None] + offs)

    # ------------------------------------------------------------------
    # public lookups

    def interatom_energy(self, coords: np.ndarray, type_idx: np.ndarray,
                         charges: np.ndarray, solpar: np.ndarray,
                         vol: np.ndarray,
                         with_gradient: bool = False):
        """Per-atom intermolecular energies (and optionally gradients).

        Parameters
        ----------
        coords:
            ``(pop, n_atoms, 3)`` (or unbatched ``(n_atoms, 3)``).
        type_idx / charges / solpar / vol:
            Per-atom grid-map index and AD4 parameters, each ``(n_atoms,)``.

        Returns
        -------
        ``(pop, n_atoms)`` energies, plus ``(pop, n_atoms, 3)`` gradients
        when ``with_gradient`` is set.
        """
        i0, i1, f, out = self._locate(coords)
        c = self._gather_corners(type_idx, i0, i1)     # (8, 4, ..., n)
        return _grid_terms(c, f, out * self.spacing, self.spacing,
                           np.asarray(charges, dtype=np.float64),
                           np.asarray(solpar, dtype=np.float64),
                           np.asarray(vol, dtype=np.float64), with_gradient)
