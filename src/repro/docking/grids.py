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

All of a map set's channels live in one fused buffer, as in AutoDock-GPU,
so a lookup gathers every channel's corners in one ``take``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.docking.quaternion import xyz_sum

__all__ = ["GridMaps", "OUT_OF_BOX_PENALTY"]

#: quadratic penalty slope for atoms outside the box [kcal/mol/Å^2]
OUT_OF_BOX_PENALTY = 50.0

#: the four channel fields of a map set, in buffer order
_CHANNELS = ("affinity", "elec", "desolv_v", "desolv_s")


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
    """A set of docking grid maps, stored in one fused lookup buffer.

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

    Storage: :attr:`flat_maps` is the only storage of a map set, one
    ``(n_types + 3) * nx * ny * nz`` float64 buffer holding the affinity
    stack (one voxel block per type) and then the elec / desolv_v /
    desolv_s blocks, the layout AutoDock-GPU's InterScore / InterGradient
    gathers index by atom-type offset.  After construction the four
    channel fields are reshaped views of that buffer, so a write through
    them (``maps.affinity[k] -= well``) is seen by the next lookup.
    Rebinding a field does not touch the buffer; derive a map set with
    new arrays with :func:`dataclasses.replace`.  The constructor (and so
    ``replace``) copies the given arrays into a fresh buffer once;
    :meth:`from_flat` adopts its buffer without a copy.
    """

    origin: np.ndarray
    spacing: float
    type_names: list[str]
    affinity: np.ndarray
    elec: np.ndarray
    desolv_v: np.ndarray
    desolv_s: np.ndarray

    def __post_init__(self) -> None:
        channels = [np.asarray(getattr(self, name)) for name in _CHANNELS]
        affinity = channels[0]
        if affinity.ndim != 4 or affinity.shape[0] != len(self.type_names):
            raise ValueError("affinity must be (n_types, nx, ny, nz)")
        shape = affinity.shape[1:]
        for name, arr in zip(_CHANNELS[1:], channels[1:]):
            if arr.shape != shape:
                raise ValueError(f"{name} map shape {arr.shape} != {shape}")
        # copy the channels into one fresh buffer, once
        flat = np.concatenate([arr.reshape(-1) for arr in channels],
                              dtype=np.float64)
        self._adopt(flat, shape)

    def _adopt(self, flat: np.ndarray, shape) -> None:
        """Make the contiguous float64 ``flat`` this map set's storage:
        the channel fields become views of its voxel blocks."""
        self.origin = np.asarray(self.origin, dtype=np.float64)
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")
        n_types = len(self.type_names)
        nx, ny, nz = (int(d) for d in shape)
        blocks = flat.reshape(n_types + 3, nx, ny, nz)
        self.affinity = blocks[:n_types]
        self.elec, self.desolv_v, self.desolv_s = blocks[n_types:]
        self._flat_maps = flat
        # type -> affinity-map index LUT, built once (type_index sits on the
        # dock-setup path of every screening job)
        self._type_lut = {t: k for k, t in enumerate(self.type_names)}
        self._n_voxels = nx * ny * nz
        #: voxel-block offsets of the 3 shared channels behind the stack
        self._chan_base = self._n_voxels * np.arange(
            n_types, n_types + 3, dtype=np.int64)
        self._offs_cache = None

    @classmethod
    def from_flat(cls, flat: np.ndarray, *, origin, spacing: float,
                  type_names: list[str],
                  shape: tuple[int, int, int]) -> "GridMaps":
        """Adopt a fused buffer as a map set's storage (zero-copy).

        ``flat`` has the :attr:`flat_maps` layout: a buffer that
        ``Receptor.make_maps`` or ``io.read_maps`` filled, or a read-only
        ``np.load(..., mmap_mode="r")`` view of a stored blob.  A
        contiguous float64 buffer is not copied.
        """
        flat = np.ascontiguousarray(flat, dtype=np.float64)
        n_types = len(type_names)
        expected = (n_types + 3) * int(np.prod(shape))
        if flat.shape != (expected,):
            raise ValueError(
                f"flat buffer has shape {flat.shape}, expected ({expected},) "
                f"for {n_types} types and grid {tuple(shape)}")
        maps = cls.__new__(cls)
        maps.origin = origin
        maps.spacing = float(spacing)
        maps.type_names = list(type_names)
        maps._adopt(flat, shape)
        return maps

    def __getstate__(self) -> dict:
        # copy, deepcopy and pickle carry the one buffer, not five arrays
        return {"origin": self.origin, "spacing": self.spacing,
                "type_names": self.type_names, "flat": self._flat_maps,
                "shape": self.shape}

    def __setstate__(self, state: dict) -> None:
        self.origin = state["origin"]
        self.spacing = state["spacing"]
        self.type_names = state["type_names"]
        self._adopt(state["flat"], state["shape"])

    @property
    def flat_maps(self) -> np.ndarray:
        """The fused lookup buffer, the map set's one storage.

        This is what the disk cache tier stores: one contiguous array
        whose layout :meth:`from_flat` adopts.
        """
        return self._flat_maps

    @property
    def nbytes(self) -> int:
        """Resident bytes: the one buffer plus its index tables (the
        channel-base table and the cached lookup offsets)."""
        total = self._flat_maps.nbytes + self._chan_base.nbytes
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

    def block_offsets(self, type_idx: np.ndarray) -> np.ndarray:
        """``(4, n)`` offsets into :attr:`flat_maps` of each atom's four
        voxel blocks: row 0 its type's affinity map, rows 1-3 the shared
        elec / desolv_v / desolv_s maps."""
        offs = np.empty((4, type_idx.shape[0]), dtype=np.int64)
        np.multiply(type_idx, self._n_voxels, out=offs[0])
        offs[1:] = self._chan_base[:, None]
        return offs

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
        desolv_v / desolv_s maps.  Per-atom block offsets plus the flat
        corner indices address :attr:`flat_maps`.
        """
        _, ny, nz = self.shape
        flat = _corner_flat(i0, i1, ny, nz)            # (8, ..., n)
        # The offset tensor depends only on the caller's type_idx array
        # (one per bound scoring function) and the batch rank, so it is
        # cached across lookups (the cache holds the type_idx reference,
        # making the identity check safe against id reuse).
        cached = self._offs_cache
        if (cached is not None and cached[0] is type_idx
                and cached[1] == flat.ndim):
            offs = cached[2]
        else:
            # right-align the per-atom axis against flat's (8, ..., n)
            offs = self.block_offsets(type_idx).reshape(
                (4,) + (1,) * (flat.ndim - 2) + (type_idx.shape[0],))
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
