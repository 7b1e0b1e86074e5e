"""Pose calculation: genotype -> atom coordinates (Algorithm 2/4, step 1).

Reproduces AutoDock-GPU's PoseCalculation: torsion rotations are applied in
root-to-leaf tree order on the reference conformation (axis endpoints taken
at their *current* positions, so parent torsions correctly transport child
axes), followed by the rigid-body rotation about the ligand centre and the
translation into the grid frame.

Rotation list
-------------
AutoDock-GPU flattens each ligand's torsion tree into a rotation list and
runs it once per pose (the ``N_rot-list`` loop bound of Algorithms 2/4).
:class:`RotationList` compiles that loop for a whole list of ligands — the
slots of a :class:`~repro.docking.cohort.LigandPack`, or one ligand — and
runs it *level-synchronously*: step ``k`` applies every member's ``k``-th
torsion as one gather, rotate and scatter over the concatenated moved-atom
rows.  A pose call therefore costs ``max N_rot`` steps, not ``sum N_rot``.
One rigid-body rotation and translation then covers the whole
``(slots, batch, N, 3)`` block, and padded atoms are written as ``+0.0``.
A step with one active member broadcasts its axis and angle over the moved
rows exactly as a single ligand does; a list whose slots all hold one
ligand object folds the slot axis into the batch.  :func:`calc_coords` is
the same kernel over a cached one-ligand list.

Each atom sees the same elementwise operations in the same order whatever
list it is compiled into (the torsion order of a ligand, and within each
step only elementwise arithmetic and fixed three-term sums), so every
slot's coordinates are bit-identical to the ligand posed alone.

Fully batched: ``genes`` is ``(slots, batch, glen)`` and the result is
``(slots, batch, N, 3)``.
"""

from __future__ import annotations

import numpy as np

from repro.docking.genotype import N_RIGID_GENES
from repro.docking.ligand import Ligand
from repro.docking.quaternion import quat_from_rotvec, quat_rotate

__all__ = ["RotationList", "calc_coords"]


class RotationList:
    """Level-synchronous torsion schedule for a list of ligands.

    Slot ``s`` owns rows ``s*N .. s*N + n_atoms[s]`` of a flat
    ``(slots * N, 3, batch)`` coordinate buffer.  ``steps[k]`` holds
    ``(a_rows, b_rows, moved_rows, seg, slot)`` for the ``k``-th torsion
    of every member with more than ``k`` torsions: the axis-endpoint rows,
    the concatenated moved-atom rows, and — when more than one member is
    active — each moved row's position in the active list (``seg``) and
    its slot (``slot``, the angle lookup).  A step with one active member
    has scalar axis rows, ``seg=None`` and the member's slot number.
    """

    def __init__(self, ligands: list[Ligand]) -> None:
        ligands = list(ligands)
        if not ligands:
            raise ValueError("rotation list needs at least one ligand")
        #: every slot holds one ligand object: poses fold into one batch
        self.fold = all(lig is ligands[0] for lig in ligands)
        members = ligands[:1] if self.fold else ligands
        S = len(members)
        n_atoms = np.array([lig.n_atoms for lig in members], dtype=np.int64)
        self.N = N = int(n_atoms.max())
        self.R = max(lig.n_rot for lig in members)
        ref = np.zeros((S, N, 3))
        for s, lig in enumerate(members):
            ref[s, :lig.n_atoms] = lig.ref_coords
        self._ref = ref.reshape(S * N, 3)
        pad = np.arange(N) >= n_atoms[:, None]
        #: ``(S, 1, N, 1)`` mask of padded atoms, or None when none pad
        self._pad = pad[:, None, :, None] if pad.any() else None

        self.steps = []
        for k in range(self.R):
            active = [s for s, lig in enumerate(members) if lig.n_rot > k]
            tors = [members[s].torsions[k] for s in active]
            moved = [s * N + np.asarray(t.moved, dtype=np.int64)
                     for s, t in zip(active, tors)]
            if len(active) == 1:
                s, t = active[0], tors[0]
                self.steps.append((s * N + t.atom_a, s * N + t.atom_b,
                                   moved[0], None, s))
                continue
            counts = [len(t.moved) for t in tors]
            self.steps.append((
                np.array([s * N + t.atom_a for s, t in zip(active, tors)],
                         dtype=np.int64),
                np.array([s * N + t.atom_b for s, t in zip(active, tors)],
                         dtype=np.int64),
                np.concatenate(moved),
                np.repeat(np.arange(len(active), dtype=np.int64), counts),
                np.repeat(np.array(active, dtype=np.int64), counts)))

    @property
    def n_steps(self) -> int:
        """Torsion steps per pose call: ``max N_rot`` over the members."""
        return len(self.steps)

    def __call__(self, genes: np.ndarray) -> np.ndarray:
        """Pose ``(slots, batch, G)`` float64 genes -> ``(slots, batch, N,
        3)`` coordinates; ``G`` may exceed a slot's gene length (padded
        torsion columns are never read by that slot's rows)."""
        A, B = genes.shape[:2]
        if self.fold:
            genes = genes.reshape(1, A * B, genes.shape[2])
        S, batch = genes.shape[:2]
        # component-major layout (rows, 3, batch) through the torsion
        # loop: the moved-row gather/scatter runs on axis 0 (fancy
        # indexing copies contiguous (3, batch) rows) and every component
        # slice is a dense row, so the cross/dot arithmetic runs at
        # contiguous-ufunc speed
        coords = np.broadcast_to(self._ref[:, :, None],
                                 (S * self.N, 3, batch)).copy()
        if self.steps:
            # all torsion angles' trig in one call each, up front
            angles = genes[..., N_RIGID_GENES:N_RIGID_GENES + self.R]
            cos_all = np.cos(angles)                 # (S, batch, R)
            sin_all = np.sin(angles)
            omc_all = 1.0 - cos_all
        # torsions, root -> leaf: the inlined equivalent of
        # quaternion.axis_angle_rotate.  The explicit three-term sums add
        # in np.sum's left-to-right order: the axis norm (a sum of
        # squares) matches np.sum bit for bit, and k_dot does except on
        # an all -0.0 product row, where it keeps -0.0 and np.sum gives
        # +0.0 (see quaternion.xyz_sum)
        for k, (atom_a, atom_b, moved, seg, slot) in enumerate(self.steps):
            b = coords[atom_b]                       # (3, B) / (n, 3, B)
            axis = b - coords[atom_a]
            ax0, ax1, ax2 = axis[..., 0, :], axis[..., 1, :], axis[..., 2, :]
            norm = np.sqrt((ax0 * ax0 + ax1 * ax1) + ax2 * ax2)
            axis = axis / np.maximum(norm, 1e-12)[..., None, :]
            cos_t = cos_all[slot, :, k]
            sin_t = sin_all[slot, :, k]
            omc_t = omc_all[slot, :, k]
            if seg is not None:
                # several active members: expand each member's axis,
                # pivot and angle to its moved rows (one active member
                # broadcasts them, as a ligand posed alone does)
                b = b[seg]
                axis = axis[seg]
                cos_t = cos_t[:, None, :]
                sin_t = sin_t[:, None, :]
                omc_t = omc_t[:, None, :]
            ax0, ax1, ax2 = axis[..., 0, :], axis[..., 1, :], axis[..., 2, :]
            rel = coords[moved] - b                  # (n_moved, 3, B)
            r0, r1, r2 = rel[:, 0], rel[:, 1], rel[:, 2]
            k_cross = np.empty_like(rel)
            np.subtract(ax1 * r2, ax2 * r1, out=k_cross[:, 0])
            np.subtract(ax2 * r0, ax0 * r2, out=k_cross[:, 1])
            np.subtract(ax0 * r1, ax1 * r0, out=k_cross[:, 2])
            k_dot = (ax0 * r0 + ax1 * r1) + ax2 * r2
            # rel*cos + k_cross*sin + (axis*k_dot)*(1-cos) + b, in place
            # over the rel/k_cross buffers (dead after this point)
            np.multiply(rel, cos_t, out=rel)
            np.multiply(k_cross, sin_t, out=k_cross)
            np.add(rel, k_cross, out=rel)
            swing = axis * k_dot[:, None, :]
            np.multiply(swing, omc_t, out=swing)
            np.add(rel, swing, out=rel)
            np.add(rel, b, out=rel)
            coords[moved] = rel

        coords = np.ascontiguousarray(
            coords.reshape(S, self.N, 3, batch).transpose(0, 3, 1, 2))

        # rigid-body rotation about the ligand's "about" point — the
        # torsion tree root (atom 0), which no torsion moves.  Using a
        # torsion-invariant pivot keeps the gene blocks decoupled, as
        # AutoDock's fixed about-point does.
        pivot = coords[:, :, 0:1, :]
        quat = quat_from_rotvec(genes[..., 3:6])
        coords = quat_rotate(quat, coords - pivot)

        # translation: the translation genes are the root-atom position
        coords = coords + genes[..., None, 0:3]
        if self._pad is not None:
            np.copyto(coords, 0.0, where=self._pad)
        return coords.reshape(A, B, self.N, 3)


def calc_coords(ligand: Ligand, genotypes: np.ndarray) -> np.ndarray:
    """Transform genotypes into atomic coordinates.

    Parameters
    ----------
    ligand:
        The ligand whose reference conformation and torsion tree apply.
    genotypes:
        ``(pop, 6 + n_rot)`` gene matrix (or a single ``(6 + n_rot,)``
        vector, which is promoted).

    Returns
    -------
    ``(pop, n_atoms, 3)`` float64 coordinates in the grid frame.
    """
    genotypes = np.asarray(genotypes, dtype=np.float64)
    squeeze = genotypes.ndim == 1
    if squeeze:
        genotypes = genotypes[None, :]
    expected = N_RIGID_GENES + ligand.n_rot
    if genotypes.shape[1] != expected:
        raise ValueError(
            f"genotype length {genotypes.shape[1]} != expected {expected} "
            f"for ligand with {ligand.n_rot} torsions")
    # the one-ligand list is compiled once per ligand object
    rotation_list = ligand.__dict__.get("_rotation_list")
    if rotation_list is None:
        rotation_list = ligand.__dict__["_rotation_list"] = \
            RotationList([ligand])
    coords = rotation_list(genotypes[None])[0]
    return coords[0] if squeeze else coords
