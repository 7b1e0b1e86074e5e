"""PDBQT-style ligand serialisation.

Writes/reads the subset of the AutoDock PDBQT dialect our ligand model
needs: ``ATOM`` records with coordinates / partial charge / AD type, the
``ROOT`` block, nested ``BRANCH``/``ENDBRANCH`` blocks for rotatable bonds,
and the trailing ``TORSDOF`` count.  Round-trips :class:`repro.docking.Ligand`
objects (the torsion tree is reconstructed from the branch nesting).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.docking.ligand import Ligand, TorsionBond
from repro.io.errors import ParseError

__all__ = ["write_pdbqt", "read_pdbqt"]


def write_pdbqt(ligand: Ligand, path: str | Path,
                coords: np.ndarray | None = None) -> None:
    """Write a ligand (optionally with pose coordinates) as PDBQT.

    Atoms are grouped by torsion signature: the rigid root block first,
    then one ``BRANCH`` block per rotatable bond, nested as the torsion
    tree nests (sibling branches close before the next one opens).
    """
    coords = ligand.ref_coords if coords is None else np.asarray(coords)
    if coords.shape != (ligand.n_atoms, 3):
        raise ValueError(f"coords must be ({ligand.n_atoms}, 3)")

    sigs = ligand.torsion_signature()
    lines = [f"REMARK  Name = {ligand.name}",
             f"REMARK  {ligand.n_rot} active torsions"]

    def atom_line(i: int) -> str:
        x, y, z = coords[i]
        return (f"ATOM  {i + 1:>5d}  {ligand.atom_types[i]:<3.3s} LIG A   1"
                f"    {x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00"
                f"    {ligand.charges[i]:6.3f} {ligand.atom_types[i]}")

    # root block: atoms moved by no torsion
    lines.append("ROOT")
    for i in range(ligand.n_atoms):
        if not sigs[i]:
            lines.append(atom_line(i))
    lines.append("ENDROOT")

    # branches depth-first, children in tree order: a branch's own atoms
    # (those whose innermost torsion it is), then its child branches,
    # then its ENDBRANCH, so sibling branches stay siblings.  A branch's
    # parent is the innermost torsion moving its axis atom ``atom_b``.
    children: dict[int, list[int]] = {}
    for k, tors in enumerate(ligand.torsions):
        children.setdefault(max(sigs[tors.atom_b], default=-1),
                            []).append(k)

    def branch(k: int) -> None:
        tors = ligand.torsions[k]
        lines.append(f"BRANCH {tors.atom_a + 1:>3d} {tors.atom_b + 1:>3d}")
        for i in tors.moved:
            if max(sigs[i]) == k:
                lines.append(atom_line(i))
        for child in children.get(k, []):
            branch(child)
        lines.append(f"ENDBRANCH {tors.atom_a + 1:>3d} {tors.atom_b + 1:>3d}")

    for k in children.get(-1, []):
        branch(k)
    lines.append(f"TORSDOF {ligand.n_rot}")

    Path(path).write_text("\n".join(lines) + "\n")


def read_pdbqt(path: str | Path, name: str | None = None) -> Ligand:
    """Read a PDBQT ligand written by :func:`write_pdbqt`.

    Reconstructs atoms, charges, types, the torsion tree (from the branch
    nesting) and a chain of bonds sufficient to reproduce the torsion
    separation structure.
    """
    path = Path(path)
    name = name or path.stem

    # atoms keyed by their serial (the writer preserves original indices)
    atoms: dict[int, tuple[str, list[float], float]] = {}
    branch_stack: list[tuple[int, int, list[int]]] = []
    torsions_raw: list[tuple[int, int, list[int]]] = []

    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        try:
            if line.startswith("ATOM"):
                idx = int(line[6:11]) - 1
                charge_field = line[66:76].split()
                if not charge_field:
                    raise ValueError("missing partial charge")
                atoms[idx] = (line[12:16].strip(),
                              [float(line[30:38]), float(line[38:46]),
                               float(line[46:54])],
                              float(charge_field[0]))
                for _, _, moved in branch_stack:
                    moved.append(idx)
            elif line.startswith("BRANCH"):
                _, a, b = line.split()
                branch_stack.append((int(a) - 1, int(b) - 1, []))
            elif line.startswith("ENDBRANCH"):
                if not branch_stack:
                    raise ValueError("ENDBRANCH without open BRANCH")
                a, b, moved = branch_stack.pop()
                torsions_raw.append((a, b, moved))
        except (ValueError, IndexError) as exc:
            record = line.split()[0] if line.split() else "record"
            raise ParseError(path, f"malformed {record}: {exc}",
                             line=lineno, text=line) from exc

    if branch_stack:
        raise ParseError(path, f"{len(branch_stack)} unbalanced BRANCH "
                               f"block(s) never closed by ENDBRANCH")
    if not atoms:
        raise ParseError(path, "no ATOM records found")
    if sorted(atoms) != list(range(len(atoms))):
        raise ParseError(path, "non-contiguous atom serials")

    n = len(atoms)
    atom_types = [atoms[i][0] for i in range(n)]
    xyz = np.asarray([atoms[i][1] for i in range(n)])
    charges = np.asarray([atoms[i][2] for i in range(n)])

    # branches close innermost-first; restore root-to-leaf order by the
    # tree structure (parents have strictly larger moved sets)
    torsions_raw.sort(key=lambda t: -len(t[2]))
    torsions = [TorsionBond(atom_a=a, atom_b=b, moved=tuple(sorted(m)))
                for a, b, m in torsions_raw if m]

    # bonds: torsion axes plus a nearest-neighbour chain for the rest
    bonds = {(min(a, b), max(a, b)) for a, b, _ in torsions_raw}
    for i in range(1, n):
        d = np.linalg.norm(xyz[:i] - xyz[i], axis=1)
        j = int(np.argmin(d))
        bonds.add((min(i, j), max(i, j)))

    return Ligand(name=name, atom_types=atom_types, ref_coords=xyz,
                  charges=charges, bonds=sorted(bonds),
                  torsions=torsions)
