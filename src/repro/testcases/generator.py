"""Synthetic docking problem generator with known ground truth.

``make_test_case`` builds, from a name / rotatable-bond count / seed:

1. a branched ligand — a heavy-atom backbone long enough to host the
   requested number of rotatable bonds plus terminal decorations, with AD4
   atom types and charges;
2. a *native pose* (random but recorded) and a receptor pocket constructed
   around it with complementary atom types, so the native basin is a deep
   minimum;
3. grid maps over a box enclosing the pocket;
4. the reference global-minimum score, obtained by refining the native pose
   with an exact-arithmetic ADADELTA run.

The known native pose / global score give the two success criteria of the
E50 analysis exact ground truth — the property the substitution must
preserve (DESIGN.md Section 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.docking.genotype import genotype_length
from repro.docking.cohort import CohortGradientCalculator, CohortScoring
from repro.docking.grids import GridMaps
from repro.docking.ligand import Ligand, TorsionBond
from repro.docking.pose import calc_coords
from repro.docking.receptor import Receptor
from repro.docking.scoring import ScoringFunction
from repro.search.adadelta import AdadeltaConfig, AdadeltaLocalSearch
from repro.simt.costmodel import KernelWorkload

__all__ = ["TestCase", "make_test_case", "WORKLOAD_SCALE"]

_BOND_LENGTH = 1.5
_GRID_SPACING = 0.5
#: voxels per ``_sculpt_wells`` slab (whole x-planes, at least one):
#: 128 KiB per float64 plane
_SLAB_VOXELS = 1 << 14

#: size ratio of the real set-of-42 molecules to the synthetic minis
#: (see :meth:`TestCase.workload`)
WORKLOAD_SCALE = 2.5


@dataclass
class TestCase:
    """One ligand-receptor docking problem with ground truth."""

    name: str
    ligand: Ligand
    receptor: Receptor
    maps: GridMaps
    native_genotype: np.ndarray
    native_coords: np.ndarray
    global_min_score: float

    @property
    def n_rot(self) -> int:
        return self.ligand.n_rot

    def scoring(self) -> ScoringFunction:
        """A scoring function bound to this case."""
        return ScoringFunction(self.ligand, self.maps)

    def workload(self, n_blocks: int,
                 scale: float = WORKLOAD_SCALE) -> KernelWorkload:
        """Kernel workload shape for the cost model (Table 5/6 inputs).

        ``scale`` bridges the synthetic minis to the molecules their names
        refer to: the real set-of-42 ligands carry ~2.5x more atoms /
        intra pairs / rotation-list entries than our search-tractable
        synthetics, and the cost model prices the paper-equivalent shape.
        The genotype length (6 + N_rot) matches the real molecule exactly
        and is not scaled.
        """
        return KernelWorkload(
            n_rotlist=max(1, int(self.ligand.n_rotlist * scale)),
            n_atoms=max(1, int(self.ligand.n_atoms * scale)),
            n_intra=max(1, int(self.ligand.n_intra * scale)),
            n_genes=genotype_length(self.ligand),
            n_blocks=n_blocks,
        )

    def __repr__(self) -> str:
        return (f"TestCase({self.name!r}, n_rot={self.n_rot}, "
                f"n_atoms={self.ligand.n_atoms}, "
                f"global_min={self.global_min_score:.2f})")


# ---------------------------------------------------------------------------
# ligand construction


def _grow_ligand(rng: np.random.Generator, name: str, n_rot: int) -> Ligand:
    """Grow a branched heavy-atom tree hosting exactly ``n_rot`` torsions."""
    backbone_len = max(4, n_rot + 2)
    n_branches = int(rng.integers(2, 5))

    coords: list[np.ndarray] = [np.zeros(3)]
    parent: list[int] = [-1]
    children: list[list[int]] = [[]]

    def _attach(parent_idx: int) -> int:
        """Add one atom bonded to ``parent_idx`` at a tetrahedral-ish angle,
        rejecting positions that clash with existing non-bonded atoms."""
        base = coords[parent_idx]
        if parent[parent_idx] >= 0:
            away = base - coords[parent[parent_idx]]
            away /= np.linalg.norm(away)
        else:
            away = np.array([1.0, 0.0, 0.0])
        existing = np.asarray(coords)
        others = np.delete(existing, parent_idx, axis=0)
        pos = None
        for noise in (0.8, 0.8, 0.6, 0.6, 0.4, 0.4, 0.3, 0.2, 0.1, 0.05):
            direction = away + noise * rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            cand = base + _BOND_LENGTH * direction
            if others.size == 0 or np.min(
                    np.linalg.norm(others - cand, axis=1)) >= 2.2:
                pos = cand
                break
        if pos is None:   # fall back to straight extension
            pos = base + _BOND_LENGTH * away
        coords.append(pos)
        parent.append(parent_idx)
        children.append([])
        idx = len(coords) - 1
        children[parent_idx].append(idx)
        return idx

    # backbone chain
    tip = 0
    for _ in range(backbone_len - 1):
        tip = _attach(tip)

    # terminal branch decorations (never create new rotatable bonds: they
    # hang off backbone atoms as leaves)
    backbone = list(range(backbone_len))
    for _ in range(n_branches):
        host = int(rng.choice(backbone[1:-1])) if backbone_len > 2 else 0
        if len(children[host]) < 3:
            _attach(host)

    n = len(coords)
    bonds = [(parent[i], i) for i in range(1, n)]

    # subtree (descendant) sets for torsion moved lists
    def _descendants(idx: int) -> list[int]:
        out: list[int] = []
        stack = list(children[idx])
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(children[u])
        return sorted(out)

    # rotatable bonds: the first n_rot backbone bonds whose child has
    # descendants, in root-to-leaf order
    torsions: list[TorsionBond] = []
    for i in range(backbone_len - 1):
        a, b = backbone[i], backbone[i + 1]
        moved = [m for m in _descendants(b)]
        if moved and len(torsions) < n_rot:
            torsions.append(TorsionBond(atom_a=a, atom_b=b,
                                        moved=tuple(moved)))
    if len(torsions) != n_rot:
        raise AssertionError(
            f"constructed {len(torsions)} torsions, wanted {n_rot}")

    # atom types: a varied backbone palette (type diversity makes the
    # native arrangement chemically unique — flipped or shifted poses no
    # longer occupy equivalent wells) plus polar decorations at branch tips
    backbone_palette = ["C", "A", "N", "C", "OA", "A", "S", "C"]
    type_charge = {"C": 0.03, "A": 0.01, "N": -0.22, "OA": -0.32,
                   "S": -0.05, "NA": -0.25, "HD": 0.21}
    types = ["C"] * n
    charges = rng.normal(0.0, 0.03, size=n)
    offset = int(rng.integers(0, len(backbone_palette)))
    for pos, atom in enumerate(backbone):
        t = backbone_palette[(pos + offset) % len(backbone_palette)]
        types[atom] = t
        charges[atom] = type_charge[t] + float(rng.normal(0, 0.02))
    leaves = [i for i in range(n) if not children[i] and i != 0]
    polar_pool = ["OA", "N", "NA", "HD", "OA"]
    rng.shuffle(leaves)
    for k, leaf in enumerate(leaves[: max(2, n // 5)]):
        t = polar_pool[k % len(polar_pool)]
        types[leaf] = t
        charges[leaf] = type_charge[t]

    return Ligand(name=name, atom_types=types,
                  ref_coords=np.asarray(coords), charges=charges,
                  bonds=bonds, torsions=torsions)


# ---------------------------------------------------------------------------
# receptor pocket construction


_COMPLEMENT = {"HD": ("OA", -0.42), "OA": ("HD", 0.32), "NA": ("HD", 0.32),
               "N": ("HD", 0.28)}
_NEUTRAL_TYPES = ("C", "C", "A", "OA", "N")


def _build_pocket(rng: np.random.Generator, name: str, ligand: Ligand,
                  native_coords: np.ndarray) -> Receptor:
    """Place receptor atoms around the native pose, complementing its polar
    atoms so the native basin is strongly favourable."""
    centre = native_coords.mean(axis=0)
    rec_coords: list[np.ndarray] = []
    rec_types: list[str] = []
    rec_charges: list[float] = []

    def _try_place(pos: np.ndarray, t: str, q: float) -> None:
        # keep every receptor atom in the strictly attractive zone
        # (>= 3.6 Å) of every native ligand atom, so the native pose sits in
        # a purely favourable pocket
        if np.linalg.norm(native_coords - pos, axis=1).min() < 3.6:
            return
        if rec_coords and np.linalg.norm(
                np.asarray(rec_coords) - pos, axis=1).min() < 2.8:
            return   # would clash with an existing receptor atom
        rec_coords.append(pos)
        rec_types.append(t)
        rec_charges.append(q)

    # The pocket is a *partial* cage: directions within the opening cone
    # around ``opening`` stay clear, so the search can thread the ligand in
    # (real binding sites are open on one side).  Two shells: a contact
    # shell just outside the vdW optimum (strictly attractive for
    # Rij ~ 4 Å) and a bulk shell that deepens the pocket.
    opening = rng.normal(size=3)
    opening /= np.linalg.norm(opening)
    shells = ((4.0, 4.8, 4), (5.0, 7.5, 8))
    for i, atom_pos in enumerate(native_coords):
        outward = atom_pos - centre
        norm = np.linalg.norm(outward)
        outward = outward / norm if norm > 1e-9 else rng.normal(size=3)
        lig_type = ligand.atom_types[i]
        for d_lo, d_hi, attempts in shells:
            for _ in range(attempts):
                direction = outward + 0.7 * rng.normal(size=3)
                direction /= np.linalg.norm(direction)
                if float(direction @ opening) > 0.35:
                    continue   # inside the opening cone
                pos = atom_pos + rng.uniform(d_lo, d_hi) * direction
                if lig_type in _COMPLEMENT and rng.random() < 0.8:
                    t, q = _COMPLEMENT[lig_type]
                else:
                    t = str(rng.choice(_NEUTRAL_TYPES))
                    q = {"OA": -0.3, "N": -0.2}.get(
                        t, float(rng.normal(0, 0.05)))
                _try_place(pos, t, q)

    if len(rec_coords) < 8:
        raise RuntimeError(f"pocket construction failed for {name}")
    return Receptor(name=f"{name}-pocket", atom_types=rec_types,
                    coords=np.asarray(rec_coords),
                    charges=np.asarray(rec_charges))


# ---------------------------------------------------------------------------
# full case assembly


def _sculpt_wells(maps, ligand: Ligand, native_coords: np.ndarray,
                  origin: np.ndarray, n_side: int) -> None:
    """Stamp the two-scale gaussian well of every native atom into its
    type's affinity map (see :func:`make_test_case`).

    The grid is stamped one x-slab of about ``_SLAB_VOXELS`` voxels at a
    time, every well in place through one reused slab buffer, so nothing
    grid-sized is allocated.  Each well's squared distances come from
    per-axis tables added as ``(dx2 + dy2) + dz2``: the values, in the
    order, of the sum over a 3-D meshgrid, without the meshgrid.  Every
    voxel takes its subtractions in the same (atom, scale) order as a
    whole-grid stamp, one ``aff -= depth * exp(-d2 / (2 sigma**2))`` at
    a time, so the maps do not depend on the slab size.
    """
    well_depth = max(0.45, 12.0 / ligand.n_atoms)   # kcal/mol per atom
    well_scales = ((4.5, 0.4), (2.5, 0.6))          # (sigma Å, depth share)
    axes = [origin[k] + _GRID_SPACING * np.arange(n_side) for k in range(3)]
    # (atoms, n_side) per axis: row i is (axes[k] - pos_i[k]) ** 2
    dx2, dy2, dz2 = ((axes[k][None, :] - native_coords[:, k, None]) ** 2
                     for k in range(3))
    type_idx = maps.type_index(ligand.atom_types)
    slab = max(1, _SLAB_VOXELS // (n_side * n_side))
    buf = np.empty((2, slab, n_side, n_side))
    for x0 in range(0, n_side, slab):
        x1 = min(x0 + slab, n_side)
        neg_d2, well = buf[:, :x1 - x0]
        for i in range(len(native_coords)):
            np.add(dx2[i, x0:x1, None, None] + dy2[i, None, :, None],
                   dz2[i, None, None, :], out=neg_d2)
            np.negative(neg_d2, out=neg_d2)
            aff = maps.affinity[type_idx[i], x0:x1]
            for sigma, share in well_scales:
                np.divide(neg_d2, 2.0 * sigma ** 2, out=well)
                np.exp(well, out=well)
                np.multiply(well_depth * share, well, out=well)
                np.subtract(aff, well, out=aff)


def make_test_case(name: str, n_rot: int, seed: int,
                   refine_iters: int = 150) -> TestCase:
    """Build one synthetic docking test case.

    Parameters
    ----------
    name:
        Case label (PDB-code style).
    n_rot:
        Number of rotatable bonds (paper range: 0 to 32).
    seed:
        RNG seed — cases are fully reproducible.
    refine_iters:
        Exact-arithmetic ADADELTA iterations used to establish the
        global-minimum reference score.
    """
    rng = np.random.default_rng(seed)
    ligand = _grow_ligand(rng, name, n_rot)

    # native pose: modest torsion angles (a compact, pocket-like shape);
    # resample until the conformation is clash-free
    glen = genotype_length(ligand)
    pairs = ligand.intra_pairs()
    best_native, best_sep = None, -np.inf
    for _ in range(30):
        cand = np.zeros(glen)
        cand[3:6] = rng.normal(0.0, 0.4, size=3)
        cand[6:] = rng.uniform(-0.6, 0.6, size=glen - 6)
        coords = calc_coords(ligand, cand)
        if pairs.shape[0]:
            sep = float(np.min(np.linalg.norm(
                coords[pairs[:, 0]] - coords[pairs[:, 1]], axis=1)))
        else:
            sep = np.inf
        if sep > best_sep:
            best_native, best_sep = cand, sep
        if sep >= 3.0:
            break
    native = best_native
    native_coords = calc_coords(ligand, native)

    receptor = _build_pocket(rng, name, ligand, native_coords)

    # docking box around the native pose (receptor atoms outside the box
    # still shape the maps; the box only bounds the search space)
    centre = native_coords.mean(axis=0)
    half = float(np.max(np.abs(native_coords - centre))) + 4.5
    n_side = 2 * int(np.ceil(half / _GRID_SPACING)) + 1
    origin = centre - (n_side - 1) / 2 * _GRID_SPACING

    probe_types = sorted(set(ligand.atom_types))
    maps = receptor.make_maps(probe_types, origin,
                              (n_side, n_side, n_side), _GRID_SPACING)

    # Shape-complementarity sculpting: a real binding site is sterically and
    # chemically complementary to its native ligand — contacts the sparse
    # synthetic shell cannot reproduce.  We restore that by stamping a
    # type-specific gaussian well at each native atom position into the
    # corresponding affinity map.  The native arrangement (every atom in its
    # own matching well) is then the global optimum *by construction*, which
    # is exactly the ground truth the E50 metric requires (the paper defines
    # E50 against "the optimal score for a given ligand-receptor pair").
    # Two length scales make a funnel: a wide shallow basin that guides the
    # search from several Å away plus a tighter well that rewards native
    # contacts (real pockets have the same structure: long-range
    # electrostatics/desolvation over short-range shape fit).
    _sculpt_wells(maps, ligand, native_coords, origin, n_side)

    # reference global minimum: exact-arithmetic refinement from the native
    scoring = ScoringFunction(ligand, maps)
    refiner = AdadeltaLocalSearch(
        CohortGradientCalculator(CohortScoring([scoring]), "exact"),
        AdadeltaConfig(max_iters=refine_iters))
    refined, _, _ = refiner.minimize(native[None, :])
    global_min = float(min(scoring.score(refined[0])[0],
                           scoring.score(native)[0]))

    return TestCase(name=name, ligand=ligand, receptor=receptor, maps=maps,
                    native_genotype=native, native_coords=native_coords,
                    global_min_score=global_min)
