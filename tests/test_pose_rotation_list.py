"""The level-synchronous rotation list against the per-ligand torsion loop.

:class:`~repro.docking.pose.RotationList` runs every pack member's
``k``-th torsion in one step; :func:`_reference_calc_coords` below is the
per-ligand torsion loop it replaced, kept verbatim as the oracle.  The
pass rule is bit identity: every slot's coordinates equal the oracle's
byte for byte, and padded atoms are exactly ``+0.0``.

The synthetic test cases and benchmark libraries are linear torsion
chains, so the trees here are generated: sibling torsions off one atom
and nested branches, ordered as :func:`~repro.io.pdbqt.read_pdbqt`
returns them (descending moved-atom count).
"""

import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.docking import Ligand, ScoringFunction, TorsionBond
from repro.docking.cohort import CohortGradientCalculator, CohortScoring
from repro.docking.genotype import N_RIGID_GENES
from repro.docking.pose import RotationList, calc_coords
from repro.docking.quaternion import quat_from_rotvec, quat_rotate
from repro.io.pdbqt import read_pdbqt, write_pdbqt

#: atom types covered by the ``small_maps`` fixture
TYPES = ("C", "OA", "HD")
#: angles that stress the trig: zeros of both signs, large magnitudes
SPECIAL_ANGLES = (0.0, -0.0, np.pi, -np.pi, 1e3, -1e3, 123456.789, -1e6)


def _reference_calc_coords(ligand, genotypes):
    """The per-ligand torsion loop (one ``calc_coords`` call per ligand,
    ~30 NumPy calls per torsion), as it stood before the rotation list."""
    genotypes = np.asarray(genotypes, dtype=np.float64)
    pop = genotypes.shape[0]
    coords = np.broadcast_to(ligand.ref_coords[:, :, None],
                             (ligand.n_atoms, 3, pop)).copy()
    torsions = [(t.atom_a, t.atom_b, np.asarray(t.moved, dtype=np.int64))
                for t in ligand.torsions]
    if torsions:
        angles = genotypes[:, N_RIGID_GENES:]
        cos_all = np.cos(angles)
        sin_all = np.sin(angles)
    for k, (atom_a, atom_b, moved) in enumerate(torsions):
        b = coords[atom_b]
        axis = b - coords[atom_a]
        ax0, ax1, ax2 = axis
        norm = np.sqrt((ax0 * ax0 + ax1 * ax1) + ax2 * ax2)
        axis = axis / np.maximum(norm, 1e-12)
        ax0, ax1, ax2 = axis
        rel = coords[moved] - b
        r0, r1, r2 = rel[:, 0], rel[:, 1], rel[:, 2]
        k_cross = np.empty_like(rel)
        np.subtract(ax1 * r2, ax2 * r1, out=k_cross[:, 0])
        np.subtract(ax2 * r0, ax0 * r2, out=k_cross[:, 1])
        np.subtract(ax0 * r1, ax1 * r0, out=k_cross[:, 2])
        k_dot = (ax0 * r0 + ax1 * r1) + ax2 * r2
        cos_t = cos_all[:, k]
        np.multiply(rel, cos_t, out=rel)
        np.multiply(k_cross, sin_all[:, k], out=k_cross)
        np.add(rel, k_cross, out=rel)
        swing = axis * k_dot[:, None, :]
        np.multiply(swing, 1.0 - cos_t, out=swing)
        np.add(rel, swing, out=rel)
        np.add(rel, b, out=rel)
        coords[moved] = rel
    coords = np.ascontiguousarray(coords.transpose(2, 0, 1))
    pivot = coords[:, 0:1, :]
    quat = quat_from_rotvec(genotypes[:, 3:6])
    coords = quat_rotate(quat, coords - pivot)
    return coords + genotypes[:, None, 0:3]


def _reference_pack_coords(ligands, genes):
    """One oracle call per slot, landed in a zeroed padded block."""
    A, B = genes.shape[:2]
    out = np.zeros((A, B, max(lig.n_atoms for lig in ligands), 3))
    for a, lig in enumerate(ligands):
        g = np.ascontiguousarray(genes[a, :, :N_RIGID_GENES + lig.n_rot])
        out[a, :, :lig.n_atoms] = _reference_calc_coords(lig, g)
    return out


def assert_same_bytes(got, ref):
    assert got.dtype == ref.dtype == np.float64
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


# ----------------------------------------------------------------------
# generated torsion trees


def _make_ligand(name, n_root, attach, extras, seed):
    """A ligand whose torsion ``t`` is the bond ``attach[t] -> b_t``
    to a new axis atom followed by ``extras[t]`` more atoms, so the
    branches nest or share an atom as ``attach`` says."""
    owner = [-1] * n_root                  # branch owning each atom
    bonds = [(i, i + 1) for i in range(n_root - 1)]
    own = []
    parent = []
    for t, (a, m) in enumerate(zip(attach, extras)):
        a = a % len(owner)
        b = len(owner)
        atoms = list(range(b, b + 1 + m))
        owner.extend([t] * len(atoms))
        bonds.append((a, b))
        bonds.extend((i, i + 1) for i in atoms[:-1])
        own.append(atoms)
        parent.append((owner[a], a))

    n_rot = len(own)
    children = {}
    for t, (pb, _) in enumerate(parent):
        children.setdefault(pb, []).append(t)

    def subtree(t):
        out = list(own[t])
        for u in children.get(t, []):
            out += subtree(u)
        return out

    moved = [tuple(sorted(set(subtree(t)) - {own[t][0]}))
             for t in range(n_rot)]
    # depth-first order, children by (descending size, creation)
    preorder = []

    def visit(p):
        for u in sorted(children.get(p, []),
                        key=lambda u: (-len(moved[u]), u)):
            preorder.append(u)
            visit(u)

    visit(-1)
    pos = {t: i for i, t in enumerate(preorder)}
    order = sorted(range(n_rot), key=lambda t: (-len(moved[t]), pos[t]))
    torsions = [TorsionBond(atom_a=parent[t][1], atom_b=own[t][0],
                            moved=moved[t]) for t in order]
    rng = np.random.default_rng(seed)
    n = len(owner)
    return Ligand(name=name,
                  atom_types=[TYPES[i] for i in rng.integers(0, 3, n)],
                  ref_coords=rng.normal(0.0, 2.0, (n, 3)),
                  charges=np.round(rng.normal(0.0, 0.2, n), 3),
                  bonds=bonds, torsions=torsions)


@st.composite
def branched_ligands(draw, max_rot=20):
    n_rot = draw(st.integers(0, max_rot))
    attach = draw(st.lists(st.integers(0, 10_000), min_size=n_rot,
                           max_size=n_rot))
    extras = draw(st.lists(st.integers(1, 3), min_size=n_rot,
                           max_size=n_rot))
    return _make_ligand(f"br{n_rot}", draw(st.integers(2, 4)), attach,
                        extras, draw(st.integers(0, 2**32 - 1)))


@st.composite
def cohorts(draw, max_size=5):
    """Distinct ligands of mixed size, one object repeated in two slots."""
    ligands = draw(st.lists(branched_ligands(), min_size=1,
                            max_size=max_size))
    repeat = draw(st.integers(0, len(ligands) - 1))
    slots = ligands + [ligands[repeat]]
    order = draw(st.permutations(range(len(slots))))
    return [slots[i] for i in order]


batch_sizes = st.one_of(st.just(1), st.integers(1, 15).map(lambda k: 2 * k + 1),
                        st.just(72))


def _genes(ligands, B, seed, G=None):
    """``(A, B, G)`` genes: random rigid genes (some rotations exactly
    zero), angles mixing uniform draws with :data:`SPECIAL_ANGLES`, and
    finite garbage in each slot's padded torsion columns."""
    rng = np.random.default_rng(seed)
    R = max(lig.n_rot for lig in ligands)
    G = N_RIGID_GENES + R if G is None else G
    A = len(ligands)
    genes = rng.normal(0.0, 3.0, (A, B, G))
    genes[..., 3:6] *= rng.random((A, B, 1)) < 0.8
    angles = rng.uniform(-4 * np.pi, 4 * np.pi, (A, B, G - N_RIGID_GENES))
    special = rng.random(angles.shape) < 0.25
    angles[special] = rng.choice(SPECIAL_ANGLES, int(special.sum()))
    genes[..., N_RIGID_GENES:] = angles
    return genes


def _tree_is_branched(ligand):
    sets = [set(t.moved) for t in ligand.torsions]
    return any(not (s <= u or u <= s)
               for i, s in enumerate(sets) for u in sets[i + 1:])


# ----------------------------------------------------------------------


BRANCHED = _make_ligand("fixed", 3, attach=[1, 1, 3, 9, 3, 0],
                        extras=[2, 1, 2, 1, 1, 2], seed=7)


def test_fixed_tree_has_siblings_and_nesting():
    assert _tree_is_branched(BRANCHED)
    depth = [sum(set(t.moved) < set(u.moved) for u in BRANCHED.torsions)
             for t in BRANCHED.torsions]
    assert max(depth) >= 2
    sizes = [len(t.moved) for t in BRANCHED.torsions]
    assert sizes == sorted(sizes, reverse=True)


@settings(max_examples=60, deadline=None)
@given(ligand=branched_ligands(), B=batch_sizes,
       seed=st.integers(0, 2**32 - 1))
@example(ligand=BRANCHED, B=72, seed=0)
def test_calc_coords_matches_reference(ligand, B, seed):
    g = _genes([ligand], B, seed)[0]
    assert_same_bytes(calc_coords(ligand, g),
                      _reference_calc_coords(ligand, g))
    assert_same_bytes(calc_coords(ligand, g[0]),
                      _reference_calc_coords(ligand, g[:1])[0])


@settings(max_examples=60, deadline=None)
@given(ligands=cohorts(), B=batch_sizes, seed=st.integers(0, 2**32 - 1))
@example(ligands=[BRANCHED, BRANCHED], B=1, seed=1)
def test_cohort_matches_reference(ligands, B, seed):
    rotation_list = RotationList(ligands)
    genes = _genes(ligands, B, seed)
    got = rotation_list(genes)
    assert_same_bytes(got, _reference_pack_coords(ligands, genes))
    for a, lig in enumerate(ligands):
        assert (got[a, :, lig.n_atoms:].view(np.uint64) == 0).all()


@settings(max_examples=40, deadline=None)
@given(ligands=cohorts())
def test_step_count_is_max_n_rot(ligands):
    rotation_list = RotationList(ligands)
    assert rotation_list.n_steps == max(lig.n_rot for lig in ligands)
    # one multi-member step per level shared by two or more members (a
    # list of one ligand object folds to a single member)
    members = ligands[:1] if rotation_list.fold else ligands
    assert rotation_list.fold == all(lig is ligands[0] for lig in ligands)
    shared = sum(1 for k in range(rotation_list.n_steps)
                 if sum(lig.n_rot > k for lig in members) > 1)
    assert sum(step[3] is not None for step in rotation_list.steps) == shared


def test_one_ligand_pack_folds_its_slots(case_7cpa):
    lig = case_7cpa.ligand
    rotation_list = RotationList([lig] * 4)
    assert rotation_list.fold and rotation_list.n_steps == lig.n_rot == 15
    genes = _genes([lig] * 4, 9, 3)
    assert_same_bytes(rotation_list(genes),
                      _reference_pack_coords([lig] * 4, genes))


def test_every_score_and_gradient_call_is_one_pose_pass(case_7cpa,
                                                        case_small):
    """Coords, score and gradient calls each pose the whole pack in one
    rotation-list pass, whatever its make-up (two slots here share one
    ligand object, the third differs)."""
    cohort = CohortScoring([case_7cpa.scoring(), case_small.scoring(),
                            case_7cpa.scoring()])
    pack = cohort.pack
    calls = []
    rotation_list = pack.rotation_list

    def counting(genes):
        calls.append(genes.shape)
        return rotation_list(genes)

    pack.rotation_list = counting
    genes = _genes(pack.ligands, 5, 11)
    assert_same_bytes(cohort.coords(genes),
                      _reference_pack_coords(pack.ligands, genes))
    cohort.score(genes)
    CohortGradientCalculator(cohort)(genes.reshape(15, pack.G))
    assert calls == [(3, 5, pack.G)] * 3
    assert rotation_list.n_steps == 15


@settings(max_examples=25, deadline=None)
@given(ligands=cohorts(max_size=4), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_subset_matches_fresh_pack(small_maps, ligands, data, seed):
    scorings = [ScoringFunction(lig, small_maps) for lig in ligands]
    cohort = CohortScoring(scorings)
    idx = sorted(data.draw(st.sets(st.integers(0, len(ligands) - 1),
                                   min_size=1)))
    fresh = CohortScoring([scorings[i] for i in idx])
    # a subset is posed with the full pack's gene width, as the
    # lock-step engine calls it
    genes = _genes(fresh.pack.ligands, 3, seed, G=cohort.pack.G)
    got = cohort.coords(genes, cohort.pack.subset(idx))
    want = fresh.coords(genes[..., :fresh.pack.G])
    assert_same_bytes(got, want)


@settings(max_examples=40, deadline=None)
@given(ligand=branched_ligands())
@example(ligand=BRANCHED)
def test_branched_pdbqt_round_trip(ligand):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lig.pdbqt")
        write_pdbqt(ligand, path)
        back = read_pdbqt(path)
    assert back.torsions == ligand.torsions
    assert back.atom_types == ligand.atom_types
    np.testing.assert_allclose(back.ref_coords, ligand.ref_coords, atol=2e-3)
    np.testing.assert_allclose(back.charges, ligand.charges, atol=6e-4)


def test_linear_chain_pdbqt_still_nests_every_branch(tmp_path, case_7cpa):
    """A chain writes every BRANCH inside the one before it, as it
    always did: all branches open in torsion order, then close in
    reverse."""
    path = tmp_path / "chain.pdbqt"
    write_pdbqt(case_7cpa.ligand, path)
    lines = path.read_text().splitlines()
    opens = [ln.split()[1:] for ln in lines if ln.startswith("BRANCH")]
    closes = [ln.split()[1:] for ln in lines if ln.startswith("ENDBRANCH")]
    assert len(opens) == case_7cpa.ligand.n_rot == 15
    assert closes == opens[::-1]
    kinds = [ln.split()[0] for ln in lines
             if ln.startswith(("BRANCH", "ENDBRANCH"))]
    assert kinds == ["BRANCH"] * 15 + ["ENDBRANCH"] * 15
    assert read_pdbqt(path).torsions == case_7cpa.ligand.torsions
