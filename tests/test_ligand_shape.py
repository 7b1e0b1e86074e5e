"""`ligand_shape`: the service's one answer to "how big is this ligand".

For every spec kind, the shape must equal the atoms, torsions and
rotation-list length of the ligand :func:`~repro.serve.cache.load_case`
builds for that spec — including branched torsion trees, which no
synthetic case or benchmark library has — while a ``.rlig`` member is
sized from its record's meta header without decoding any array.
"""

import pytest

from repro.io import pack_rlig, write_maps, write_pdbqt
from repro.io.errors import ParseError
from repro.io.rlig import RligReader
from repro.serve.cache import LigandShape, ligand_shape, load_case
from repro.testcases.library import SET_OF_42, case_ligand, get_test_case
from tests.test_pose_rotation_list import BRANCHED, _tree_is_branched

#: a branched tree, a linear chain and a torsion-free ligand; the 7cpa
#: maps cover all of their atom types
LIGANDS = [BRANCHED, case_ligand("7cpa"), case_ligand("1u4d")]


@pytest.fixture(scope="module")
def library(tmp_path_factory, case_7cpa):
    root = tmp_path_factory.mktemp("shape")
    write_maps(case_7cpa.maps, root, stem="receptor")
    paths = []
    for i, ligand in enumerate(LIGANDS):
        paths.append(root / f"lig{i}.pdbqt")
        write_pdbqt(ligand, paths[-1])
    pack = root / "lib.rlig"
    pack_rlig(pack, paths)
    return {"fld": str(root / "receptor.maps.fld"), "pdbqt": paths,
            "pack": str(pack)}


def _specs(library, i):
    fld, path = library["fld"], str(library["pdbqt"][i])
    rlig = {"kind": "rlig", "pack": library["pack"], "index": i}
    return {"case-ligand": {"kind": "case-ligand", "case": "7cpa",
                            "ligand": path},
            "files": {"kind": "files", "fld": fld, "ligand": path},
            "rlig+case": {**rlig, "case": "7cpa"},
            "rlig+fld": {**rlig, "fld": fld}}


@pytest.mark.parametrize("kind", ["case-ligand", "files", "rlig+case",
                                  "rlig+fld"])
def test_shape_matches_the_ligand_load_case_builds(library, kind):
    assert _tree_is_branched(BRANCHED)
    for i in range(len(LIGANDS)):
        spec = _specs(library, i)[kind]
        ligand = load_case(spec).ligand
        got = ligand_shape(spec)
        assert got == LigandShape(ligand.n_atoms, ligand.n_rot,
                                  ligand.n_rotlist), (kind, i)
        assert got == LigandShape.of(LIGANDS[i])


@pytest.mark.parametrize("name", ["1u4d", "7cpa"])
def test_named_case_shape_matches_the_built_case(name):
    assert ligand_shape({"kind": "case", "case": name}) \
        == LigandShape.of(get_test_case(name).ligand)


def test_case_ligand_is_the_built_cases_ligand(case_7cpa):
    grown = case_ligand("7cpa")
    assert grown.atom_types == case_7cpa.ligand.atom_types
    assert grown.ref_coords.tobytes() == case_7cpa.ligand.ref_coords.tobytes()
    assert [t.moved for t in grown.torsions] \
        == [t.moved for t in case_7cpa.ligand.torsions]
    # every library name grows, and carries its N_rot
    assert [case_ligand(n).n_rot for n, _ in SET_OF_42] \
        == [r for _, r in SET_OF_42]


def test_rlig_shape_decodes_no_array(library, monkeypatch):
    def no_decode(*_args, **_kw):
        raise AssertionError("ligand_shape decoded a record")

    monkeypatch.setattr(RligReader, "read", no_decode)
    monkeypatch.setattr("repro.io.rlig.decode_ligand", no_decode)
    spec = _specs(library, 0)["rlig+case"]
    assert ligand_shape(spec) == LigandShape.of(BRANCHED)


def test_unreadable_specs_raise(library, tmp_path):
    with pytest.raises(FileNotFoundError):
        ligand_shape({"kind": "case-ligand", "case": "7cpa",
                      "ligand": str(tmp_path / "missing.pdbqt")})
    with pytest.raises(ValueError, match="unknown test case"):
        ligand_shape({"kind": "case", "case": "no-such"})
    with pytest.raises(ValueError, match="unknown job spec kind"):
        ligand_shape({"kind": "ligand", "ligand": "x.pdbqt"})
    with pytest.raises(IndexError):
        ligand_shape({"kind": "rlig", "pack": library["pack"],
                      "index": len(LIGANDS), "case": "7cpa"})
    junk = tmp_path / "junk.rlig"
    junk.write_bytes(b"RLIG" + b"\0" * 8)
    with pytest.raises(ParseError):
        ligand_shape({"kind": "rlig", "pack": str(junk), "index": 0,
                      "case": "7cpa"})
