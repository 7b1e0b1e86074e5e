"""Structured ParseError reporting for malformed PDBQT and AutoGrid files."""

import numpy as np
import pytest

from repro.docking.grids import GridMaps
from repro.io import ParseError, read_maps, read_pdbqt, write_maps, write_pdbqt
from repro.testcases import get_test_case


@pytest.fixture(scope="module")
def ligand():
    # 5kao has rotatable bonds, so the PDBQT has BRANCH/ENDBRANCH blocks
    return get_test_case("5kao").ligand


@pytest.fixture()
def pdbqt_lines(ligand, tmp_path):
    path = tmp_path / "lig.pdbqt"
    write_pdbqt(ligand, path)
    return path, path.read_text().splitlines()


def rewrite(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


class TestParseErrorType:
    def test_is_a_value_error(self):
        # existing `except ValueError` call sites keep working
        assert issubclass(ParseError, ValueError)

    def test_message_pinpoints_location(self):
        err = ParseError("lig.pdbqt", "malformed ATOM", line=7,
                         text="ATOM garbage")
        assert str(err) == "lig.pdbqt:7: malformed ATOM (line: 'ATOM garbage')"
        assert err.line == 7
        assert err.path.name == "lig.pdbqt"
        assert err.reason == "malformed ATOM"

    def test_whole_file_error_has_no_line(self):
        err = ParseError("x.map", "no ATOM records found")
        assert str(err) == "x.map: no ATOM records found"
        assert err.line is None


class TestMalformedPdbqt:
    def test_bad_atom_coordinates(self, pdbqt_lines):
        path, lines = pdbqt_lines
        i = next(k for k, line in enumerate(lines)
                 if line.startswith("ATOM"))
        lines[i] = lines[i][:30] + "x" * 8 + lines[i][38:]
        with pytest.raises(ParseError) as exc:
            read_pdbqt(rewrite(path, lines))
        assert exc.value.line == i + 1
        assert "malformed ATOM" in exc.value.reason
        assert str(path) in str(exc.value)

    def test_atom_missing_charge(self, pdbqt_lines):
        path, lines = pdbqt_lines
        i = next(k for k, line in enumerate(lines)
                 if line.startswith("ATOM"))
        lines[i] = lines[i][:60]
        with pytest.raises(ParseError, match="missing partial charge"):
            read_pdbqt(rewrite(path, lines))

    def test_bad_branch_record(self, pdbqt_lines):
        path, lines = pdbqt_lines
        i = next(k for k, line in enumerate(lines)
                 if line.startswith("BRANCH"))
        lines[i] = "BRANCH 3"
        with pytest.raises(ParseError) as exc:
            read_pdbqt(rewrite(path, lines))
        assert exc.value.line == i + 1
        assert "malformed BRANCH" in exc.value.reason

    def test_endbranch_without_branch(self, pdbqt_lines):
        path, lines = pdbqt_lines
        lines = [line for line in lines if not line.startswith("BRANCH")]
        with pytest.raises(ParseError, match="ENDBRANCH without open"):
            read_pdbqt(rewrite(path, lines))

    def test_unbalanced_branch(self, pdbqt_lines):
        path, lines = pdbqt_lines
        lines = [line for line in lines if not line.startswith("ENDBRANCH")]
        with pytest.raises(ParseError, match="unbalanced BRANCH"):
            read_pdbqt(rewrite(path, lines))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.pdbqt"
        path.write_text("REMARK nothing here\n")
        with pytest.raises(ParseError, match="no ATOM records"):
            read_pdbqt(path)

    def test_non_contiguous_serials(self, pdbqt_lines):
        path, lines = pdbqt_lines
        i = next(k for k, line in enumerate(lines)
                 if line.startswith("ATOM"))
        lines[i] = lines[i][:6] + f"{999:>5d}" + lines[i][11:]
        with pytest.raises(ParseError, match="non-contiguous"):
            read_pdbqt(rewrite(path, lines))


@pytest.fixture()
def maps_dir(tmp_path):
    rng = np.random.default_rng(0)
    maps = GridMaps(origin=np.zeros(3), spacing=0.5, type_names=["C"],
                    affinity=rng.standard_normal((1, 3, 3, 3)),
                    elec=rng.standard_normal((3, 3, 3)),
                    desolv_v=rng.standard_normal((3, 3, 3)),
                    desolv_s=rng.standard_normal((3, 3, 3)))
    fld = write_maps(maps, tmp_path, stem="p")
    return tmp_path, fld


def edit_map(directory, name, fn):
    path = directory / name
    lines = path.read_text().splitlines()
    path.write_text("\n".join(fn(lines)) + "\n")


class TestMalformedAutogrid:
    def test_round_trip_is_clean(self, maps_dir):
        _, fld = maps_dir
        assert read_maps(fld).type_names == ["C"]

    def test_bad_header_value(self, maps_dir):
        directory, fld = maps_dir

        def corrupt(lines):
            lines[3] = "SPACING not-a-number"
            return lines

        edit_map(directory, "p.C.map", corrupt)
        with pytest.raises(ParseError) as exc:
            read_maps(fld)
        assert exc.value.line == 4
        assert "SPACING" in exc.value.reason

    def test_missing_header_fields(self, maps_dir):
        directory, fld = maps_dir
        edit_map(directory, "p.C.map",
                 lambda lines: ["REMARK pad" if line.startswith("CENTER")
                                else line for line in lines])
        with pytest.raises(ParseError, match="missing CENTER"):
            read_maps(fld)

    def test_truncated_body(self, maps_dir):
        directory, fld = maps_dir
        edit_map(directory, "p.e.map", lambda lines: lines[:-5])
        with pytest.raises(ParseError, match="truncated"):
            read_maps(fld)

    def test_bad_grid_value_pinpointed(self, maps_dir):
        directory, fld = maps_dir

        def corrupt(lines):
            lines[10] = "oops"
            return lines

        edit_map(directory, "p.C.map", corrupt)
        with pytest.raises(ParseError) as exc:
            read_maps(fld)
        assert exc.value.line == 11
        assert exc.value.text == "oops"
        assert "bad grid value" in exc.value.reason

    @pytest.mark.parametrize("blank", ["", "  \t"],
                             ids=["empty", "whitespace"])
    def test_two_values_on_a_line_are_not_two_lines(self, maps_dir, blank):
        """Regression: a line holding two values plus a blank line
        elsewhere kept both the line count and the value count, and the
        one-call body parse loaded the file; every non-blank line must
        hold one value, so one of 27 values is missing."""
        directory, fld = maps_dir

        def corrupt(lines):
            lines[10] = lines[10] + " " + lines.pop(11)
            lines.insert(20, blank)
            return lines

        edit_map(directory, "p.C.map", corrupt)
        with pytest.raises(ParseError, match="expected 27 grid values "
                                             r"\(3x3x3\), found 26"):
            read_maps(fld)

    def test_bad_value_on_the_last_line_pinpointed(self, maps_dir):
        directory, fld = maps_dir
        n_lines = []

        def corrupt(lines):
            lines[-1] += "x"
            n_lines.append(len(lines))
            return lines

        edit_map(directory, "p.e.map", corrupt)
        with pytest.raises(ParseError) as exc:
            read_maps(fld)
        assert exc.value.line == n_lines[0]
        assert "bad grid value" in exc.value.reason

    def test_index_without_types(self, maps_dir):
        directory, fld = maps_dir
        lines = [line for line in fld.read_text().splitlines()
                 if not line.startswith("# TYPES")]
        fld.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="TYPES"):
            read_maps(fld)

    def test_index_with_wrong_file_count(self, maps_dir):
        directory, fld = maps_dir
        lines = [line for line in fld.read_text().splitlines()
                 if "file=p.e.map" not in line]
        fld.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="index lists"):
            read_maps(fld)

    def test_missing_referenced_map_file(self, maps_dir):
        directory, fld = maps_dir
        (directory / "p.d1.map").unlink()
        with pytest.raises(ParseError, match="not found"):
            read_maps(fld)


class TestMapHeadersAgree:
    """Regression: ``read_maps`` took SPACING and CENTER from the last
    affinity file and ignored the other headers, so a map set whose files
    disagree loaded silently, or failed in ``GridMaps`` with a bare
    ``ValueError``.  Every header must now match the first file's."""

    def test_a_spacing_that_differs_is_refused(self, maps_dir):
        directory, fld = maps_dir

        def respace(lines):
            lines[3] = "SPACING 0.800"
            return lines

        edit_map(directory, "p.C.map", respace)
        with pytest.raises(ParseError) as exc:
            read_maps(fld)
        # the first file sets the grid; the next one disagrees with it
        assert exc.value.path.name == "p.e.map"
        assert "p.C.map" in exc.value.reason
        assert "SPACING 0.5 vs 0.8" in exc.value.reason

    def test_a_moved_centre_is_refused(self, maps_dir):
        directory, fld = maps_dir

        def move(lines):
            lines[5] = "CENTER 0.500 0.500 2.000"
            return lines

        edit_map(directory, "p.e.map", move)
        with pytest.raises(ParseError) as exc:
            read_maps(fld)
        assert exc.value.path.name == "p.e.map"
        assert "CENTER" in exc.value.reason

    def test_a_map_of_another_size_is_refused(self, maps_dir, tmp_path):
        directory, fld = maps_dir
        rng = np.random.default_rng(1)
        smaller = GridMaps(origin=np.zeros(3), spacing=0.5, type_names=["C"],
                           affinity=rng.standard_normal((1, 2, 3, 3)),
                           elec=rng.standard_normal((2, 3, 3)),
                           desolv_v=rng.standard_normal((2, 3, 3)),
                           desolv_s=rng.standard_normal((2, 3, 3)))
        other = write_maps(smaller, tmp_path / "other", stem="p").parent
        (directory / "p.d1.map").write_text(
            (other / "p.d1.map").read_text())
        with pytest.raises(ParseError) as exc:
            read_maps(fld)
        assert exc.value.path.name == "p.d1.map"
        assert "NELEMENTS (1, 2, 2) vs (2, 2, 2)" in exc.value.reason
