"""Tests for the AutoGrid .map / .maps.fld file format."""

import tracemalloc

import numpy as np
import pytest

from repro.cli import main
from repro.io import read_maps, write_maps, write_pdbqt
from repro.io.autogrid import _read_one_map


class TestRoundTrip:
    def test_full_round_trip(self, case_small, tmp_path):
        fld = write_maps(case_small.maps, tmp_path)
        back = read_maps(fld)
        assert back.type_names == case_small.maps.type_names
        assert back.spacing == case_small.maps.spacing
        np.testing.assert_allclose(back.origin, case_small.maps.origin,
                                   atol=1e-2)
        np.testing.assert_allclose(back.affinity, case_small.maps.affinity,
                                   atol=5e-3)
        np.testing.assert_allclose(back.elec, case_small.maps.elec,
                                   atol=5e-3)
        np.testing.assert_allclose(back.desolv_v, case_small.maps.desolv_v,
                                   atol=5e-3)

    def test_file_layout(self, case_small, tmp_path):
        fld = write_maps(case_small.maps, tmp_path, stem="protein")
        assert fld.name == "protein.maps.fld"
        for t in case_small.maps.type_names:
            assert (tmp_path / f"protein.{t}.map").exists()
        assert (tmp_path / "protein.e.map").exists()
        assert (tmp_path / "protein.d1.map").exists()
        assert (tmp_path / "protein.d2.map").exists()

    def test_map_header_format(self, case_small, tmp_path):
        write_maps(case_small.maps, tmp_path, stem="p")
        t = case_small.maps.type_names[0]
        lines = (tmp_path / f"p.{t}.map").read_text().splitlines()
        assert lines[0].startswith("GRID_PARAMETER_FILE")
        assert lines[3].startswith("SPACING")
        assert lines[4].startswith("NELEMENTS")
        assert lines[5].startswith("CENTER")
        nx, ny, nz = case_small.maps.shape
        assert lines[4].split()[1:] == [str(nx - 1), str(ny - 1), str(nz - 1)]

    def test_x_fastest_ordering(self, case_small, tmp_path):
        """The first data value is grid node (0,0,0), the second (1,0,0)."""
        write_maps(case_small.maps, tmp_path, stem="p")
        t = case_small.maps.type_names[0]
        values, origin, spacing = _read_one_map(tmp_path / f"p.{t}.map")
        np.testing.assert_allclose(values, case_small.maps.affinity[0],
                                   atol=5e-3)

    def test_malformed_fld(self, tmp_path):
        bad = tmp_path / "x.maps.fld"
        bad.write_text("ndim=3\n")
        with pytest.raises(ValueError, match="malformed"):
            read_maps(bad)

    def test_malformed_map_header(self, tmp_path):
        bad = tmp_path / "x.map"
        bad.write_text("JUNK\n" * 6 + "1.0\n")
        with pytest.raises(ValueError, match="malformed"):
            _read_one_map(bad)


class TestReadMemory:
    def test_read_maps_holds_the_text_once(self, case_7cpa, tmp_path):
        """Regression: each .map file's text was held twice (its
        ``splitlines()`` list and a list of ``(lineno, line)`` tuples),
        so reading 7cpa's 8.31 MB of maps peaked at ~3x the buffer."""
        fld = write_maps(case_7cpa.maps, tmp_path)
        read_maps(fld)                   # imports stay out of the trace
        tracemalloc.start()
        try:
            back = read_maps(fld)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.flat_maps.tobytes() == read_maps(fld).flat_maps.tobytes()
        assert peak <= 2.0 * back.flat_maps.nbytes, \
            (peak, back.flat_maps.nbytes)

    def test_blank_lines_and_odd_spacing_still_parse(self, case_small,
                                                     tmp_path):
        """Blank lines and values with surrounding whitespace load as the
        line-by-line parse loaded them."""
        fld = write_maps(case_small.maps, tmp_path)
        want = read_maps(fld).flat_maps.copy()
        path = tmp_path / "protein.e.map"
        lines = path.read_text().splitlines()
        lines[7] = "  " + lines[7] + "\t"
        lines.insert(9, "")
        path.write_text("\n".join(lines) + "\n\n")
        assert read_maps(fld).flat_maps.tobytes() == want.tobytes()


class TestCliFfile:
    def test_ffile_end_to_end(self, case_small, tmp_path, capsys):
        """The artifact-appendix invocation: -ffile maps -lfile ligand."""
        fld = write_maps(case_small.maps, tmp_path)
        lig = tmp_path / "lig.pdbqt"
        write_pdbqt(case_small.ligand, lig)
        rc = main(["-ffile", str(fld), "-lfile", str(lig),
                   "-nrun", "1", "--evals", "400", "--pop", "8",
                   "--lsit", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Run time" in out

    def test_ffile_requires_lfile(self, case_small, tmp_path, capsys):
        fld = write_maps(case_small.maps, tmp_path)
        assert main(["-ffile", str(fld)]) == 2
