"""AutoGrid map files: ``.map`` grids and the ``.maps.fld`` index.

The paper's artifact appendix drives AutoDock-GPU with
``-ffile .../protein.maps.fld`` — AutoGrid's master index referencing one
``.map`` file per probe atom type plus the electrostatics and desolvation
maps.  This module writes and reads that format for
:class:`repro.docking.grids.GridMaps`, so the reproduction supports the
same file-based workflow (see ``repro.cli``'s ``-ffile``).

AutoGrid ``.map`` layout (text): six header lines

.. code-block:: none

    GRID_PARAMETER_FILE <name>
    GRID_DATA_FILE <name>.maps.fld
    MACROMOLECULE <receptor>
    SPACING 0.375
    NELEMENTS nx-1 ny-1 nz-1
    CENTER cx cy cz

followed by one energy value per line in x-fastest (Fortran) order.
The reproduction carries two desolvation maps (volume- and
solvation-weighted receptor sums, see :mod:`repro.docking.grids`), stored
with the suffixes ``.d1.map`` and ``.d2.map``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.docking.grids import GridMaps
from repro.io.errors import ParseError

__all__ = ["write_maps", "read_maps"]

_HEADER_LINES = 6


def _write_one_map(path: Path, stem: str, values: np.ndarray,
                   origin: np.ndarray, spacing: float) -> None:
    nx, ny, nz = values.shape
    centre = origin + spacing * (np.array([nx, ny, nz]) - 1) / 2.0
    header = [
        f"GRID_PARAMETER_FILE {stem}.gpf",
        f"GRID_DATA_FILE {stem}.maps.fld",
        f"MACROMOLECULE {stem}",
        f"SPACING {spacing:.3f}",
        f"NELEMENTS {nx - 1} {ny - 1} {nz - 1}",
        f"CENTER {centre[0]:.3f} {centre[1]:.3f} {centre[2]:.3f}",
    ]
    # x-fastest order: transpose to (z, y, x) then ravel
    flat = values.transpose(2, 1, 0).ravel()
    body = "\n".join(f"{v:.3f}" for v in flat)
    path.write_text("\n".join(header) + "\n" + body + "\n")


@dataclass(frozen=True)
class _Grid:
    """The grid header of one ``.map`` file, as written: every map of a
    set must carry the same one."""

    spacing: float
    nelements: tuple[int, int, int]        # grid points per axis, minus one
    centre: tuple[float, float, float]
    path: Path = field(compare=False)

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(n + 1 for n in self.nelements)

    @property
    def origin(self) -> np.ndarray:
        return (np.array(self.centre)
                - self.spacing * (np.array(self.shape) - 1) / 2.0)


def _read_header(path: Path, lines: list[str]) -> _Grid:
    spacing = None
    nelements = None
    centre = None
    for lineno, line in enumerate(lines[:_HEADER_LINES], start=1):
        key, *rest = line.split() or [""]
        try:
            if key == "SPACING":
                spacing = float(rest[0])
            elif key == "NELEMENTS":
                nelements = tuple(int(v) for v in rest)
                if len(nelements) != 3:
                    raise ValueError("expected three dimensions")
            elif key == "CENTER":
                centre = tuple(float(v) for v in rest)
                if len(centre) != 3:
                    raise ValueError("expected three coordinates")
        except (ValueError, IndexError) as exc:
            raise ParseError(path, f"malformed {key} header: {exc}",
                             line=lineno, text=line) from exc
    if spacing is None or nelements is None or centre is None:
        missing = [k for k, v in (("SPACING", spacing),
                                  ("NELEMENTS", nelements),
                                  ("CENTER", centre)) if v is None]
        raise ParseError(path, "incomplete AutoGrid header: missing "
                               + ", ".join(missing))
    return _Grid(spacing, nelements, centre, path)


def _read_one_map(path: Path, out: np.ndarray | None = None,
                  grid: _Grid | None = None
                  ) -> tuple[np.ndarray, np.ndarray, float]:
    """Parse one ``.map`` file; returns ``(values, origin, spacing)``.

    ``values`` is the ``(nx, ny, nz)`` grid.  Given ``out``, a flat block
    of a map set's buffer, the values are parsed into it and ``values``
    is a view of it.  Given ``grid``, the header of the set's first map,
    a header that differs from it raises a :class:`ParseError`.

    The body is parsed by one ``np.loadtxt`` over its bytes, with no
    per-line Python object; it applies the rule of the line parse (one
    value per non-blank line) in C, and its result is taken when it is
    exactly the expected ``(values, 1)`` column.  Anything else (a bad
    value, two values on a line, a truncated body) goes to
    :func:`_parse_lines`, which splits lines to name the failing one.
    """
    with path.open("rb") as fh:
        head_bytes = b"".join(fh.readline() for _ in range(_HEADER_LINES))
        body = fh.read()
    head = _read_header(path, head_bytes.decode().splitlines())
    if grid is not None and head != grid:
        diff = "; ".join(
            f"{key} {getattr(head, attr)} vs {getattr(grid, attr)}"
            for key, attr in (("SPACING", "spacing"),
                              ("NELEMENTS", "nelements"),
                              ("CENTER", "centre"))
            if getattr(head, attr) != getattr(grid, attr))
        raise ParseError(path, f"grid header differs from "
                               f"{grid.path.name}'s: {diff}")
    nx, ny, nz = head.shape
    expected = nx * ny * nz
    data = None
    if body and not body.isspace():     # loadtxt warns on an empty body
        try:
            data = np.loadtxt(io.BytesIO(body), comments=None, ndmin=2)
        except ValueError:
            pass
    if data is None or data.shape != (expected, 1):
        data = _parse_lines(path, (head_bytes + body).decode(), head.shape)
    values = (np.empty(expected) if out is None else out).reshape(nx, ny, nz)
    values[...] = data.reshape(nz, ny, nx).transpose(2, 1, 0)
    return values, head.origin, head.spacing


def _parse_lines(path: Path, text: str, shape: tuple[int, int, int]
                 ) -> np.ndarray:
    """The body of a ``.map`` file, one value per non-blank line, parsed
    line by line: the diagnostic path, whose errors name the line."""
    nx, ny, nz = shape
    expected = nx * ny * nz
    body = [(lineno, line)
            for lineno, line in enumerate(text.splitlines()[_HEADER_LINES:],
                                          start=_HEADER_LINES + 1)
            if line.strip()]
    if len(body) != expected:
        raise ParseError(path, f"expected {expected} grid values "
                               f"({nx}x{ny}x{nz}), found {len(body)} — "
                               f"file truncated?")
    data = np.empty(expected)
    for k, (lineno, line) in enumerate(body):
        try:
            data[k] = float(line)
        except ValueError as exc:
            raise ParseError(path, f"bad grid value: {exc}",
                             line=lineno, text=line) from exc
    return data


def write_maps(maps: GridMaps, directory: str | Path,
               stem: str = "protein") -> Path:
    """Write grid maps as AutoGrid files; returns the ``.maps.fld`` path.

    Produces ``<stem>.<TYPE>.map`` per probe type, ``<stem>.e.map``
    (electrostatics), ``<stem>.d1.map`` / ``<stem>.d2.map`` (the two
    desolvation maps) and the ``<stem>.maps.fld`` index.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    entries: list[str] = []
    for t_idx, t in enumerate(maps.type_names):
        name = f"{stem}.{t}.map"
        _write_one_map(directory / name, stem, maps.affinity[t_idx],
                       maps.origin, maps.spacing)
        entries.append(name)
    for suffix, arr in (("e", maps.elec), ("d1", maps.desolv_v),
                        ("d2", maps.desolv_s)):
        name = f"{stem}.{suffix}.map"
        _write_one_map(directory / name, stem, arr, maps.origin, maps.spacing)
        entries.append(name)

    nx, ny, nz = maps.shape
    fld = [
        "# AVS field file (AutoGrid-style index, repro reproduction)",
        f"# SPACING {maps.spacing:.3f}",
        f"# NELEMENTS {nx - 1} {ny - 1} {nz - 1}",
        f"# TYPES {' '.join(maps.type_names)}",
        "ndim=3",
        f"dim1={nx}", f"dim2={ny}", f"dim3={nz}",
        "nspace=3",
        f"veclen={len(entries)}",
        "data=float",
        "field=uniform",
    ]
    fld += [f"variable {k + 1} file={name} filetype=ascii skip={_HEADER_LINES}"
            for k, name in enumerate(entries)]
    fld_path = directory / f"{stem}.maps.fld"
    fld_path.write_text("\n".join(fld) + "\n")
    return fld_path


def read_maps(fld_path: str | Path) -> GridMaps:
    """Load grid maps from a ``.maps.fld`` index written by :func:`write_maps`.

    Every ``.map`` file is parsed straight into its block of the map set's
    one buffer.  All of them must carry the first file's grid header
    (SPACING, NELEMENTS, CENTER), or a :class:`ParseError` names the file
    that differs.
    """
    fld_path = Path(fld_path)
    directory = fld_path.parent
    type_names: list[str] = []
    files: list[str] = []
    for line in fld_path.read_text().splitlines():
        if line.startswith("# TYPES"):
            type_names = line.split()[2:]
        elif line.startswith("variable"):
            for token in line.split():
                if token.startswith("file="):
                    files.append(token[5:])
    if not type_names:
        raise ParseError(fld_path, "no '# TYPES' line in index")
    if len(files) != len(type_names) + 3:
        raise ParseError(
            fld_path, f"index lists {len(files)} map files but "
                      f"{len(type_names)} probe types need "
                      f"{len(type_names) + 3} (types + e + d1 + d2)")
    for name in files:
        if not (directory / name).exists():
            raise ParseError(fld_path,
                             f"referenced map file {name!r} not found "
                             f"next to the index")

    # the first map's header sizes the one buffer that every map file is
    # parsed into, in index order: the affinity stack, then e, d1 and d2
    first = directory / files[0]
    with open(first) as fh:
        head = [fh.readline().rstrip("\n") for _ in range(_HEADER_LINES)]
    grid = _read_header(first, head)
    n_voxels = int(np.prod(grid.shape))
    flat = np.empty(len(files) * n_voxels)
    for k, name in enumerate(files):
        _read_one_map(directory / name,
                      out=flat[k * n_voxels:(k + 1) * n_voxels], grid=grid)
    return GridMaps.from_flat(flat, origin=grid.origin, spacing=grid.spacing,
                              type_names=type_names, shape=grid.shape)
