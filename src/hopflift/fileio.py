"""H3F1 binary field files and legacy-ASCII VTK export.

An H3F1 file is one ASCII header line ``H3F1 <n> <ncomp> <tag>`` followed
by little-endian f64 payload in linear order
``((k*n + j)*n + i)*ncomp + c``: component fastest, then the x-axis index
i, then j, then k.
"""

import os

import numpy as np

from .errors import IoError
from .fields import (DEFAULT_BALL_MARGIN, Grid3, LiftField, ScalarField,
                     SphereMapField, VecField)

_TAG_NCOMP = {"SCAL": 1, "VEC1": 3, "VEC2": 3, "S2": 3, "S3": 4}

#: Longest header line read_h3f accepts, newline included.
_MAX_HEADER = 64


def field_tag(field):
    if isinstance(field, ScalarField):
        return "SCAL"
    if isinstance(field, SphereMapField):
        return "S2"
    if isinstance(field, LiftField):
        return "S3"
    if isinstance(field, VecField):
        return "VEC1" if field.degree == 1 else "VEC2"
    raise TypeError(f"not a field: {type(field).__name__}")


def _payload(field):
    v = field.values
    vals = v[..., None] if v.ndim == 3 else v
    # [i,j,k,c] in memory -> file order [k,j,i,c]
    return np.ascontiguousarray(vals.transpose(2, 1, 0, 3), dtype="<f8")


def write_h3f(path, field):
    """Write a field; the payload roundtrips bit-exactly."""
    if not path:
        raise IoError("empty output path")
    tag = field_tag(field)
    ncomp = _TAG_NCOMP[tag]
    try:
        with open(path, "wb") as fh:
            fh.write(f"H3F1 {field.grid.n} {ncomp} {tag}\n".encode("ascii"))
            # the contiguous payload goes out through its buffer, not a
            # bytes copy of it
            fh.write(memoryview(_payload(field)))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_h3f(path, ball_margin=DEFAULT_BALL_MARGIN):
    """Read a field written by write_h3f.

    The header does not carry the ball margin, so the caller supplies it
    when the inscribed-ball mask matters.  The file size must match the
    header exactly; it is checked before the payload is read, so a
    corrupt header cannot ask for an oversized buffer.  A NaN or infinite
    payload value raises IoError as well.
    """
    if not path:
        raise IoError("empty input path")
    try:
        with open(path, "rb") as fh:
            line = fh.readline(_MAX_HEADER)
            header = line.decode("ascii", errors="replace").split()
            if (not line.endswith(b"\n") or len(header) != 4
                    or header[0] != "H3F1"
                    or not (header[1].isdigit() and header[2].isdigit())):
                raise IoError(f"{path}: not an H3F1 file")
            n, ncomp, tag = int(header[1]), int(header[2]), header[3]
            if n < 3:
                raise IoError(f"{path}: need n >= 3 nodes per axis, got {n}")
            if tag not in _TAG_NCOMP:
                raise IoError(f"{path}: unknown tag {tag!r}")
            if _TAG_NCOMP[tag] != ncomp:
                raise IoError(f"{path}: tag {tag} expects {_TAG_NCOMP[tag]} "
                              f"components, header says {ncomp}")
            nbytes = 8 * n ** 3 * ncomp
            extra = os.fstat(fh.fileno()).st_size - len(line) - nbytes
            if extra < 0:
                raise IoError(f"{path}: truncated payload")
            if extra > 0:
                raise IoError(f"{path}: {extra} trailing bytes after payload")
            raw = fh.read(nbytes)
            if len(raw) != nbytes:
                raise IoError(f"{path}: truncated payload")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    vals = np.frombuffer(raw, dtype="<f8").reshape(n, n, n, ncomp)
    vals = np.ascontiguousarray(vals.transpose(2, 1, 0, 3))
    grid = Grid3(n, ball_margin)
    try:
        if tag == "SCAL":
            return ScalarField(grid, vals[..., 0])
        if tag == "VEC1":
            return VecField(grid, 1, vals)
        if tag == "VEC2":
            return VecField(grid, 2, vals)
        if tag == "S2":
            return SphereMapField(grid, vals)
        return LiftField(grid, vals)
    except ValueError as exc:  # a non-finite payload value
        raise IoError(f"{path}: {exc}") from exc


def export_vtk(field, path, name="field"):
    """Write a legacy-ASCII STRUCTURED_POINTS file with one scalar array
    per component, for external viewers only."""
    if not path:
        raise IoError("empty output path")
    grid = field.grid
    n = grid.n
    v = field.values
    vals = v[..., None] if v.ndim == 3 else v
    ncomp = vals.shape[-1]
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("# vtk DataFile Version 3.0\n")
            fh.write(f"hopflift {field_tag(field)} field\n")
            fh.write("ASCII\n")
            fh.write("DATASET STRUCTURED_POINTS\n")
            fh.write(f"DIMENSIONS {n} {n} {n}\n")
            fh.write("ORIGIN -1.0 -1.0 -1.0\n")
            fh.write(f"SPACING {grid.h!r} {grid.h!r} {grid.h!r}\n")
            fh.write(f"POINT_DATA {n ** 3}\n")
            for c in range(ncomp):
                fh.write(f"SCALARS {name}_{c} double 1\n")
                fh.write("LOOKUP_TABLE default\n")
                # VTK iterates x fastest, matching the H3F1 file order
                flat = vals[..., c].transpose(2, 1, 0).ravel().tolist()
                for row in range(0, len(flat), 6):
                    fh.write(" ".join(repr(x) for x in flat[row:row + 6]))
                    fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
