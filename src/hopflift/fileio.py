"""H3F1 binary field files and legacy-ASCII VTK export.

An H3F1 file is one ASCII header line ``H3F1 <n> <ncomp> <tag>`` followed
by little-endian f64 payload in linear order
``((k*n + j)*n + i)*ncomp + c``: component fastest, then the x-axis index
i, then j, then k.
"""

import os
from contextlib import contextmanager

import numpy as np

from .errors import IoError
from .fields import (DEFAULT_BALL_MARGIN, Grid3, LiftField, ScalarField,
                     SphereMapField, VecField, _flat_values)

#: tag -> (field type, VecField degree or None, components per node)
_TAGS = {"SCAL": (ScalarField, None, 1), "VEC1": (VecField, 1, 3),
         "VEC2": (VecField, 2, 3), "S2": (SphereMapField, None, 3),
         "S3": (LiftField, None, 4)}

#: Longest header line read_h3f accepts, newline included.
_MAX_HEADER = 64


def field_tag(field):
    for tag, (kind, deg, _) in _TAGS.items():
        if isinstance(field, kind) and getattr(field, "degree", None) == deg:
            return tag
    raise TypeError(f"not a field: {type(field).__name__}")


def _payload(field):
    # [i,j,k,c] in memory -> file order [k,j,i,c]
    vals = _flat_values(field.values).transpose(2, 1, 0, 3)
    return np.ascontiguousarray(vals, dtype="<f8")


def check_output_path(path):
    """IoError unless ``path`` is non-empty and its directory (the
    current one when it names none) exists and may be written in.
    ``open_output`` runs it first; a command runs it on its outputs
    before its work, so that a bad path costs no work."""
    if not path:
        raise IoError("empty output path")
    folder = os.path.dirname(path) or os.curdir
    if not os.path.isdir(folder):
        raise IoError(f"cannot write {path}: no directory {folder}")
    if not os.access(folder, os.W_OK | os.X_OK):
        raise IoError(f"cannot write {path}: directory {folder} is not "
                      "writable")


@contextmanager
def open_output(path, mode, **kwargs):
    """``open(path, mode, **kwargs)``; IoError where
    ``check_output_path`` refuses the path, or on OSError."""
    check_output_path(path)
    try:
        with open(path, mode, **kwargs) as fh:
            yield fh
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_h3f(path, field):
    """Write a field; the payload roundtrips bit-exactly."""
    tag = field_tag(field)
    ncomp = _TAGS[tag][2]
    with open_output(path, "wb") as fh:
        fh.write(f"H3F1 {field.grid.n} {ncomp} {tag}\n".encode("ascii"))
        # the contiguous payload goes out through its buffer, not a bytes
        # copy of it
        fh.write(memoryview(_payload(field)))


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
            if tag not in _TAGS:
                raise IoError(f"{path}: unknown tag {tag!r}")
            kind, degree, tag_ncomp = _TAGS[tag]
            if tag_ncomp != ncomp:
                raise IoError(f"{path}: tag {tag} expects {tag_ncomp} "
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
    head = (grid,) if degree is None else (grid, degree)
    try:
        return kind(*head, vals[..., 0] if ncomp == 1 else vals)
    except ValueError as exc:  # a non-finite payload value
        raise IoError(f"{path}: {exc}") from exc


#: values formatted per write in ``export_vtk``, a whole number of lines
_VTK_BLOCK = 6 << 12


def _vtk_lines(values):
    """repr of each value, six to a line, every line ended."""
    words = list(map(repr, values.tolist()))
    return "".join([" ".join(words[row:row + 6]) + "\n"
                    for row in range(0, len(words), 6)])


def export_vtk(field, path, name="field"):
    """Write a legacy-ASCII STRUCTURED_POINTS file with one scalar array
    per component, for external viewers only."""
    grid = field.grid
    n = grid.n
    vals = _flat_values(field.values)
    ncomp = vals.shape[-1]
    with open_output(path, "w", encoding="ascii") as fh:
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
            flat = vals[..., c].transpose(2, 1, 0).ravel()
            for lo in range(0, flat.size, _VTK_BLOCK):
                fh.write(_vtk_lines(flat[lo:lo + _VTK_BLOCK]))
