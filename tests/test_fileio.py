import numpy as np
import pytest

from hopflift.cli import run
from hopflift.errors import IoError
from hopflift.fields import (LiftField, ScalarField, SphereMapField, VecField,
                             make_grid)
from hopflift.fileio import export_vtk, read_h3f, write_h3f
from hopflift import testmaps

GRID = make_grid(9, 0.1)
RNG = np.random.default_rng(0)


def sample_fields():
    n = GRID.n
    sphere = testmaps.gen_constant(GRID, (0.0, 0.6, 0.8))
    uhat, _, _ = testmaps.gen_lift_family(GRID, 0.7, (1, 0, 0), (0, 1, 1))
    return {
        "SCAL": ScalarField(GRID, RNG.normal(size=(n, n, n))),
        "VEC1": VecField(GRID, 1, RNG.normal(size=(n, n, n, 3))),
        "VEC2": VecField(GRID, 2, RNG.normal(size=(n, n, n, 3))),
        "S2": sphere,
        "S3": uhat,
    }


@pytest.mark.parametrize("tag", ["SCAL", "VEC1", "VEC2", "S2", "S3"])
def test_roundtrip_bit_exact(tmp_path, tag):
    field = sample_fields()[tag]
    path = tmp_path / f"{tag}.h3f"
    write_h3f(path, field)
    back = read_h3f(path, ball_margin=GRID.ball_margin)
    assert type(back) is type(field)
    assert back.grid == field.grid
    assert np.array_equal(back.values, field.values)
    if isinstance(field, VecField):
        assert back.degree == field.degree
    # the payload goes out through a memoryview; the bytes are those of a
    # header line plus the file-order payload's tobytes()
    ncomp = 1 if tag == "SCAL" else field.values.shape[-1]
    vals = field.values if tag != "SCAL" else field.values[..., None]
    want = (f"H3F1 {GRID.n} {ncomp} {tag}\n".encode("ascii")
            + np.ascontiguousarray(vals.transpose(2, 1, 0, 3),
                                   dtype="<f8").tobytes())
    assert path.read_bytes() == want
    write_h3f(tmp_path / "again.h3f", back)
    assert (tmp_path / "again.h3f").read_bytes() == want


def test_header_layout(tmp_path):
    field = sample_fields()["VEC2"]
    path = tmp_path / "f.h3f"
    write_h3f(path, field)
    raw = path.read_bytes()
    header, payload = raw.split(b"\n", 1)
    assert header == b"H3F1 9 3 VEC2"
    assert len(payload) == 8 * 9 ** 3 * 3


def test_linear_index_order(tmp_path):
    # payload index ((k*n + j)*n + i)*ncomp + c
    field = sample_fields()["SCAL"]
    path = tmp_path / "f.h3f"
    write_h3f(path, field)
    payload = path.read_bytes().split(b"\n", 1)[1]
    flat = np.frombuffer(payload, dtype="<f8")
    n = GRID.n
    i, j, k = 3, 5, 2
    assert flat[(k * n + j) * n + i] == field.values[i, j, k]


def test_empty_path_rejected():
    with pytest.raises(IoError):
        write_h3f("", sample_fields()["SCAL"])
    with pytest.raises(IoError):
        read_h3f("")


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.h3f"
    path.write_bytes(b"NOPE 9 1 SCAL\n" + b"\0" * 8)
    with pytest.raises(IoError):
        read_h3f(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "短.h3f"
    path.write_bytes(b"H3F1 9 1 SCAL\n" + b"\0" * 16)
    with pytest.raises(IoError):
        read_h3f(path)


def test_tag_component_mismatch(tmp_path):
    path = tmp_path / "bad.h3f"
    path.write_bytes(b"H3F1 3 4 SCAL\n" + b"\0" * (8 * 27 * 4))
    with pytest.raises(IoError):
        read_h3f(path)


def _s2_file(tmp_path):
    path = tmp_path / "u.h3f"
    write_h3f(path, testmaps.gen_constant(make_grid(3), (0.0, 0.6, 0.8)))
    return path


def _oversized_header(tmp_path):
    # the header asks for 2.4e22 bytes; the file holds a few hundred
    path = tmp_path / "big.h3f"
    path.write_bytes(b"H3F1 10000000 3 S2\n" + b"\0" * (8 * 27 * 3))
    return path


def _trailing_bytes(tmp_path):
    path = _s2_file(tmp_path)
    with open(path, "ab") as fh:
        fh.write(b"\0")
    return path


def _short_payload(tmp_path):
    path = _s2_file(tmp_path)
    path.write_bytes(path.read_bytes()[:-1])
    return path


def _too_few_nodes(tmp_path):
    path = tmp_path / "n2.h3f"
    path.write_bytes(b"H3F1 2 3 S2\n" + b"\0" * (8 * 8 * 3))
    return path


def _non_integer_n(tmp_path):
    path = tmp_path / "nan.h3f"
    path.write_bytes(b"H3F1 3.0 3 S2\n" + b"\0" * (8 * 27 * 3))
    return path


def _negative_n(tmp_path):
    path = tmp_path / "neg.h3f"
    path.write_bytes(b"H3F1 -3 3 S2\n" + b"\0" * (8 * 27 * 3))
    return path


BAD_FILES = [_oversized_header, _trailing_bytes, _short_payload,
             _too_few_nodes, _non_integer_n, _negative_n]


def test_well_formed_base_file_reads(tmp_path):
    assert isinstance(read_h3f(_s2_file(tmp_path)), SphereMapField)


@pytest.mark.parametrize("make", BAD_FILES, ids=lambda f: f.__name__[1:])
def test_bad_file_raises_io_error(tmp_path, make):
    with pytest.raises(IoError):
        read_h3f(make(tmp_path))


@pytest.mark.parametrize("make", BAD_FILES, ids=lambda f: f.__name__[1:])
def test_bad_file_cli_exits_two(tmp_path, capsys, make):
    code = run(["pullback", "--in", str(make(tmp_path)),
                "--out", str(tmp_path / "D.h3f")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("hopflift pullback: ") and err.count("\n") == 1


def test_vtk_structure(tmp_path):
    grid = make_grid(5)
    field = ScalarField(grid, np.full((5, 5, 5), 1.25))
    path = tmp_path / "out.vtk"
    export_vtk(field, path, name="phi")
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# vtk DataFile")
    assert "DATASET STRUCTURED_POINTS" in lines
    assert "DIMENSIONS 5 5 5" in lines
    assert f"POINT_DATA {5 ** 3}" in lines
    assert "SCALARS phi_0 double 1" in lines
    values = []
    start = lines.index("LOOKUP_TABLE default") + 1
    for line in lines[start:]:
        if line.startswith("SCALARS"):
            break
        values.extend(float(v) for v in line.split())
    assert len(values) == 125
    assert all(v == 1.25 for v in values)


def test_vtk_empty_path():
    grid = make_grid(5)
    with pytest.raises(IoError):
        export_vtk(ScalarField(grid, np.zeros((5, 5, 5))), "")
