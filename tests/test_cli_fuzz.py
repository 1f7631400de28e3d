"""Property tests of the CLI's failure contract: whatever the .h3f header,
payload length or flag text, a command exits 0, 2, 3 or 64, never with a
traceback, and explains a failure in one stderr line.

Grids stay at n <= 12 and iteration budgets and sample counts at three
digits, so every example runs in well under a second.  Headers may name
any size; read_h3f compares it with the file size before reading, and the
payload written is never larger than a few n=12 fields.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopflift.cli import run

FUZZ = settings(max_examples=100, deadline=None, derandomize=True,
                database=None)

_NCOMP = {"SCAL": 1, "VEC1": 3, "VEC2": 3, "S2": 3, "S3": 4}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def assert_contract(code, err):
    assert code in (0, 2, 3, 64), err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    if code == 0:
        assert lines == []
    elif code == 64:
        # argparse: the usage block, then one error line
        assert lines[0].startswith("usage: hopflift")
        assert [ln for ln in lines if ": error: " in ln] == [lines[-1]]
    else:
        assert len(lines) == 1 and lines[0].startswith("hopflift "), err


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    prefix = str(root / "fam_")
    assert run_cli(["gen", "--map", "liftfam", "--n", "9",
                    "--out-prefix", prefix])[0] == 0
    paths = {"u": prefix + "u.h3f", "eta": prefix + "eta.h3f",
             "D": str(root / "D.h3f"), "in": str(root / "in.h3f"),
             "out": str(root / "out")}
    assert run_cli(["pullback", "--in", paths["u"],
                    "--out", paths["D"]])[0] == 0
    return paths


def _small(text, limit):
    ok = text.isascii() and text.isdigit()
    return int(text) if ok and int(text) <= limit else None


def _payload(header_n, header_ncomp, cut, fill, seed):
    """Bytes for the header's own size when that is small (so the read can
    succeed), else for an n=9 vector field; then cut or padded."""
    n, ncomp = _small(header_n, 12), _small(header_ncomp, 5)
    count = n ** 3 * ncomp if n and ncomp else 9 ** 3 * 3
    rng = np.random.default_rng(seed)
    values = {"zeros": np.zeros(count), "ones": np.ones(count),
              "normal": rng.normal(size=count),
              "huge": np.full(count, 1e300), "nan": np.full(count, np.nan),
              "unit": np.tile([0.6, 0.8, 0.0, 0.0][:ncomp or 3],
                              count // (ncomp or 3))}[fill]
    raw = values.astype("<f8").tobytes()
    return raw[:len(raw) + cut] if cut < 0 else raw + b"\0" * cut


def mostly(usual, odd):
    """Draw from `usual` or `odd`, the first more often."""
    return st.one_of(usual, usual, usual, odd)


#: replacements for one header field: near misses, then noise
ODD_FIELD = st.one_of(
    st.sampled_from(["H3F2", "h3f1", "", "-1", "0", "2", "9.0", "1e1", "+9",
                     "0x9", "٩", "10000000", "9" * 40, "VEC3", "s2"]),
    st.text(max_size=5))


@FUZZ
@given(n=st.integers(3, 12), tag=st.sampled_from(sorted(_NCOMP)),
       bad_field=st.sampled_from([None, None, None, "magic", "n", "ncomp",
                                  "tag"]),
       odd=ODD_FIELD, cut=mostly(st.just(0), st.integers(-40, 40)),
       fill=st.sampled_from(["zeros", "ones", "normal", "huge", "nan",
                             "unit"]),
       seed=st.integers(0, 1000))
def test_h3f_headers_and_truncations(files, n, tag, bad_field, odd, cut, fill,
                                     seed):
    # a valid header for (n, tag) with at most one field replaced
    parts = {"magic": "H3F1", "n": str(n), "ncomp": str(_NCOMP[tag]),
             "tag": tag}
    if bad_field is not None:
        parts[bad_field] = odd
    with open(files["in"], "wb") as fh:
        fh.write((" ".join(parts.values()) + "\n").encode("utf-8"))
        fh.write(_payload(parts["n"], parts["ncomp"], cut, fill, seed))
    command = {"S2": "pullback", "S3": "project"}.get(tag, "gauge")
    assert_contract(*run_cli([command, "--in", files["in"],
                              "--out", files["out"]]))


#: tolerances and widths: mostly in (0, 1), where the solvers run
NUMBER = mostly(
    st.floats(1e-300, 0.999).map(repr),
    st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
              st.integers(-3, 400).map(str),
              st.text(alphabet="0123456789.,-+eEinfa ", max_size=10)))
#: iteration counts and sample counts: at most three digits
COUNT = mostly(st.integers(1, 400).map(str),
               st.one_of(st.integers(-3, 0).map(str),
                         st.text(alphabet="0123456789.-e", max_size=3)))
#: random seeds: any signed integer, the negative ones refused
SEED = st.one_of(st.integers(-3, 3), st.integers()).map(str)


def _positive_number(text):
    try:
        return 0.0 < float(text) < float("inf")
    except ValueError:
        return False


def _margin(text):
    try:
        return 0.0 <= float(text) < 1.0
    except ValueError:
        return False


@FUZZ
@given(data=st.data(),
       command=st.sampled_from(["sweep", "gauge", "lift", "approx",
                                "frame-check"]),
       strict=st.booleans())
def test_flag_values(files, data, command, strict):
    f = files
    if command == "sweep":
        widths = data.draw(st.lists(NUMBER, min_size=1, max_size=3))
        argv = ["sweep", "--u", f["u"], "--eta", f["eta"], "--csv", f["out"],
                "--eps", ",".join(widths)]
    elif command == "gauge":
        argv = ["gauge", "--in", f["D"], "--out", f["out"],
                "--tol", data.draw(NUMBER), "--iters", data.draw(COUNT)]
    elif command == "lift":
        argv = ["lift", "--u", f["u"], "--eta", f["eta"], "--out", f["out"],
                "--tol", data.draw(NUMBER), "--iters", data.draw(COUNT)]
    elif command == "approx":
        eps = data.draw(NUMBER)
        argv = ["approx", "--u", f["u"], "--eta", f["eta"],
                "--out-prefix", f["out"], "--eps", eps]
    else:
        argv = ["frame-check", "--samples", data.draw(COUNT),
                "--seed", data.draw(SEED)]
    argv = ["--strict", *argv] if strict else argv
    margin = data.draw(st.one_of(st.none(), NUMBER))
    if margin is not None:
        argv = [f"--ball-margin={margin}", *argv]
    code, err = run_cli(argv)
    assert_contract(code, err)
    if command == "approx" and not _positive_number(eps):
        # refused at parse time, before any file is read or lift run
        assert code == 64, err
    if margin is not None and not _margin(margin):
        assert code == 64, err
