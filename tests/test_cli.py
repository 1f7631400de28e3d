import json
import os
import subprocess
import sys

import numpy as np
import pytest

import hopflift
from hopflift.cli import run
from hopflift.fileio import read_h3f, write_h3f
from hopflift.fields import LiftField, SphereMapField, VecField, make_grid


def gen_family(tmp_path, n=17, a="1,0,0", b="0,1,0"):
    prefix = str(tmp_path / "fam_")
    code = run(["gen", "--map", "liftfam", "--n", str(n),
                "--a", a, "--b", b, "--out-prefix", prefix])
    assert code == 0
    return prefix


def test_gen_writes_fields_and_oracle(tmp_path):
    prefix = gen_family(tmp_path)
    assert isinstance(read_h3f(prefix + "u.h3f"), SphereMapField)
    assert isinstance(read_h3f(prefix + "uhat.h3f"), LiftField)
    eta = read_h3f(prefix + "eta.h3f")
    assert isinstance(eta, VecField) and eta.degree == 1
    oracle = json.loads((tmp_path / "fam_oracle.json").read_text())
    assert oracle["schema"] == "hopflift-report@1"
    assert oracle["eta"] == pytest.approx([1.0, 1.0, 0.0])


def test_pullback_and_check_exact(tmp_path):
    prefix = gen_family(tmp_path, n=33)
    out = str(tmp_path / "D.h3f")
    assert run(["pullback", "--in", prefix + "u.h3f", "--out", out]) == 0
    d_field = read_h3f(out)
    assert d_field.degree == 2
    report = str(tmp_path / "check.json")
    assert run(["check", "--in", prefix + "u.h3f", "--report", report]) == 0
    payload = json.loads(open(report).read())
    assert payload["verdict"] == "exact"


def test_check_hedgehog_exits_two(tmp_path):
    prefix = str(tmp_path / "hog_")
    assert run(["gen", "--map", "hedgehog", "--n", "49",
                "--out-prefix", prefix]) == 0
    report = str(tmp_path / "check.json")
    code = run(["check", "--in", prefix + "u.h3f", "--report", report])
    assert code == 2
    payload = json.loads(open(report).read())
    assert payload["verdict"] == "singular"


def test_lift_verify_project_cycle(tmp_path):
    prefix = gen_family(tmp_path, n=17)
    uhat = str(tmp_path / "uhat.h3f")
    rep = str(tmp_path / "lift.json")
    assert run(["lift", "--u", prefix + "u.h3f", "--eta", prefix + "eta.h3f",
                "--out", uhat, "--report", rep]) == 0
    payload = json.loads(open(rep).read())
    assert payload["converged"] is True
    assert payload["projection_error"] <= 1e-12

    vrep = str(tmp_path / "verify.json")
    assert run(["verify", "--u", prefix + "u.h3f",
                "--eta", prefix + "eta.h3f", "--uhat", uhat,
                "--report", vrep]) == 0
    vpayload = json.loads(open(vrep).read())
    assert vpayload["projection_error"] == payload["projection_error"]

    proj = str(tmp_path / "uproj.h3f")
    assert run(["project", "--in", uhat, "--out", proj]) == 0
    u_back = read_h3f(proj)
    u_in = read_h3f(prefix + "u.h3f")
    assert np.abs(u_back.values - u_in.values).max() <= 1e-12


def test_gauge_of_lift_roundtrip(tmp_path):
    prefix = gen_family(tmp_path, n=17)
    out = str(tmp_path / "eta2.h3f")
    assert run(["gauge-of-lift", "--in", prefix + "uhat.h3f",
                "--out", out]) == 0
    eta2 = read_h3f(out)
    eta = read_h3f(prefix + "eta.h3f")
    h = eta.grid.h
    assert np.abs(eta2.values - eta.values).max() <= 10.0 * h * h


def test_gauge_solve_smoke(tmp_path):
    # the planar map's pullback: the lift family's is rounding noise,
    # which the gauge answers without a solve
    prefix = str(tmp_path / "pl_")
    assert run(["gen", "--map", "planar", "--n", "17",
                "--out-prefix", prefix]) == 0
    d_path = str(tmp_path / "D.h3f")
    assert run(["pullback", "--in", prefix + "u.h3f", "--out", d_path]) == 0
    out = str(tmp_path / "eta_canon.h3f")
    rep = str(tmp_path / "gauge.json")
    assert run(["gauge", "--in", d_path, "--out", out, "--report", rep]) == 0
    payload = json.loads(open(rep).read())
    assert payload["converged"] is True
    assert payload["iterations"] > 0
    assert read_h3f(out).values.any()


@pytest.mark.parametrize("n", [17, 33])
def test_gauge_of_rounding_noise_is_zero(tmp_path, n):
    # the lift family's pullback is rounding noise: the gauge is the
    # zero field without a solve, and the report says all of G is left
    prefix = gen_family(tmp_path, n=n)
    d_path, out = str(tmp_path / "D.h3f"), str(tmp_path / "a.h3f")
    rep = str(tmp_path / "gauge.json")
    assert run(["pullback", "--in", prefix + "u.h3f", "--out", d_path]) == 0
    assert run(["gauge", "--in", d_path, "--out", out, "--report", rep]) == 0
    payload = json.loads(open(rep).read())
    assert payload.pop("converged") is True
    assert payload.pop("schema") == "hopflift-report@1"
    assert payload.pop("curl_residual_rel") == 1.0
    assert set(payload.values()) == {0}
    assert not read_h3f(out).values.any()


def test_gauge_of_zero_field(tmp_path):
    # G = 0 exactly: the zero field matches all of it, so the relative
    # curl residual is 0, not the 1 of a nonzero G under the noise floor
    g_path, out = str(tmp_path / "G.h3f"), str(tmp_path / "a.h3f")
    rep = str(tmp_path / "gauge.json")
    write_h3f(g_path, VecField(make_grid(9), 2, np.zeros((9, 9, 9, 3))))
    assert run(["gauge", "--in", g_path, "--out", out, "--report", rep]) == 0
    payload = json.loads(open(rep).read())
    assert payload["converged"] is True
    assert payload["iterations"] == 0
    assert payload["curl_residual_rel"] == 0.0
    assert not read_h3f(out).values.any()


def test_lift_refuses_hedgehog(tmp_path):
    prefix = str(tmp_path / "hog_")
    assert run(["gen", "--map", "hedgehog", "--n", "33",
                "--out-prefix", prefix]) == 0
    zero = str(tmp_path / "zero.h3f")
    grid_u = read_h3f(prefix + "u.h3f")
    write_h3f(zero, VecField(grid_u.grid, 1, np.zeros(grid_u.values.shape)))
    code = run(["lift", "--u", prefix + "u.h3f", "--eta", zero,
                "--out", str(tmp_path / "uhat.h3f")])
    assert code == 2


def test_approx_and_sweep(tmp_path):
    prefix = gen_family(tmp_path, n=33, b="0,2,0")
    out_prefix = str(tmp_path / "ap_")
    rep = str(tmp_path / "approx.json")
    assert run(["approx", "--u", prefix + "u.h3f",
                "--eta", prefix + "eta.h3f", "--eps", "0.25",
                "--out-prefix", out_prefix, "--report", rep]) == 0
    assert isinstance(read_h3f(out_prefix + "u.h3f"), SphereMapField)
    csv_path = str(tmp_path / "sweep.csv")
    assert run(["sweep", "--u", prefix + "u.h3f",
                "--eta", prefix + "eta.h3f", "--eps", "0.25,0.125",
                "--csv", csv_path]) == 0
    lines = open(csv_path).read().strip().splitlines()
    assert len(lines) == 3


def test_frame_check(tmp_path):
    rep = str(tmp_path / "frame.json")
    assert run(["frame-check", "--samples", "200", "--report", rep]) == 0
    payload = json.loads(open(rep).read())
    assert payload["passed"] is True
    assert payload["max_defect"] <= 1e-9


def test_selftest_passes_and_writes_report(tmp_path):
    rep = str(tmp_path / "selftest.json")
    assert run(["selftest", "--n", "33", "--report", rep]) == 0
    payload = json.loads(open(rep).read())
    assert payload["passed"] is True


def test_vtk_export_via_check(tmp_path):
    prefix = gen_family(tmp_path, n=17)
    vtk = str(tmp_path / "defect.vtk")
    run(["check", "--in", prefix + "u.h3f", "--vtk", vtk,
         "--report", str(tmp_path / "r.json")])
    text = open(vtk).read()
    assert text.startswith("# vtk DataFile")
    assert "DIMENSIONS 17 17 17" in text


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        run(["lift", "--nonsense"])
    assert info.value.code == 64


def test_unknown_command_exit_code():
    with pytest.raises(SystemExit) as info:
        run(["frobnicate"])
    assert info.value.code == 64


def test_bad_field_kind_rejected(tmp_path):
    prefix = gen_family(tmp_path, n=17)
    # feeding a lift where a map is expected is a precondition error
    code = run(["pullback", "--in", prefix + "uhat.h3f",
                "--out", str(tmp_path / "x.h3f")])
    assert code == 2


def test_gauge_budget_exhaustion_exits_three(tmp_path):
    # the planar map's pullback: the lift family's is rounding noise,
    # which the gauge answers with the zero field and no solve
    prefix = str(tmp_path / "pl_")
    assert run(["gen", "--map", "planar", "--n", "17",
                "--out-prefix", prefix]) == 0
    d_path = str(tmp_path / "D.h3f")
    assert run(["pullback", "--in", prefix + "u.h3f", "--out", d_path]) == 0
    rep = str(tmp_path / "gauge.json")
    code = run(["gauge", "--in", d_path, "--out", str(tmp_path / "a.h3f"),
                "--report", rep, "--iters", "2"])
    assert code == 3
    payload = json.loads(open(rep).read())
    assert payload["converged"] is False
    assert payload["iterations"] == 2


def test_cli_import_loads_no_scipy():
    # commands that neither solve nor smooth start at numpy's import cost
    src = os.path.dirname(os.path.dirname(hopflift.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, hopflift.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("argv, code, message", [
    (["sweep", "--u", "{u}", "--eta", "{eta}", "--csv", "{out}",
      "--eps", "0.1,abc"], 64, "argument --eps: expected comma-separated"),
    (["sweep", "--u", "{u}", "--eta", "{eta}", "--csv", "{out}",
      "--eps", ","], 64, "argument --eps: expected comma-separated"),
    (["sweep", "--u", "{u}", "--eta", "{eta}", "--csv", "{out}",
      "--eps", "0.1,0.2"], 64, "argument --eps: widths must be strictly"),
    (["sweep", "--u", "{u}", "--eta", "{eta}", "--csv", "{out}",
      "--eps", "nan"], 64, "argument --eps: widths must be finite"),
    (["gauge", "--in", "{D}", "--out", "{out}", "--tol", "0"], 64,
     "argument --tol: must lie in (0, 1)"),
    (["gauge", "--in", "{D}", "--out", "{out}", "--tol", "2"], 64,
     "argument --tol: must lie in (0, 1)"),
    (["gauge", "--in", "{D}", "--out", "{out}", "--iters", "0"], 64,
     "argument --iters: must be positive"),
    (["gauge", "--in", "{eta}", "--out", "{out}"], 2,
     "--in: expected a degree-2 field, got degree 1"),
    (["lift", "--u", "{u}", "--eta", "{D}", "--out", "{out}"], 2,
     "--eta: expected a degree-1 field, got degree 2"),
    (["lift", "--u", "{u}", "--eta", "{eta}", "--out", "{out}",
      "--tol", "2"], 64, "argument --tol: must lie in (0, 1)"),
    (["lift", "--u", "{u}", "--eta", "{eta}", "--out", "{out}",
      "--iters", "0"], 64, "argument --iters: must be positive"),
    (["frame-check", "--samples", "0"], 64,
     "argument --samples: must be positive"),
    (["frame-check", "--samples", "-1"], 64,
     "argument --samples: must be positive"),
    (["frame-check", "--seed", "-1"], 64,
     "argument --seed: must be non-negative, got -1"),
    (["approx", "--u", "{u}", "--eta", "{eta}", "--eps", "nan",
      "--out-prefix", "{out}"], 64,
     "argument --eps: must be a positive finite number"),
    (["approx", "--u", "{u}", "--eta", "{eta}", "--eps", "inf",
      "--out-prefix", "{out}"], 64,
     "argument --eps: must be a positive finite number"),
    (["approx", "--u", "{u}", "--eta", "{eta}", "--eps", "0",
      "--out-prefix", "{out}"], 64,
     "argument --eps: must be a positive finite number"),
    (["approx", "--u", "{u}", "--eta", "{eta}", "--eps", "-1",
      "--out-prefix", "{out}"], 64,
     "argument --eps: must be a positive finite number"),
    (["sweep", "--u", "{u}", "--eta", "{eta}", "--csv", "{out}",
      "--eps", "0.2,0"], 64,
     "argument --eps: widths must be finite and positive"),
    (["sweep", "--u", "{u}", "--eta", "{eta}", "--csv", "{out}",
      "--eps", "-0.1"], 64,
     "argument --eps: widths must be finite and positive"),
    (["gauge", "--in", "{Dplanar}", "--out", "{out}", "--iters", "1"], 3,
     "hopflift gauge: gauge solve stopped at 1 iterations"),
    (["lift", "--u", "{u}", "--eta", "{eta}", "--out", "{out}",
      "--iters", "1"], 3, "hopflift lift: phase solve stopped at 1 iterations"),
    (["gauge", "--in", "{nan}", "--out", "{out}"], 2,
     "VecField: values must be finite"),
    (["gen", "--map", "constant", "--p", "0,0,0", "--n", "5",
      "--out-prefix", "{out}"], 2, "cannot be normalized"),
    (["gen", "--map", "liftfam", "--a", "nan,0,0", "--n", "5",
      "--out-prefix", "{out}"], 64, "argument --a: components must be finite"),
    (["lift", "--u", "{u}", "--eta", "{eta}", "--out", "{out}",
      "--closed-tol", "nan"], 64,
     "argument --closed-tol: must be a positive finite number"),
    (["lift", "--u", "{u}", "--eta", "{eta}", "--out", "{out}",
      "--closed-tol", "inf"], 64,
     "argument --closed-tol: must be a positive finite number"),
    (["lift", "--u", "{u}", "--eta", "{eta}", "--out", "{out}",
      "--closed-tol", "-1"], 64,
     "argument --closed-tol: must be a positive finite number"),
    (["check", "--in", "{u}", "--tol", "nan"], 64,
     "argument --tol: must be a positive finite number"),
    (["check", "--in", "{u}", "--tol", "0"], 64,
     "argument --tol: must be a positive finite number"),
    (["check", "--in", "{u}", "--tol=-1e-3"], 64,
     "argument --tol: must be a positive finite number"),
    (["gauge", "--in", "{big}", "--out", "{out}"], 3,
     "hopflift gauge: right-hand side norm is not finite"),
    (["lift", "--u", "{u}", "--eta", "{eta11}", "--out", "{out}"], 2,
     "hopflift lift: --eta is on an n=11 grid, --u on an n=9 grid"),
    (["sweep", "--u", "{u}", "--eta", "{eta11}", "--csv", "{out}",
      "--eps", "0.2"], 2,
     "hopflift sweep: --eta is on an n=11 grid, --u on an n=9 grid"),
    (["approx", "--u", "{u}", "--eta", "{eta11}", "--eps", "0.2",
      "--out-prefix", "{out}"], 2,
     "hopflift approx: --eta is on an n=11 grid, --u on an n=9 grid"),
    (["verify", "--u", "{u}", "--eta", "{eta}", "--uhat", "{uhat11}"], 2,
     "hopflift verify: --uhat is on an n=11 grid, --u on an n=9 grid"),
    # n^3 * 3 doubles at n = 40000 exceed the 47-bit address space, so
    # the allocation fails before any memory is touched
    (["gen", "--map", "constant", "--n", "40000", "--out-prefix", "{out}"],
     2, "hopflift gen: out of memory: "),
    # refused at parse time, before check reads its file
    (["--ball-margin", "nan", "check", "--in", "{u}"], 64,
     "argument --ball-margin: must lie in [0, 1), got nan"),
    (["--ball-margin", "inf", "gauge", "--in", "{D}", "--out", "{out}"], 64,
     "argument --ball-margin: must lie in [0, 1), got inf"),
    (["--ball-margin", "2", "gen", "--map", "constant", "--n", "5",
      "--out-prefix", "{out}"], 64,
     "argument --ball-margin: must lie in [0, 1), got 2"),
    (["--ball-margin=-1", "lift", "--u", "{u}", "--eta", "{eta}",
      "--out", "{out}"], 64,
     "argument --ball-margin: must lie in [0, 1), got -1"),
    # argparse names the type function when the text is no number
    (["gauge", "--in", "{D}", "--out", "{out}", "--tol", "abc"], 64,
     "argument --tol: invalid _rel_tol value: 'abc'"),
    (["lift", "--u", "{u}", "--eta", "{eta}", "--out", "{out}",
      "--iters", "2.5"], 64,
     "argument --iters: invalid _positive_int value: '2.5'"),
    (["--ball-margin", "zz", "check", "--in", "{u}"], 64,
     "argument --ball-margin: invalid _ball_margin value: 'zz'"),
], ids=["eps-not-a-number", "eps-empty", "eps-increasing", "eps-nan",
        "tol-zero", "tol-two", "iters-zero", "gauge-degree-1",
        "lift-eta-degree-2", "lift-tol-two", "lift-iters-zero",
        "samples-zero", "samples-negative", "seed-negative", "approx-eps-nan",
        "approx-eps-inf", "approx-eps-zero", "approx-eps-negative",
        "sweep-eps-zero", "sweep-eps-negative", "gauge-budget", "lift-budget",
        "nan-payload", "constant-zero", "liftfam-a-nan", "closed-tol-nan",
        "closed-tol-inf", "closed-tol-negative", "check-tol-nan",
        "check-tol-zero", "check-tol-negative", "gauge-overflow",
        "lift-mixed-grids", "sweep-mixed-grids", "approx-mixed-grids",
        "verify-mixed-grids", "gen-out-of-memory", "ball-margin-nan",
        "ball-margin-inf", "ball-margin-two", "ball-margin-negative",
        "tol-not-a-number", "iters-not-an-integer",
        "ball-margin-not-a-number"])
def test_bad_input_exit_codes(tmp_path, capsys, argv, code, message):
    prefix = gen_family(tmp_path, n=9)
    (tmp_path / "n11").mkdir()
    prefix11 = gen_family(tmp_path / "n11", n=11)
    files = {"u": prefix + "u.h3f", "eta": prefix + "eta.h3f",
             "eta11": prefix11 + "eta.h3f", "uhat11": prefix11 + "uhat.h3f",
             "D": str(tmp_path / "D.h3f"), "out": str(tmp_path / "out"),
             "nan": str(tmp_path / "nan.h3f"),
             "big": str(tmp_path / "big.h3f"),
             "Dplanar": str(tmp_path / "Dplanar.h3f")}
    assert run(["pullback", "--in", files["u"], "--out", files["D"]]) == 0
    # the lift family's pullback is rounding noise, which the gauge
    # answers without a solve; a budget needs a planar map's
    assert run(["gen", "--map", "planar", "--n", "9",
                "--out-prefix", str(tmp_path / "pl_")]) == 0
    assert run(["pullback", "--in", str(tmp_path / "pl_u.h3f"),
                "--out", files["Dplanar"]]) == 0
    header, payload = open(files["D"], "rb").read().split(b"\n", 1)
    with open(files["nan"], "wb") as fh:
        fh.write(header + b"\n" + b"\xff" * len(payload))
    # finite values whose weighted norm overflows
    with open(files["big"], "wb") as fh:
        fh.write(header + b"\n"
                 + np.full(len(payload) // 8, 1e300, "<f8").tobytes())
    capsys.readouterr()
    try:
        got = run([a.format(**files) for a in argv])
    except SystemExit as exc:
        got = exc.code
    err = capsys.readouterr().err
    assert got == code
    assert message in err.strip().splitlines()[-1]
    assert "Traceback" not in err
    if code != 64:
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["sweep", "--u", "{u}", "--eta", "{eta}", "--eps", "0.25",
     "--csv", "{tmp}/no/such/dir/s.csv"],
    ["sweep", "--u", "{u}", "--eta", "{eta}", "--eps", "0.25", "--csv", ""],
    ["frame-check", "--samples", "10", "--report", ""],
    ["check", "--in", "{u}", "--report", "{tmp}/check.json", "--vtk", ""],
], ids=["sweep-csv-missing-dir", "sweep-csv-empty",
        "frame-check-report-empty", "check-vtk-empty"])
def test_output_path_errors_exit_two(tmp_path, capsys, argv):
    # an output path that cannot be written fails the command like an
    # unreadable input: exit 2, one stderr line, and no report on stdout
    # in place of the file
    prefix = gen_family(tmp_path)
    capsys.readouterr()
    got = run([a.format(u=prefix + "u.h3f", eta=prefix + "eta.h3f",
                        tmp=tmp_path) for a in argv])
    out, err = capsys.readouterr()
    assert got == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"hopflift {argv[0]}: ")


def refuse_call(*args, **kwargs):
    raise AssertionError("the command ran before its outputs were checked")


@pytest.mark.parametrize("argv", [
    ["sweep", "--u", "{u}", "--eta", "{eta}", "--eps", "0.25",
     "--csv", "{tmp}/no/such/dir/s.csv"],
    ["lift", "--u", "{u}", "--eta", "{eta}",
     "--out", "{tmp}/no/such/dir/u.h3f"],
    ["lift", "--u", "{u}", "--eta", "{eta}", "--out", "{tmp}/uhat.h3f",
     "--report", "{tmp}/no/such/dir/r.json"],
    ["approx", "--u", "{u}", "--eta", "{eta}", "--eps", "0.25",
     "--out-prefix", "{tmp}/no/such/dir/ap_"],
    ["check", "--in", "{u}", "--vtk", "{tmp}/no/such/dir/d.vtk"],
    ["lift", "--u", "{u}", "--eta", "{eta}", "--out", "{u}/uhat.h3f"],
], ids=["sweep-csv", "lift-out", "lift-report", "approx-prefix",
        "check-vtk", "out-under-a-file"])
def test_unwritable_output_fails_before_the_work(tmp_path, capsys,
                                                 monkeypatch, argv):
    # the output directories are checked before any input is read, so
    # no input is read and no lift or sweep runs
    import hopflift.cli as cli
    prefix = gen_family(tmp_path, n=9)
    for module, name in ((cli, "read_h3f"), (cli, "build_lift"),
                         (cli.approx, "convergence_sweep"),
                         (cli.approx, "approximate")):
        monkeypatch.setattr(module, name, refuse_call)
    capsys.readouterr()
    got = run([a.format(u=prefix + "u.h3f", eta=prefix + "eta.h3f",
                        tmp=tmp_path) for a in argv])
    out, err = capsys.readouterr()
    assert got == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"hopflift {argv[0]}: cannot write ")


def test_empty_out_prefix_is_the_current_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["gen", "--map", "constant", "--n", "5",
                "--out-prefix", ""]) == 0
    assert isinstance(read_h3f("u.h3f"), SphereMapField)


def refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_write_report_nulls_non_finite_floats(tmp_path):
    from hopflift.cli import _write_report
    path = tmp_path / "r.json"
    _write_report(str(path), {
        "nan": float("nan"), "np_nan": np.float64("nan"), "third": 1 / 3,
        "deep": [1.5, float("inf"), {"neg": -float("inf"), "sum": 0.1 + 0.2}],
        "pair": (float("nan"), 3)})
    text = path.read_text()
    assert json.loads(text, parse_constant=refuse_constant) == {
        "schema": "hopflift-report@1", "nan": None, "np_nan": None,
        "third": 1 / 3, "deep": [1.5, None, {"neg": None, "sum": 0.1 + 0.2}],
        "pair": [None, 3]}
    assert f" {1 / 3!r}\n" in text and f" {0.1 + 0.2!r}\n" in text


def test_approx_report_with_empty_deep_box_is_strict_json(tmp_path):
    # at eps = 0.3 on n = 17 no node lies deep enough for the constraint
    # residual, which is then NaN
    prefix = gen_family(tmp_path, n=17)
    rep = tmp_path / "approx.json"
    assert run(["approx", "--u", prefix + "u.h3f", "--eta", prefix + "eta.h3f",
                "--eps", "0.3", "--out-prefix", str(tmp_path / "ap_"),
                "--report", str(rep)]) == 0
    payload = json.loads(rep.read_text(), parse_constant=refuse_constant)
    assert payload["constraint_residual"] is None


@pytest.mark.parametrize("argv", [["check", "--in", "{u}"],
                                  ["selftest", "--n", "{n}"]],
                         ids=["check", "selftest"])
@pytest.mark.parametrize("n", [3, 5, 6, 7])
def test_grids_too_coarse_exit_two(tmp_path, capsys, argv, n):
    prefix = str(tmp_path / "c_")
    assert run(["gen", "--map", "constant", "--n", str(n),
                "--out-prefix", prefix]) == 0
    capsys.readouterr()
    assert run([a.format(u=prefix + "u.h3f", n=n) for a in argv]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"hopflift {argv[0]}: ")


def test_check_at_coarsest_grid_exits_zero(tmp_path):
    prefix = str(tmp_path / "c_")
    assert run(["gen", "--map", "constant", "--n", "8",
                "--out-prefix", prefix]) == 0
    assert run(["check", "--in", prefix + "u.h3f"]) == 0


def test_selftest_independent_of_thread_counts(tmp_path):
    # CG's reductions run over fixed chunks outside BLAS, so neither the
    # solver's helper threads nor BLAS threads move a bit of the report
    src = os.path.dirname(os.path.dirname(hopflift.__file__))
    outputs = set()
    for blas in ("1", "2"):
        for threads in ("1", "2"):
            path = tmp_path / f"selftest_{blas}_{threads}.json"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                       HOPFLIFT_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p)
            proc = subprocess.run(
                [sys.executable, "-m", "hopflift", "selftest", "--n", "33",
                 "--report", str(path)],
                env=env, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr
            outputs.add(path.read_bytes())
    assert len(outputs) == 1


def test_gauge_independent_of_thread_counts(tmp_path):
    # the gauge's matrix, right-hand side, CG and report are all built
    # without BLAS reductions or thread-dependent sums
    from hopflift.fields import curl, make_grid
    from hopflift.fileio import write_h3f
    grid = make_grid(33)
    x1, x2, x3 = grid.coords()
    s = np.clip(np.sqrt(x1 ** 2 + x2 ** 2 + x3 ** 2) / 0.75, 0.0, 1.0)
    psi = np.zeros_like(s)
    inside = s < 1.0
    psi[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    pot = VecField(grid, 1, psi[..., None] * np.array([0.3, -0.5, 0.8]))
    g = curl(VecField(grid, 1, curl(pot).values))
    g_path = tmp_path / "G.h3f"
    write_h3f(str(g_path), g)
    src = os.path.dirname(os.path.dirname(hopflift.__file__))
    outputs = set()
    for blas in ("1", "2"):
        for threads in ("1", "2"):
            out = tmp_path / f"a_{blas}_{threads}.h3f"
            rep = tmp_path / f"gauge_{blas}_{threads}.json"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                       HOPFLIFT_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p)
            proc = subprocess.run(
                [sys.executable, "-m", "hopflift", "gauge", "--in",
                 str(g_path), "--out", str(out), "--report", str(rep)],
                env=env, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr
            assert json.loads(rep.read_text())["converged"] is True
            outputs.add((out.read_bytes(), rep.read_bytes()))
    assert len(outputs) == 1


@pytest.mark.parametrize("argv", [
    ["lift", "--out", "x"],
    ["approx", "--eps", "0.25", "--out-prefix", "x"],
    ["sweep", "--eps", "0.25,0.125", "--csv", "x"],
], ids=["lift", "approx", "sweep"])
def test_strict_halves_every_lift_tolerance(argv):
    from hopflift.cli import _lift_config, build_parser
    from hopflift.fields import make_grid
    grid = make_grid(17)
    pair = ["--u", "u.h3f", "--eta", "eta.h3f"]
    for strict, scale in ((False, 1.0), (True, 0.5)):
        args = build_parser().parse_args(
            ["--strict"] * strict + argv[:1] + pair + argv[1:])
        closed, tol, iters = _lift_config(args, grid).resolved(grid)
        assert closed == scale * 50.0 * grid.h ** 2
        assert tol == scale * 1e-8
        assert iters == 20 * grid.n


@pytest.mark.parametrize("command", ["check", "frame-check"])
def test_strict_halves_report_tol(tmp_path, command):
    from hopflift.pullback import exactness_tol
    argv = [command, "--samples", "20"]
    default = 1e-9
    if command == "check":
        argv = [command, "--in", gen_family(tmp_path, n=9) + "u.h3f"]
        default = exactness_tol(make_grid(9))
    tols = []
    for strict in (False, True):
        rep = str(tmp_path / f"{command}{strict}.json")
        assert run(["--strict"] * strict + argv + ["--report", rep]) == 0
        tols.append(json.loads(open(rep).read())["tol"])
    assert tols == [default, 0.5 * default]


def test_readme_synopsis_parses():
    # every command line of the README's synopsis, optional [...] groups
    # dropped, parses with the current flags, and every command is shown
    import re
    import shlex
    from pathlib import Path
    from hopflift.cli import _COMMANDS, build_parser
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```\n(.*?)^```", readme.read_text(),
                        re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("hopflift ")]
    shown = set()
    for line in lines:
        argv = shlex.split(re.sub(r"\[[^\]]*\]", "", line))[1:]
        shown.add(build_parser().parse_args(argv).command)
    assert shown == set(_COMMANDS)
