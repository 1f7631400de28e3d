"""Command-line entry point.

Exit codes: 0 success, 2 precondition violations (chart exhausted,
non-closed data, bad radii, singular verdicts from ``check``), 3 solver
failures, 64 malformed flags.
"""

import argparse
import json
import sys

import numpy as np

from . import approx, hodge, selftest, testmaps
from .errors import HopfliftError, IoError, NotConverged
from .fields import (DEFAULT_BALL_MARGIN, LiftField, SphereMapField, VecField,
                     make_grid)
from .fileio import export_vtk, read_h3f, write_h3f
from .hopf import frame_sweep, gauge_of_lift, project_to_sphere
from .lift import LiftConfig
from .lift import lift as build_lift
from .lift import verify_lift
from .pullback import exactness_defect, pullback_area_form

SCHEMA = "hopflift-report@1"
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write_report(path, payload):
    payload = {"schema": SCHEMA, **payload}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        try:
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise IoError(f"cannot write {path}: {exc}") from exc
    else:
        print(text)


def _parse_vec(text):
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated numbers")
    if not np.all(np.isfinite(parts)):
        raise argparse.ArgumentTypeError("components must be finite")
    return tuple(parts)


def _parse_widths(text):
    try:
        widths = [float(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None
    if not np.all(np.isfinite(widths)):
        raise argparse.ArgumentTypeError("widths must be finite")
    if any(b >= a for a, b in zip(widths, widths[1:])):
        raise argparse.ArgumentTypeError("widths must be strictly decreasing")
    return widths


def _rel_tol(text):
    tol = float(text)
    if not 0.0 < tol < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text}")
    return tol


def _positive_float(text):
    value = float(text)
    if not (np.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text}")
    return value


def _positive_int(text):
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _expect(field, kind, flag, degree=None):
    if not isinstance(field, kind):
        raise IoError(f"{flag}: expected a {kind.__name__}, "
                      f"got {type(field).__name__}")
    if degree is not None and field.degree != degree:
        raise IoError(f"{flag}: expected a degree-{degree} field, "
                      f"got degree {field.degree}")
    return field


def build_parser():
    parser = _Parser(prog="hopflift",
                     description="pullback forms, Hodge gauges, circle-bundle "
                                 "lifts, and constraint-preserving smoothing "
                                 "on the cube grid")
    parser.add_argument("--strict", action="store_true",
                        help="halve every tolerance")
    parser.add_argument("--ball-margin", type=float,
                        default=DEFAULT_BALL_MARGIN,
                        help="radius shrink of the ball mask used for norms")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write an analytic generator to H3F files")
    p.add_argument("--map", required=True,
                   choices=["constant", "hedgehog", "liftfam", "planar"])
    p.add_argument("--n", type=int, default=33)
    p.add_argument("--p", type=_parse_vec, default=(0.0, 0.0, 1.0),
                   help="value of the constant map")
    p.add_argument("--t0", type=float, default=np.pi / 4)
    p.add_argument("--a", type=_parse_vec, default=(1.0, 0.0, 0.0))
    p.add_argument("--b", type=_parse_vec, default=(0.0, 1.0, 0.0))
    p.add_argument("--f", default="gaussian-bump", choices=testmaps.PLANAR_KINDS,
                   help="planar profile")
    p.add_argument("--out-prefix", required=True)

    p = sub.add_parser("pullback", help="compute D(u)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("check", help="exactness verdict for a map")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--report")
    p.add_argument("--tol", type=_positive_float)
    p.add_argument("--vtk", help="write the divergence defect as VTK")

    p = sub.add_parser("gauge", help="canonical gauge of a degree-2 field")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.add_argument("--tol", type=_rel_tol, default=1e-8)
    p.add_argument("--iters", type=_positive_int)

    p = sub.add_parser("lift", help="construct the circle-bundle lift")
    p.add_argument("--u", required=True)
    p.add_argument("--eta", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.add_argument("--tol", type=_rel_tol, default=1e-8)
    p.add_argument("--iters", type=_positive_int)
    p.add_argument("--closed-tol", type=_positive_float)

    p = sub.add_parser("verify", help="recompute lift diagnostics")
    p.add_argument("--u", required=True)
    p.add_argument("--eta", required=True)
    p.add_argument("--uhat", required=True)
    p.add_argument("--report")

    p = sub.add_parser("project", help="apply the bundle projection nodewise")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("gauge-of-lift", help="the 1-form 2 uhat*theta")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("approx", help="one constraint-preserving smoothing step")
    p.add_argument("--u", required=True)
    p.add_argument("--eta", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--report")

    p = sub.add_parser("sweep", help="smoothing sweep over widths, CSV out")
    p.add_argument("--u", required=True)
    p.add_argument("--eta", required=True)
    p.add_argument("--eps", type=_parse_widths, required=True,
                   help="comma-separated decreasing widths")
    p.add_argument("--csv", required=True)

    p = sub.add_parser("frame-check", help="pointwise frame identities")
    p.add_argument("--samples", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--report")

    p = sub.add_parser("selftest", help="deterministic invariant suite")
    p.add_argument("--n", type=int, default=33)
    p.add_argument("--report")
    return parser


def _cmd_gen(args):
    grid = make_grid(args.n, args.ball_margin)
    prefix = args.out_prefix
    if args.map == "constant":
        u = testmaps.gen_constant(grid, args.p)
        write_h3f(prefix + "u.h3f", u)
        oracle = {"map": "constant", "p": list(args.p)}
    elif args.map == "hedgehog":
        u = testmaps.gen_hedgehog(grid)
        write_h3f(prefix + "u.h3f", u)
        oracle = {"map": "hedgehog", "flux": 4.0 * np.pi}
    elif args.map == "liftfam":
        uhat, u, eta = testmaps.gen_lift_family(grid, args.t0, args.a, args.b)
        write_h3f(prefix + "uhat.h3f", uhat)
        write_h3f(prefix + "u.h3f", u)
        write_h3f(prefix + "eta.h3f", eta)
        oracle = {"map": "liftfam",
                  **testmaps.lift_family_oracle(args.t0, args.a, args.b)}
    else:
        u = testmaps.gen_planar(grid, args.f)
        write_h3f(prefix + "u.h3f", u)
        oracle = {"map": "planar", "profile": args.f}
    _write_report(prefix + "oracle.json", {"n": args.n, **oracle})
    print(f"gen {args.map}: wrote {prefix}*.h3f at n={args.n}")
    return 0


def _cmd_pullback(args):
    u = _expect(read_h3f(args.infile, args.ball_margin), SphereMapField, "--in")
    write_h3f(args.out, pullback_area_form(u))
    print(f"pullback: wrote {args.out}")
    return 0


def _cmd_check(args):
    u = _expect(read_h3f(args.infile, args.ball_margin), SphereMapField, "--in")
    tol = args.tol
    if tol is None:
        tol = 10.0 * u.grid.h ** 2
    if args.strict:
        tol *= 0.5
    report = exactness_defect(u, tol)
    _write_report(args.report, report.to_dict())
    if args.vtk:
        export_vtk(report.div_defect, args.vtk, name="div_defect")
    print(f"check: verdict {report.verdict}, max interior div "
          f"{report.max_interior_div:.3e}")
    return 0 if report.verdict == "exact" else 2


def _cmd_gauge(args):
    g = _expect(read_h3f(args.infile, args.ball_margin), VecField, "--in",
                degree=2)
    tol = args.tol * 0.5 if args.strict else args.tol
    cfg = hodge.GaugeSolveConfig(max_iters=args.iters, rel_tol=tol)
    try:
        a, report = hodge.canonical_gauge(g, cfg)
    except NotConverged as exc:
        a, report = exc.result
        write_h3f(args.out, a)
        _write_report(args.report, {**report.to_dict(), "converged": False})
        print(f"hopflift gauge: {exc}", file=sys.stderr)
        return exc.exit_code
    write_h3f(args.out, a)
    _write_report(args.report, {**report.to_dict(), "converged": True})
    print(f"gauge: curl residual {report.curl_residual_rel:.3e} in "
          f"{report.iterations} iterations")
    return 0


def _lift_config(args):
    closed = getattr(args, "closed_tol", None)
    tol = args.tol * 0.5 if args.strict else args.tol
    if closed is not None and args.strict:
        closed *= 0.5
    return LiftConfig(closed_tol=closed, rel_tol=tol, max_iters=args.iters)


def _cmd_lift(args):
    u = _expect(read_h3f(args.u, args.ball_margin), SphereMapField, "--u")
    eta = _expect(read_h3f(args.eta, args.ball_margin), VecField, "--eta",
                  degree=1)
    try:
        uhat, report = build_lift(u, eta, _lift_config(args))
    except NotConverged as exc:
        uhat, report = exc.result
        write_h3f(args.out, uhat)
        _write_report(args.report, {**report.to_dict(), "converged": False})
        print(f"hopflift lift: {exc}", file=sys.stderr)
        return exc.exit_code
    write_h3f(args.out, uhat)
    _write_report(args.report, {**report.to_dict(), "converged": True})
    print(f"lift: projection error {report.projection_error:.3e}, gauge "
          f"error {report.gauge_error:.3e}")
    return 0


def _cmd_verify(args):
    u = _expect(read_h3f(args.u, args.ball_margin), SphereMapField, "--u")
    eta = _expect(read_h3f(args.eta, args.ball_margin), VecField, "--eta",
                  degree=1)
    uhat = _expect(read_h3f(args.uhat, args.ball_margin), LiftField, "--uhat")
    report = verify_lift(u, eta, uhat)
    payload = report.to_dict()
    payload["min_pole_distance"] = None
    payload["alpha_closedness"] = None
    _write_report(args.report, payload)
    print(f"verify: projection error {report.projection_error:.3e}, gauge "
          f"error {report.gauge_error:.3e}, energy defect "
          f"{report.energy_defect:.3e}")
    return 0


def _cmd_project(args):
    uhat = _expect(read_h3f(args.infile, args.ball_margin), LiftField, "--in")
    write_h3f(args.out, project_to_sphere(uhat))
    print(f"project: wrote {args.out}")
    return 0


def _cmd_gauge_of_lift(args):
    uhat = _expect(read_h3f(args.infile, args.ball_margin), LiftField, "--in")
    write_h3f(args.out, gauge_of_lift(uhat))
    print(f"gauge-of-lift: wrote {args.out}")
    return 0


def _cmd_approx(args):
    u = _expect(read_h3f(args.u, args.ball_margin), SphereMapField, "--u")
    eta = _expect(read_h3f(args.eta, args.ball_margin), VecField, "--eta",
                  degree=1)
    u_eps, eta_eps, report = approx.approximate(u, eta, args.eps)
    write_h3f(args.out_prefix + "u.h3f", u_eps)
    write_h3f(args.out_prefix + "eta.h3f", eta_eps)
    _write_report(args.report, report.to_dict())
    print(f"approx: constraint residual {report.constraint_residual:.3e} "
          f"at eps={args.eps}")
    return 0


def _cmd_sweep(args):
    u = _expect(read_h3f(args.u, args.ball_margin), SphereMapField, "--u")
    eta = _expect(read_h3f(args.eta, args.ball_margin), VecField, "--eta",
                  degree=1)
    reports = approx.convergence_sweep(u, eta, args.eps)
    approx.write_sweep_csv(reports, args.csv)
    print(f"sweep: wrote {args.csv} ({len(reports)} rows)")
    return 0


def _cmd_frame_check(args):
    worst = frame_sweep(args.samples, seed=args.seed)
    tol = 1e-9 * (0.5 if args.strict else 1.0)
    _write_report(args.report, {"samples": args.samples, "max_defect": worst,
                                "tol": tol, "passed": worst <= tol})
    print(f"frame-check: max defect {worst:.3e} over {args.samples} samples")
    return 0 if worst <= tol else 2


def _cmd_selftest(args):
    payload = selftest.run_selftest(args.n)
    _write_report(args.report, payload)
    status = "pass" if payload["passed"] else "FAIL"
    print(f"selftest: {status} ({len(payload['checks'])} checks at "
          f"n={args.n})")
    return 0 if payload["passed"] else 2


_COMMANDS = {
    "gen": _cmd_gen,
    "pullback": _cmd_pullback,
    "check": _cmd_check,
    "gauge": _cmd_gauge,
    "lift": _cmd_lift,
    "verify": _cmd_verify,
    "project": _cmd_project,
    "gauge-of-lift": _cmd_gauge_of_lift,
    "approx": _cmd_approx,
    "sweep": _cmd_sweep,
    "frame-check": _cmd_frame_check,
    "selftest": _cmd_selftest,
}


def run(argv):
    """Execute one subcommand; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except HopfliftError as exc:
        print(f"hopflift {args.command}: {exc}", file=sys.stderr)
        return exc.exit_code


def main(argv=None):
    raise SystemExit(run(sys.argv[1:] if argv is None else argv))
