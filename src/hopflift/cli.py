"""Command-line entry point.

Exit codes: 0 success, 2 precondition violations (chart exhausted,
non-closed data, bad radii, grids too coarse for a check, singular
verdicts from ``check``) and requests larger than memory, 3 solver
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
from .fileio import (check_output_path, export_vtk, open_output,
                     read_h3f, write_h3f)
from .hopf import frame_sweep, gauge_of_lift, project_to_sphere
from .lift import LiftConfig
from .lift import lift as build_lift
from .lift import verify_lift
from .pullback import exactness_defect, exactness_tol, pullback_area_form

SCHEMA = "hopflift-report@1"
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _finite_or_null(value):
    """``value`` with each non-finite float, at any depth, as None (null)."""
    if isinstance(value, float):
        return value if np.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _write_report(path, payload):
    """The JSON report to ``path``, or to stdout when ``path`` is None."""
    payload = _finite_or_null({"schema": SCHEMA, **payload})
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is None:
        print(text)
        return
    with open_output(path, "w", encoding="ascii") as fh:
        fh.write(text + "\n")


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
    if not all(0.0 < w < np.inf for w in widths):
        raise argparse.ArgumentTypeError("widths must be finite and positive")
    if any(b >= a for a, b in zip(widths, widths[1:])):
        raise argparse.ArgumentTypeError("widths must be strictly decreasing")
    return widths


def _number_flag(name, convert, test, rule):
    """The argparse type ``name`` (argparse reports a failed ``convert`` by
    it): "must <rule>, got <text>" unless ``test`` holds for the value."""
    def parse(text):
        value = convert(text)
        if not test(value):
            raise argparse.ArgumentTypeError(f"must {rule}, got {text}")
        return value
    parse.__name__ = name
    return parse


_rel_tol = _number_flag("_rel_tol", float, lambda v: 0.0 < v < 1.0,
                        "lie in (0, 1)")
_ball_margin = _number_flag("_ball_margin", float, lambda v: 0.0 <= v < 1.0,
                            "lie in [0, 1)")
_positive_float = _number_flag(
    "_positive_float", float, lambda v: np.isfinite(v) and v > 0.0,
    "be a positive finite number")
_positive_int = _number_flag("_positive_int", int, lambda v: v > 0,
                             "be positive")
_nonnegative_int = _number_flag("_nonnegative_int", int, lambda v: v >= 0,
                                "be non-negative")


def _strict(args, tol):
    """``tol``, halved under --strict."""
    return tol * 0.5 if args.strict else tol


def _read(args, path, flag, kind, degree=None):
    """The field at ``path``; IoError unless it is what ``flag`` takes."""
    field = read_h3f(path, args.ball_margin)
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
    parser.add_argument("--ball-margin", type=_ball_margin,
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
    p.add_argument("--tol", type=_rel_tol,
                   default=hodge.GaugeSolveConfig.rel_tol)
    p.add_argument("--iters", type=_positive_int)

    p = sub.add_parser("lift", help="construct the circle-bundle lift")
    p.add_argument("--u", required=True)
    p.add_argument("--eta", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.add_argument("--tol", type=_rel_tol, default=LiftConfig.rel_tol)
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
    p.add_argument("--eps", type=_positive_float, required=True)
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
    p.add_argument("--seed", type=_nonnegative_int, default=11)
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


def _map_command(kind, fn):
    """The command writing ``fn`` of the ``kind`` field at --in to --out;
    ``fn`` looks its function up per call, for tracers' rebindings."""
    def command(args):
        write_h3f(args.out, fn(_read(args, args.infile, "--in", kind)))
        print(f"{args.command}: wrote {args.out}")
        return 0
    return command


def _cmd_check(args):
    u = _read(args, args.infile, "--in", SphereMapField)
    tol = exactness_tol(u.grid) if args.tol is None else args.tol
    report = exactness_defect(u, _strict(args, tol))
    _write_report(args.report, report.to_dict())
    if args.vtk is not None:
        export_vtk(report.div_defect, args.vtk, name="div_defect")
    print(f"check: verdict {report.verdict}, max interior div "
          f"{report.max_interior_div:.3e}")
    return 0 if report.verdict == "exact" else 2


def _solve_and_write(args, solve, *inputs):
    """Run ``solve(*inputs)`` and write its field to --out and its report
    to --report, converged or not; a NotConverged solve is raised again
    once both are written, so it exits 3 with its message."""
    try:
        field, report = solve(*inputs)
        failure = None
    except NotConverged as exc:
        (field, report), failure = exc.result, exc
    write_h3f(args.out, field)
    _write_report(args.report,
                  {**report.to_dict(), "converged": failure is None})
    if failure is not None:
        raise failure
    return report


def _cmd_gauge(args):
    g = _read(args, args.infile, "--in", VecField, degree=2)
    cfg = hodge.GaugeSolveConfig(args.iters, _strict(args, args.tol))
    report = _solve_and_write(args, hodge.canonical_gauge, g, cfg)
    print(f"gauge: curl residual {report.curl_residual_rel:.3e} in "
          f"{report.iterations} iterations")
    return 0


def _same_grid(field, flag, other, other_flag):
    """IoError unless ``field`` lives on the grid of ``other``."""
    if field.grid != other.grid:
        raise IoError(f"{flag} is on an n={field.grid.n} grid, "
                      f"{other_flag} on an n={other.grid.n} grid")


def _read_pair(args):
    """The (--u, --eta) pair: a sphere map and a 1-form on one grid."""
    u = _read(args, args.u, "--u", SphereMapField)
    eta = _read(args, args.eta, "--eta", VecField, degree=1)
    _same_grid(eta, "--eta", u, "--u")
    return u, eta


def _lift_config(args, grid):
    """The lift's configuration on ``grid``: the flags where given, the
    defaults elsewhere, and under --strict every tolerance halved."""
    closed, tol, iters = LiftConfig(
        closed_tol=getattr(args, "closed_tol", None),
        rel_tol=getattr(args, "tol", LiftConfig.rel_tol),
        max_iters=getattr(args, "iters", None)).resolved(grid)
    return LiftConfig(_strict(args, closed), _strict(args, tol), iters)


def _cmd_lift(args):
    u, eta = _read_pair(args)
    report = _solve_and_write(args, build_lift, u, eta,
                              _lift_config(args, u.grid))
    print(f"lift: projection error {report.projection_error:.3e}, gauge "
          f"error {report.gauge_error:.3e}")
    return 0


def _cmd_verify(args):
    u, eta = _read_pair(args)
    uhat = _read(args, args.uhat, "--uhat", LiftField)
    _same_grid(uhat, "--uhat", u, "--u")
    report = verify_lift(u, eta, uhat)
    _write_report(args.report, report.to_dict())
    print(f"verify: projection error {report.projection_error:.3e}, gauge "
          f"error {report.gauge_error:.3e}, energy defect "
          f"{report.energy_defect:.3e}")
    return 0


def _cmd_approx(args):
    u, eta = _read_pair(args)
    u_eps, eta_eps, report = approx.approximate(
        u, eta, args.eps, _lift_config(args, u.grid))
    write_h3f(args.out_prefix + "u.h3f", u_eps)
    write_h3f(args.out_prefix + "eta.h3f", eta_eps)
    _write_report(args.report, report.to_dict())
    print(f"approx: constraint residual {report.constraint_residual:.3e} "
          f"at eps={args.eps}")
    return 0


def _cmd_sweep(args):
    u, eta = _read_pair(args)
    reports = approx.convergence_sweep(u, eta, args.eps,
                                       _lift_config(args, u.grid))
    approx.write_sweep_csv(reports, args.csv)
    print(f"sweep: wrote {args.csv} ({len(reports)} rows)")
    return 0


def _cmd_frame_check(args):
    worst = frame_sweep(args.samples, seed=args.seed)
    tol = _strict(args, 1e-9)
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
    "pullback": _map_command(SphereMapField, lambda u: pullback_area_form(u)),
    "check": _cmd_check,
    "gauge": _cmd_gauge,
    "lift": _cmd_lift,
    "verify": _cmd_verify,
    "project": _map_command(LiftField, lambda uhat: project_to_sphere(uhat)),
    "gauge-of-lift": _map_command(LiftField, lambda uhat: gauge_of_lift(uhat)),
    "approx": _cmd_approx,
    "sweep": _cmd_sweep,
    "frame-check": _cmd_frame_check,
    "selftest": _cmd_selftest,
}


def _check_outputs(args):
    """IoError for an output that cannot be written, before any input is
    read; an --out-prefix is checked by the first file it names."""
    for flag in ("out", "report", "csv", "vtk"):
        path = getattr(args, flag, None)
        if path is not None:
            check_output_path(path)
    prefix = getattr(args, "out_prefix", None)
    if prefix is not None:
        check_output_path(prefix + "u.h3f")


def run(argv):
    """Execute one subcommand; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        return _COMMANDS[args.command](args)
    except HopfliftError as exc:
        print(f"hopflift {args.command}: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        print(f"hopflift {args.command}: out of memory: {exc}",
              file=sys.stderr)
        return 2


def main(argv=None):
    raise SystemExit(run(sys.argv[1:] if argv is None else argv))
