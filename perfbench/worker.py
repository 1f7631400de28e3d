"""One process of a library workload: import hopflift, build the seeded
inputs, run one untimed warm-up pass, then timed passes.

    python perfbench/worker.py --workload gauge-bump-n65 --seed 0 \
        --share 4 --trace 0 [--smoke]

Prints one JSON object on its last stdout line.  ``setup_end`` in it is
time.monotonic() (a system-wide clock on Linux) just before the first
timed pass, so the parent can time set-up from the moment it launched
this process: interpreter start, imports, input generation and the
warm-up pass.
"""

import argparse
import json
import os
import statistics
import sys
import time
import traceback

import inputs
import tracer as tr

LIBRARY_WORKLOADS = {"gauge-bump-n65": 65, "lift-sweep-n65": 65}
#: smoke sizes: the sweep's widest window (3 * 8h) must fit the cube, so
#: the sweep keeps n = 65
SMOKE_N = {"gauge-bump-n65": 33, "lift-sweep-n65": 65}


def gauge_pass(hl, data):
    a0, g_form = data
    p = inputs.Pass()
    op = "canonical_gauge"
    out = p.run(op, hl.canonical_gauge, g_form)
    if out is None:
        return p, 0
    a, rep = out
    diff = hl.VecField(a.grid, 1, a.values - a0.values)
    p.at_most(op, "recovery", hl.l2_norm(diff) / hl.l2_norm(a0),
              inputs.GAUGE_RECOVERY_TOL)
    p.at_most(op, "curl_residual_rel", rep.curl_residual_rel,
              inputs.GAUGE_CURL_TOL)
    p.at_most(op, "weak_trace_defect", rep.weak_trace_defect,
              inputs.GAUGE_WEAK_TRACE_TOL)
    return p, rep.iterations


def sweep_widths(grid):
    return [8 * grid.h, 4 * grid.h, 2 * grid.h]


def sweep_pass(hl, data):
    from hopflift.lift import relative_phase
    uhat0, u, eta = data
    p = inputs.Pass()
    iters = 0

    ex = p.run("exactness_defect", hl.exactness_defect, u)
    if ex is not None:
        p.check("exactness_defect", ex.verdict == "exact",
                f"verdict {ex.verdict} != exact")

    ident = p.run("pointwise_identities", hl.pointwise_identities, u)
    if ident is not None:
        p.at_most("pointwise_identities", "norm_identity_defect",
                  ident.norm_identity_defect, inputs.IDENTITY_TOL)
        p.at_most("pointwise_identities", "amgm_violation",
                  ident.amgm_violation, inputs.IDENTITY_TOL)

    out = p.run("lift", hl.lift, u, eta)
    if out is not None:
        uhat, rep = out
        iters += rep.iterations
        p.at_most("lift", "projection_error", rep.projection_error,
                  inputs.LIFT_ERROR_TOL)
        p.at_most("lift", "phase spread",
                  float(relative_phase(uhat, uhat0).std()),
                  inputs.PHASE_SPREAD_TOL)

        ver = p.run("verify_lift", hl.verify_lift, u, eta, uhat)
        if ver is not None:
            for key in ("projection_error", "gauge_error", "energy_defect"):
                mine, theirs = getattr(ver, key), getattr(rep, key)
                p.check("verify_lift", mine == theirs,
                        f"verify {key} {mine!r} != lift {theirs!r}")

    op = "convergence_sweep"
    reps = p.run(op, hl.convergence_sweep, u, eta, sweep_widths(u.grid))
    if reps is not None:
        iters += sum(r.lift.iterations for r in reps)
        for r in reps:
            p.at_most(op, f"constraint_residual(eps={r.eps:.4f})",
                      r.constraint_residual, inputs.CONSTRAINT_TOL)
        p.decreasing(op, "dist_u_w12", [r.dist_u_w12 for r in reps])
        p.decreasing(op, "dist_eta_l2", [r.dist_eta_l2 for r in reps])
    return p, iters


WORKLOADS = {
    "gauge-bump-n65": (inputs.bump_gauge_field, gauge_pass),
    "lift-sweep-n65": (inputs.liftfam_fields, sweep_pass),
}


def _matrix_sizes(hl, run_pass, data):
    """Run one pass with a probe on the CG entry point and return the
    sizes of the systems it solved (the warm-up pass uses this)."""
    from hopflift import solvers
    seen = {}
    orig = solvers.conjugate_gradient

    def probe(mat, *args, **kwargs):
        result = orig(mat, *args, **kwargs)
        seen[mat.shape[0]] = dict(
            tr.cg_extras((mat,), kwargs, result),
            matrix_bytes=mat.data.nbytes + mat.indices.nbytes
            + mat.indptr.nbytes)
        return result

    solvers.conjugate_gradient = probe
    try:
        result = run_pass(hl, data)
    finally:
        solvers.conjugate_gradient = orig
    return result, sorted(seen.values(), key=lambda s: s["unknowns"])


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--share", type=float, required=True,
                    help="seconds of timed passes in this process")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import hopflift as hl
    import_s = time.perf_counter() - t0

    n = (SMOKE_N if args.smoke else LIBRARY_WORKLOADS)[args.workload]
    make_inputs, run_pass = WORKLOADS[args.workload]
    data = make_inputs(hl, n, args.seed)

    tracer = None
    if args.trace:
        tracer = tr.Tracer()
        tr.install(tracer)

    passes = []
    (warm, warm_iters), sizes = _matrix_sizes(hl, run_pass, data)
    passes.append({"kind": "warmup", "ops": len(warm.ops),
                   "misses": warm.misses, "cg_iters": warm_iters})
    setup_end = time.monotonic()

    # traced runs alternate untraced and traced passes, so both medians
    # see the same machine state and trace.overhead_frac compares them
    kinds = ("plain", "traced") if tracer else ("plain",)
    start = time.perf_counter()
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        if kind == "traced":
            tracer.begin_pass(i)
        t = time.perf_counter()
        p, iters = run_pass(hl, data)
        wall = time.perf_counter() - t
        if kind == "traced":
            tracer.end_pass()
        rec = {"kind": kind, "s": wall, "ops": len(p.ops),
               "misses": p.misses, "cg_iters": iters}
        if kind == "traced":
            rec["layers"] = tr.combine([tr.raw_layer_totals(
                [s for s in tracer.spans if s["pass"] == i])])
        passes.append(rec)
        i += 1
        if i % len(kinds):
            continue
        spent = time.perf_counter() - start
        walls = [q["s"] for q in passes if q["kind"] != "warmup"]
        if args.smoke or spent + statistics.median(walls) > args.share:
            break

    result = {"import_s": import_s, "setup_end": setup_end,
              "n": n, "systems": sizes, "passes": passes}
    if tracer and args.workload == "lift-sweep-n65":
        os.environ["HOPFLIFT_THREADS"] = "1"
        t = time.perf_counter()
        hl.convergence_sweep(data[1], data[2], sweep_widths(data[1].grid))
        result["sweep_serial_s"] = time.perf_counter() - t
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
