"""hopflift benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

Run from the root of a source checkout.  Library workloads run in
``perfbench/worker.py`` processes; the CLI workload runs
``python -m hopflift`` children one at a time.  Every pass is checked
for correctness.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.  The last stdout
line is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

import inputs  # noqa: E402

#: the box has two cores: the sweep pool may use both, BLAS and OpenMP
#: stay serial, and at most one child runs at a time
THREAD_CAPS = {"HOPFLIFT_THREADS": "2", "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1"}

#: fresh processes per --trace 0 run of a library workload; each one is
#: a set-up sample and runs its share of the timed passes
SETUPS = 2

WORKLOADS = ("gauge-bump-n65", "lift-sweep-n65", "cli-lift-n97")
CLI_N = 97
SMOKE_CLI_N = 81

END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

CLI_COMMANDS = ("gen", "pullback", "check", "lift", "verify", "project",
                "gauge-of-lift")

PER_LAYER = {
    "solvers.cg_iters": "count", "solvers.cg_solves": "count",
    "solvers.cg_s": "s", "solvers.cg_ms_per_iter": "ms",
    "solvers.cg_unknowns": "count", "solvers.cg_nnz": "count",
    "solvers.cg_bytes_per_iter": "B", "solvers.assembly_s": "s",
    "hodge.gauge_s": "s", "hodge.self_s": "s",
    "lift.calls": "count", "lift.lift_s": "s", "lift.self_s": "s",
    "lift.verify_s": "s",
    "approx.approximate_calls": "count", "approx.approximate_s": "s",
    "approx.self_s": "s", "approx.sweep_s": "s",
    "approx.sweep_s_serial": "s",
    "fields.mollify_s": "s", "fields.stencil_calls": "count",
    "fields.stencil_s": "s",
    "hopf.gauge_of_lift_calls": "count", "hopf.gauge_of_lift_s": "s",
    "hopf.section_s": "s",
    "pullback.area_form_s": "s", "pullback.exactness_s": "s",
    "pullback.identities_s": "s", "pullback.flux_s": "s",
    "fileio.read_s": "s", "fileio.write_s": "s", "fileio.bytes": "B",
    "cli.import_s": "s",
    **{f"cli.{c}_s": "s" for c in CLI_COMMANDS},
    "trace.overhead_frac": "ratio",
}


class Run:
    """Samples and failures gathered over one benchmark run."""

    def __init__(self, workload, seed, smoke):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.attempted = 0
        self.failed = 0
        self.setup = []
        self.plain = []
        self.traced = []
        self.layers = []
        self.extra = {}
        self.sizes = {}

    def record(self, label, ops, misses, cg_iters):
        """Count one pass's operations and print its misses; a seed-0
        pass that solved with other than the pinned CG iterations fails."""
        misses = dict(misses)
        pinned = inputs.PINNED_CG_ITERS[self.workload]
        if (self.seed == 0 and not self.smoke and not misses
                and cg_iters != pinned):
            misses["cg_iters"] = [f"{cg_iters} != pinned {pinned}"]
        self.attempted += ops
        self.failed += len(misses)
        for op, whats in misses.items():
            for what in whats:
                print(f"FAIL {label} {op}: {what}", flush=True)
        return not misses


def child_env():
    env = dict(os.environ, **THREAD_CAPS)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# library workloads


def run_library(run, seconds, trace):
    procs = 1 if trace or run.smoke else SETUPS
    for k in range(procs):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", run.workload, "--seed", str(run.seed),
               "--share", repr(seconds / procs), "--trace", str(trace)]
        if run.smoke:
            cmd.append("--smoke")
        launched = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              stdout=subprocess.PIPE, timeout=170)
        if proc.returncode != 0:
            raise SystemExit(f"worker exited with {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        run.setup.append(res["setup_end"] - launched)
        run.extra.setdefault("import_s", []).append(res["import_s"])
        if "sweep_serial_s" in res:
            run.extra.setdefault("sweep_serial_s", []).append(
                res["sweep_serial_s"])
        run.sizes = {"n": res["n"], "field_bytes": 3 * 8 * res["n"] ** 3,
                     "cg_systems": res["systems"]}
        for i, p in enumerate(res["passes"]):
            ok = run.record(f"process {k} pass {i} ({p['kind']})", p["ops"],
                            p["misses"], p["cg_iters"])
            if ok and p["kind"] == "plain":
                run.plain.append(p["s"])
            elif ok and p["kind"] == "traced":
                run.traced.append(p["s"])
                run.layers.append(p["layers"])


# ---------------------------------------------------------------------------
# CLI workload


def _vec(v):
    return ",".join(repr(float(c)) for c in v)


def cli_steps(n, seed):
    """(command, argv, expected exit code) for one pass."""
    t0, a, b = inputs.liftfam_params(seed)
    lf_u, lf_eta, lf_lift = "lf_u.h3f", "lf_eta.h3f", "lf_lift.h3f"
    return [
        ("gen", ["gen", "--map", "liftfam", "--n", str(n), f"--t0={t0!r}",
                 f"--a={_vec(a)}", f"--b={_vec(b)}",
                 "--out-prefix", "lf_"], 0),
        ("pullback", ["pullback", "--in", lf_u, "--out", "lf_D.h3f"], 0),
        ("check", ["check", "--in", lf_u, "--report", "lf_check.json"], 0),
        ("lift", ["lift", "--u", lf_u, "--eta", lf_eta, "--out", lf_lift,
                  "--report", "lf_lift.json"], 0),
        ("verify", ["verify", "--u", lf_u, "--eta", lf_eta, "--uhat", lf_lift,
                    "--report", "lf_verify.json"], 0),
        ("project", ["project", "--in", lf_lift, "--out", "lf_proj.h3f"], 0),
        ("gauge-of-lift", ["gauge-of-lift", "--in", lf_lift,
                           "--out", "lf_gol.h3f"], 0),
        ("gen", ["gen", "--map", "hedgehog", "--n", str(n),
                 "--out-prefix", "hh_"], 0),
        ("check", ["check", "--in", "hh_u.h3f", "--report",
                   "hh_check.json"], 2),
        ("lift", ["lift", "--u", "hh_u.h3f", "--eta", lf_eta,
                  "--out", "hh_lift.h3f"], 2),
    ]


def _read_h3f(path):
    """(n, tag, values) of an H3F1 file, values in file order."""
    import numpy as np
    with open(path, "rb") as fh:
        _, n, ncomp, tag = fh.readline().decode("ascii").split()
        vals = np.frombuffer(fh.read(), dtype="<f8")
    n, ncomp = int(n), int(ncomp)
    return n, tag, vals.reshape(n, n, n, ncomp)


def _load_json(path):
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def gate_cli(d, n, steps, codes):
    """(misses keyed by step, lift CG iterations) of one CLI pass run in
    directory d."""
    p = inputs.Pass()
    check = p.check

    for i, ((name, _, want), got) in enumerate(zip(steps, codes)):
        check(f"{i}:{name}", got == want, f"exit code {got} != {want}")
    try:
        iters = _gate_cli_outputs(d, n, check)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        check("outputs", False, f"unreadable: {type(exc).__name__}: {exc}")
        iters = 0
    return p.misses, iters


def _gate_cli_outputs(d, n, check):
    """Check the files and reports of one pass; returns the lift's CG
    iterations."""
    import numpy as np
    files = {}
    for f, tag in (("lf_u", "S2"), ("lf_eta", "VEC1"), ("lf_uhat", "S3"),
                   ("lf_D", "VEC2"), ("lf_lift", "S3"), ("lf_proj", "S2"),
                   ("lf_gol", "VEC1"), ("hh_u", "S2")):
        fn, ftag, files[f] = _read_h3f(os.path.join(d, f + ".h3f"))
        check(f, (fn, ftag) == (n, tag), f"header {fn} {ftag} != {n} {tag}")
    lf_check = _load_json(os.path.join(d, "lf_check.json"))
    hh_check = _load_json(os.path.join(d, "hh_check.json"))
    lift = _load_json(os.path.join(d, "lf_lift.json"))
    ver = _load_json(os.path.join(d, "lf_verify.json"))
    tol = inputs.LIFT_ERROR_TOL
    check("2:check", lf_check["verdict"] == "exact",
          f"liftfam verdict {lf_check['verdict']} != exact")
    check("8:check", hh_check["verdict"] == "singular",
          f"hedgehog verdict {hh_check['verdict']} != singular")
    check("3:lift", lift["converged"] is True, "lift not converged")
    for key in ("projection_error", "gauge_error"):
        check("3:lift", lift[key] <= tol, f"{key}={lift[key]:.3e} > {tol}")
        check("4:verify", ver[key] == lift[key],
              f"{key} {ver[key]!r} != lift {lift[key]!r}")
    proj = np.sqrt(((files["lf_proj"] - files["lf_u"]) ** 2).sum(-1)).max()
    check("5:project", proj <= tol, f"|h(uhat) - u| max {proj:.3e} > {tol}")
    # trapezoid-weighted relative L2, as lift's gauge_error
    c = np.ones(n)
    c[0] = c[-1] = 0.5
    w = c[:, None, None] * c[None, :, None] * c[None, None, :]
    diff = files["lf_gol"] - files["lf_eta"]
    gerr = np.sqrt((w * (diff ** 2).sum(-1)).sum()
                   / (w * (files["lf_eta"] ** 2).sum(-1)).sum())
    check("6:gauge-of-lift", abs(gerr - lift["gauge_error"])
          <= 1e-9 * lift["gauge_error"] + 1e-15,
          f"relative L2 to eta {gerr:.6e} != lift gauge_error "
          f"{lift['gauge_error']:.6e}")
    return lift["iterations"]


def cli_pass(run, n, label, traced):
    """One pass in a fresh directory; returns (wall seconds, layer totals
    or None)."""
    import tracer as tr
    d = os.path.join(WORK, f"cli-{os.getpid()}-{label}")
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    try:
        steps = cli_steps(n, run.seed)
        codes, walls, spans_of = [], {}, []
        for i, (name, argv, _) in enumerate(steps):
            if traced:
                spans = os.path.join(d, f"spans-{i}.json")
                cmd = [sys.executable, os.path.join(HERE, "launch.py"),
                       spans] + argv
            else:
                cmd = [sys.executable, "-m", "hopflift"] + argv
            t = time.perf_counter()
            proc = subprocess.run(cmd, cwd=d, env=child_env(), timeout=170,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
            walls[name] = walls.get(name, 0.0) + time.perf_counter() - t
            codes.append(proc.returncode)
            if traced:
                spans_of.append(_load_json(spans))
        wall = sum(walls.values())
        misses, iters = gate_cli(d, n, steps, codes)
        run.sizes = {"n": n, "phase_unknowns": n ** 3, "h3f_bytes": {
            f: os.path.getsize(os.path.join(d, f))
            for f in sorted(os.listdir(d)) if f.endswith(".h3f")}}
    finally:
        shutil.rmtree(d, ignore_errors=True)
    ok = run.record(f"pass {label}", len(codes), misses, iters)
    if not ok:
        return None, None
    if not traced:
        return wall, None
    layers = tr.combine([tr.raw_layer_totals(s["spans"]) for s in spans_of])
    layers["cli.import_s"] = statistics.median(s["import_s"] for s in spans_of)
    for c in CLI_COMMANDS:
        layers[f"cli.{c}_s"] = walls.get(c, 0.0)
    return wall, layers


def run_cli(run, seconds, trace):
    n = SMOKE_CLI_N if run.smoke else CLI_N
    # set-up of a cold-process pipeline is a cold import; repeating it
    # also warms the page cache and byte-code for the timed passes
    for _ in range(1 if trace or run.smoke else SETUPS):
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import hopflift"],
                              cwd=ROOT, env=child_env(), timeout=170)
        run.setup.append(time.perf_counter() - t)
        if proc.returncode != 0:
            raise SystemExit("cannot import hopflift")
    kinds = (False, True) if trace else (False,)
    start = time.perf_counter()
    k = 0
    while True:
        for traced in kinds:
            wall, layers = cli_pass(run, n, k, traced)
            k += 1
            if wall is not None:
                (run.traced if traced else run.plain).append(wall)
            if layers is not None:
                run.layers.append(layers)
        spent = time.perf_counter() - start
        done = run.plain + run.traced
        if (run.smoke or not done
                or spent + statistics.median(done) > seconds):
            break


# ---------------------------------------------------------------------------
# reporting


def _lscpu_caches():
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    caches = {}
    for line in out.splitlines():
        key, _, val = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip()] = val.strip()
    return caches


def _git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(run, seconds, trace):
    import numpy as np
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"][
                "blas"]["version"]
        except (KeyError, TypeError):
            return None

    return {
        "workload": run.workload, "seed": run.seed, "seconds": seconds,
        "trace": trace, "smoke": run.smoke,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "thread_caps": THREAD_CAPS,
        "load": "closed loop, one runner process, one child at a time",
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "openblas_numpy": blas(np),
        "openblas_scipy": blas(scipy), "caches": _lscpu_caches(),
        "git_commit": _git_commit(), "sizes": run.sizes,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run):
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    values = {"pass_s": statistics.median(run.plain),
              "setup_s": statistics.median(run.setup),
              "peak_rss_mb": rss_mb}
    out = {k: metric(v, END_TO_END[k]) for k, v in values.items()}
    counts = {"pass_s": f"median of {len(run.plain)} passes",
              "setup_s": f"median of {len(run.setup)} set-ups",
              "peak_rss_mb": "max over child processes"}
    for k, v in out.items():
        print(f"{k:<14} {v['value']:12.4f} {v['unit']:<6} ({counts[k]})")
    print("samples " + json.dumps({"pass_s": run.plain, "setup_s": run.setup}))
    return out


def per_layer(run):
    out = {}
    for name, unit in PER_LAYER.items():
        vals = [layers.get(name, 0) for layers in run.layers]
        out[name] = metric(statistics.median(vals), unit)
    out["trace.overhead_frac"]["value"] = (
        statistics.median(run.traced) / statistics.median(run.plain) - 1.0)
    out["approx.sweep_s_serial"]["value"] = statistics.median(
        run.extra.get("sweep_serial_s", [0.0]))
    if "import_s" in run.extra:
        out["cli.import_s"]["value"] = statistics.median(
            run.extra["import_s"])
    for name, m in out.items():
        print(f"{name:<28} {m['value']:16.6g} {m['unit']}"
              f"  (median of {len(run.layers)} traced passes)")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="small n, one pass per process, for the "
                         "benchmark's own tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hopflift", "__init__.py")):
        print(f"no hopflift sources under {SRC}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.smoke)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}",
          flush=True)
    if args.workload == "cli-lift-n97":
        run_cli(run, args.seconds, args.trace)
    else:
        run_library(run, args.seconds, args.trace)

    correct = (run.failed == 0 and bool(run.plain)
               and bool(run.layers or not args.trace))
    metrics = {}
    if correct:
        metrics = per_layer(run) if args.trace else end_to_end(run)
    print(f"fail_frac      {run.failed / max(run.attempted, 1):12.4f} ratio  "
          f"({run.failed} of {run.attempted} operations)")
    print("provenance " + json.dumps(provenance(run, args.seconds,
                                                args.trace)))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
