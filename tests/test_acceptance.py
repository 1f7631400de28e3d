"""Acceptance gate: each test prints one PASS/FAIL line with the measured
values next to the pinned tolerance.

Tolerances and resolutions are fixed here, not configurable: lowering any
of them is a contract change.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import hopflift as hl
from hopflift.errors import ChartExhausted
from hopflift.hodge import random_test_functions
from hopflift.lift import relative_phase
from hopflift import testmaps


def report(criterion, passed, detail):
    tag = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {tag} ({detail})")
    assert passed, f"{criterion}: {detail}"


def interior_max(grid, field):
    return float(np.abs(field.values[grid.cube_interior_mask()]).max())


def test_criterion_1_energy_identity():
    t0 = time.time()
    oracle = testmaps.lift_family_oracle(np.pi / 4, (1, 0, 0), (0, 1, 0))
    closed_form_exact = (0.25 * 2.0 + 0.25 * 2.0 == 1.0
                         and abs(oracle["energy_identity_gap"]) <= 1e-15)
    defects = {}
    for n in (33, 65):
        grid = hl.make_grid(n)
        uhat, u, eta = testmaps.gen_lift_family(grid, np.pi / 4, (1, 0, 0),
                                                (0, 1, 0))
        defects[n] = interior_max(grid, hl.energy_identity_defect(uhat, u, eta))
    elapsed = time.time() - t0
    shrink = defects[33] / defects[65]
    ok = (closed_form_exact and defects[65] <= 1e-3 and shrink >= 3.5
          and elapsed < 10.0)
    report("criterion-1 energy-identity", ok,
           f"closed-form exact={closed_form_exact}, "
           f"defect(n=65)={defects[65]:.3e} <= 1e-3, "
           f"shrink 33->65 = {shrink:.2f}x >= 3.5, {elapsed:.1f}s < 10s")


def test_criterion_2_roundtrip_lifting():
    t0 = time.time()
    grid = hl.make_grid(65)
    uhat0, u0, eta0 = testmaps.gen_lift_family(grid, np.pi / 4, (1, 0, 0),
                                               (0, 1, 0))
    uhat, rep = hl.lift(u0, eta0)
    phase_std = float(relative_phase(uhat, uhat0).std())
    elapsed = time.time() - t0
    ok = (phase_std <= 1e-3 and rep.projection_error <= 1e-3
          and rep.gauge_error <= 1e-3 and elapsed < 60.0)
    report("criterion-2 roundtrip-lifting", ok,
           f"phase stddev={phase_std:.3e} <= 1e-3, "
           f"projection={rep.projection_error:.3e} <= 1e-3, "
           f"gauge={rep.gauge_error:.3e} <= 1e-3, {elapsed:.1f}s < 60s")


def test_criterion_3_negative_control():
    t0 = time.time()
    grid = hl.make_grid(97)
    hog = testmaps.gen_hedgehog(grid)
    exact_rep = hl.exactness_defect(hog)
    target = 4.0 * np.pi
    flux_devs = {r: abs(f - target) / target
                 for r, f in exact_rep.flux_by_radius}
    fluxes_ok = (set(flux_devs) == {0.25, 0.5, 0.75}
                 and all(d < 0.01 for d in flux_devs.values()))
    refused = False
    try:
        hl.lift(hog, hl.VecField(grid, 1, np.zeros((97, 97, 97, 3))))
    except ChartExhausted:
        refused = True
    elapsed = time.time() - t0
    ok = (fluxes_ok and exact_rep.verdict == "singular" and refused
          and elapsed < 30.0)
    worst = max(flux_devs.values())
    report("criterion-3 negative-control", ok,
           f"flux deviation from 4pi <= {worst:.2%} < 1% at all radii, "
           f"verdict={exact_rep.verdict}, ChartExhausted={refused}, "
           f"{elapsed:.1f}s < 30s")


def test_criterion_4_canonical_gauge():
    t0 = time.time()
    grid = hl.make_grid(49)
    x1, x2, x3 = grid.coords()

    def bump(t, half=0.75):
        s = np.clip(np.abs(t) / half, 0.0, 1.0)
        out = np.zeros_like(t)
        inside = s < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
        return out

    psi = bump(x1) * bump(x2) * bump(x3)
    zero = np.zeros_like(psi)
    pot = hl.VecField(grid, 1, np.stack([zero, zero, psi], axis=-1))
    a0 = hl.VecField(grid, 1, hl.curl(pot).values)
    g_form = hl.curl(a0)

    a, _ = hl.canonical_gauge(g_form)
    diff = hl.VecField(grid, 1, a.values - a0.values)
    recovery = hl.l2_norm(diff) / hl.l2_norm(a0)

    na = hl.l2_norm(a)
    ortho = 0.0
    for psi_t in random_test_functions(grid, 20, seed=515):
        gpsi = hl.grad(hl.ScalarField(grid, psi_t))
        ortho = max(ortho, abs(hl.l2_inner(a, gpsi))
                    / (na * hl.l2_norm(gpsi)))
    minimality = hl.gauge_minimality_check(a)
    elapsed = time.time() - t0
    ok = (recovery <= 1e-3 and ortho <= 1e-6 and minimality <= 1e-6
          and elapsed < 120.0)
    report("criterion-4 canonical-gauge", ok,
           f"recovery={recovery:.3e} <= 1e-3, "
           f"orthogonality={ortho:.3e} <= 1e-6, "
           f"minimality={minimality:.3e} <= 1e-6, {elapsed:.1f}s < 120s")


def test_criterion_5_pointwise_exact_layer():
    t0 = time.time()
    worst = hl.frame_checks(np.pi / 4, 0.3, 1.1).max_defect()
    from hopflift.hopf import frame_sweep
    worst = max(worst, frame_sweep(1000, seed=2))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    report("criterion-5 frame-identities", ok,
           f"max defect over 10^3 points = {worst:.3e} <= 1e-9, "
           f"{elapsed:.2f}s < 1s")


def test_criterion_6_constraint_preserving_approximation():
    t0 = time.time()
    grid = hl.make_grid(65)
    _, u0, eta0 = testmaps.gen_lift_family(grid, np.pi / 4, (1, 0, 0),
                                           (0, 2, 0))
    h = grid.h
    reports = hl.convergence_sweep(u0, eta0, [8 * h, 4 * h, 2 * h])
    residuals = [r.constraint_residual for r in reports]
    du = [r.dist_u_w12 for r in reports]
    deta = [r.dist_eta_l2 for r in reports]
    elapsed = time.time() - t0
    ok = (all(res <= 5e-3 for res in residuals)
          and du[0] > du[1] > du[2] and deta[0] > deta[1] > deta[2]
          and elapsed < 300.0)
    report("criterion-6 constraint-approximation", ok,
           f"constraint residuals={[f'{r:.2e}' for r in residuals]} all "
           f"<= 5e-3, u distances {[f'{d:.3e}' for d in du]} decreasing, "
           f"eta distances {[f'{d:.3e}' for d in deta]} decreasing, "
           f"{elapsed:.0f}s < 300s")


def test_criterion_7_pointwise_norm_identities():
    t0 = time.time()
    grid = hl.make_grid(33)
    cases = {
        "constant": (testmaps.gen_constant(grid, (0, 0, 1)), 0.0),
        "family": (testmaps.gen_lift_family(
            grid, np.pi / 4, (1, 0, 0), (0, 1, 0))[1], 0.0),
        "family-skew": (testmaps.gen_lift_family(
            grid, 0.7, (1, 0.5, 0), (0, 1, -0.3))[1], 0.0),
        "hedgehog": (testmaps.gen_hedgehog(grid), 2.0 * grid.h),
        "planar-bump": (testmaps.gen_planar(grid, "gaussian-bump"), 0.0),
        "planar-winding": (testmaps.gen_planar(grid, "linear-winding"), 0.0),
    }
    worst_identity = 0.0
    worst_amgm = 0.0
    for _, (u, excl) in cases.items():
        rep = hl.pointwise_identities(u, exclude_radius=excl)
        worst_identity = max(worst_identity, rep.norm_identity_defect)
        worst_amgm = max(worst_amgm, rep.amgm_violation)
    elapsed = time.time() - t0
    ok = worst_identity <= 1e-10 and worst_amgm <= 1e-10 and elapsed < 10.0
    report("criterion-7 norm-and-amgm-identities", ok,
           f"worst identity defect={worst_identity:.3e} <= 1e-10, "
           f"worst AM-GM violation={worst_amgm:.3e} <= 1e-10 over "
           f"{len(cases)} generators, {elapsed:.1f}s < 10s")


def test_criterion_8_determinism(tmp_path, child_env):
    outputs = []
    for threads in ("1", "7"):
        path = tmp_path / f"selftest_{threads}.json"
        env = child_env(HOPFLIFT_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "hopflift", "selftest", "--n", "33",
             "--report", str(path)],
            env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1] and json.loads(outputs[0])["passed"]
    report("criterion-8 determinism", ok,
           f"selftest reports bit-identical across HOPFLIFT_THREADS "
           f"({len(outputs[0])} bytes)")
