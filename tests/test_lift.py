import sys

import numpy as np
import pytest

from hopflift.errors import ChartExhausted, NotClosed, NotConverged
from hopflift.fields import VecField, l2_norm, make_grid
from hopflift.hopf import gauge_of_lift, hopf
from hopflift.lift import (LiftConfig, default_pole_candidates, lift,
                           relative_phase, select_pole, verify_lift)
from hopflift import fields, testmaps


def family(grid, t0=np.pi / 4, a=(1, 0, 0), b=(0, 1, 0)):
    return testmaps.gen_lift_family(grid, t0, a, b)


class TestSelectPole:
    def test_constant_map_gets_antipode(self):
        grid = make_grid(9)
        u = testmaps.gen_constant(grid, (0, 0, 1))
        assert np.allclose(select_pole(u)[0], (0, 0, -1))

    def test_upper_hemisphere_range_gets_lower_pole(self):
        grid = make_grid(17)
        u = testmaps.gen_planar(grid, "gaussian-bump")
        pole, _ = select_pole(u)
        assert pole[2] < 0.0

    def test_candidates_are_unit(self):
        c = default_pole_candidates()
        assert c.shape == (18, 3)
        assert np.abs(np.linalg.norm(c, axis=-1) - 1.0).max() < 1e-12

    def test_sphere_covering_map_exhausts_charts(self):
        grid = make_grid(33)
        with pytest.raises(ChartExhausted):
            select_pole(testmaps.gen_hedgehog(grid))

    def test_tie_break_first_in_order(self, monkeypatch):
        grid = make_grid(9)
        u = testmaps.gen_constant(grid, (0, 0, 1))
        cands = np.array([(1.0, 0, 0), (-1.0, 0, 0)])
        monkeypatch.setattr(sys.modules["hopflift.lift"],
                            "default_pole_candidates", lambda: cands)
        pole, clearance = select_pole(u)
        assert np.allclose(pole, (1, 0, 0))
        assert clearance == np.arccos(0.0)


@pytest.mark.parametrize("nodes", [5, 1 << 14])
@pytest.mark.parametrize("n", [3, 9, 33])
def test_blocked_pole_scan_matches_one_shot(n, nodes, monkeypatch):
    # every candidate appears twice, so each min angle is a tie that the
    # first copy must win
    lift_mod = sys.modules["hopflift.lift"]
    monkeypatch.setattr(fields, "NODE_BLOCK", nodes)
    u = testmaps.gen_planar(make_grid(n), "gaussian-bump")
    cands = np.concatenate([default_pole_candidates()] * 2)
    monkeypatch.setattr(lift_mod, "default_pole_candidates", lambda: cands)
    pts = u.values.reshape(-1, 3)
    want = np.arccos(np.clip((pts @ cands.T).max(axis=0), -1.0, 1.0))
    assert np.array_equal(lift_mod._min_angles(pts, cands), want)
    best = int(np.argmax(want))
    assert best < 18
    pole, clearance = select_pole(u)
    assert np.array_equal(pole, cands[best])
    assert clearance == want[best]


@pytest.mark.parametrize("n", [9, 17, 33])
@pytest.mark.parametrize("which", ["liftfam", "bump", "winding", "constant"])
def test_min_pole_distance_is_the_dense_min(which, n):
    # the clearance of select_pole's blocked scan is the dense min angle
    # between u and the chosen pole, to the bit; closed_tol is lifted so
    # that a zero eta is accepted for the maps with no closed-form gauge
    grid = make_grid(n)
    eta = VecField(grid, 1, np.zeros((n, n, n, 3)))
    if which == "liftfam":
        _, u, eta = testmaps.gen_lift_family(grid, 0.8, (1.0, 0.5, 0.0),
                                             (0.0, 1.0, 0.3))
    elif which == "constant":
        u = testmaps.gen_constant(grid, (0.6, 0.0, 0.8))
    else:
        kind = "gaussian-bump" if which == "bump" else "linear-winding"
        u = testmaps.gen_planar(grid, kind)
    _, rep = lift(u, eta, LiftConfig(closed_tol=1e9))
    pts = u.values.reshape(-1, 3)
    dense = np.arccos(np.clip(pts @ np.asarray(rep.pole_used), -1.0, 1.0))
    assert rep.min_pole_distance == float(dense.min())


class TestLift:
    def test_constant_map_zero_gauge(self):
        grid = make_grid(9)
        u = testmaps.gen_constant(grid, (0, 0, 1))
        eta = VecField(grid, 1, np.zeros((9, 9, 9, 3)))
        uhat, rep = lift(u, eta)
        assert rep.projection_error <= 1e-12
        assert rep.gauge_error <= 1e-12
        assert np.abs(hopf(uhat.values) - (0, 0, 1)).max() <= 1e-12

    def test_roundtrip_family(self):
        grid = make_grid(33)
        uhat0, u0, eta0 = family(grid)
        uhat, rep = lift(u0, eta0)
        bound = 10.0 * grid.h ** 2
        assert rep.projection_error <= bound
        assert rep.gauge_error <= bound
        assert relative_phase(uhat, uhat0).std() <= bound

    def test_non_closed_eta_rejected(self):
        grid = make_grid(33)
        _, u0, eta0 = family(grid)
        x1, x2, _ = grid.coords()
        zero = np.zeros_like(x2)
        bad = VecField(grid, 1, eta0.values
                       + np.stack([0.5 * x2, zero, zero], axis=-1))
        with pytest.raises(NotClosed):
            lift(u0, bad)

    def test_sphere_covering_map_rejected(self):
        grid = make_grid(33)
        u = testmaps.gen_hedgehog(grid)
        eta = VecField(grid, 1, np.zeros((33, 33, 33, 3)))
        with pytest.raises(ChartExhausted):
            lift(u, eta)

    def test_gauge_shift_moves_phase(self):
        # eta + 2 grad psi lifts to e^{i psi} times the old lift, up to
        # the anchored constant
        grid = make_grid(33)
        _, u0, eta0 = family(grid)
        x1, x2, x3 = grid.coords()
        psi = 0.3 * np.sin(x1) * x2 + 0.2 * x3
        from hopflift.fields import ScalarField, grad
        shifted = VecField(
            grid, 1, eta0.values + 2.0 * grad(ScalarField(grid, psi)).values)
        uhat_a, _ = lift(u0, eta0)
        uhat_b, _ = lift(u0, shifted)
        delta = relative_phase(uhat_b, uhat_a)
        anchored = psi - psi.ravel()[grid.origin_index()]
        anchored = anchored - anchored.mean()
        assert np.abs(delta - anchored).max() <= 30.0 * grid.h ** 2

    def test_relative_phase_of_lifts_on_other_grids_refused(self):
        uhat9 = family(make_grid(9))[0]
        uhat5 = family(make_grid(5))[0]
        for pair in ((uhat9, uhat5), (uhat5, uhat9)):
            with pytest.raises(ValueError, match="different grids"):
                relative_phase(*pair)

    def test_solver_budget_raises_with_partial(self):
        grid = make_grid(17)
        _, u0, eta0 = family(grid)
        with pytest.raises(NotConverged) as info:
            lift(u0, eta0, LiftConfig(max_iters=2, rel_tol=1e-14))
        uhat, rep = info.value.result
        assert rep.iterations == 2
        assert rep.projection_error <= 1e-12  # projection exact regardless

    @pytest.mark.parametrize("cfg", [
        LiftConfig(rel_tol=2.0), LiftConfig(rel_tol=0.0),
        LiftConfig(rel_tol=float("nan")), LiftConfig(max_iters=0),
        LiftConfig(max_iters=-5), LiftConfig(closed_tol=float("nan")),
        LiftConfig(closed_tol=float("inf")), LiftConfig(closed_tol=0.0),
        LiftConfig(closed_tol=-1.0), LiftConfig(max_iters=0.5),
        LiftConfig(max_iters=2.5), LiftConfig(max_iters=float("inf"))])
    def test_bad_solver_configuration_rejected(self, cfg):
        grid = make_grid(9)
        _, u0, eta0 = family(grid)
        with pytest.raises(ValueError):
            cfg.resolved(grid)
        with pytest.raises(ValueError):
            lift(u0, eta0, cfg)

    def test_energy_defect_bounded(self):
        grid = make_grid(33)
        uhat0, u0, eta0 = family(grid)
        _, rep = lift(u0, eta0)
        from hopflift.fields import component_partials
        duhat = component_partials(uhat0.values, grid.h)
        scale = np.einsum("...jc,...jc->...", duhat, duhat).max()
        assert rep.energy_defect <= 20.0 * grid.h ** 2 * max(scale, 1.0)


class TestLiftMemory:
    """tracemalloc peaks at n = 33 on the skew lift family, in n^3
    doubles, outputs included; each bound is the measured peak plus
    10 %."""

    @pytest.fixture(scope="class")
    def data(self):
        return family(make_grid(33), 0.8, (1, 0.5, 0), (0, 1, 0.3))

    def test_peak_allocation_bounded(self, data, alloc_peak):
        # the phase operator is assembled straight into CSR arrays, the
        # partials are taken a block of x1-rows at a time, alpha reuses
        # the section gauge's buffer, no section is held through the
        # phase solve, CG keeps its residual in the right-hand side's
        # buffer, the rebuilt section is turned in its own blocks, and
        # the pole scan keeps a running max: the peak is the phase
        # solve's (measured 15.7, 14.6 with one CG thread; 16.6 while CG
        # copied its right-hand side, 20.6 while the section was held)
        _, u0, eta0 = data
        assert alloc_peak(lambda: lift(u0, eta0)) <= 17.2

    def test_verify_peak_bounded(self, data, alloc_peak):
        # the report's differences reuse their first operand's buffer
        # (measured 6.0; 7.1 with fresh difference arrays)
        uhat0, u0, eta0 = data
        assert alloc_peak(lambda: verify_lift(u0, eta0, uhat0)) <= 6.6


class TestVerify:
    def test_reproduces_lift_numbers(self):
        grid = make_grid(17)
        _, u0, eta0 = family(grid)
        uhat, rep = lift(u0, eta0)
        ver = verify_lift(u0, eta0, uhat)
        assert ver.projection_error == rep.projection_error
        assert ver.gauge_error == rep.gauge_error
        assert ver.energy_defect == rep.energy_defect

    def test_lift_reports_without_verify_lift(self, monkeypatch):
        # tracers wrap the public name to time verification, so the
        # lift's own report must not go through it
        def refuse(*args):
            raise AssertionError("lift called verify_lift")
        monkeypatch.setattr(sys.modules["hopflift.lift"], "verify_lift",
                            refuse)
        _, u0, eta0 = family(make_grid(9))
        lift(u0, eta0)

    def test_generating_lift_passes(self):
        grid = make_grid(33)
        uhat0, u0, eta0 = family(grid)
        ver = verify_lift(u0, eta0, uhat0)
        bound = 10.0 * grid.h ** 2
        assert ver.projection_error <= bound
        assert ver.gauge_error <= bound

    def test_antipodal_map_caught(self):
        grid = make_grid(17)
        uhat0, u0, eta0 = family(grid)
        from hopflift.fields import SphereMapField
        flipped = SphereMapField(grid, -u0.values)
        ver = verify_lift(flipped, eta0, uhat0)
        assert abs(ver.projection_error - 2.0) < 1e-6

    def test_idempotent_bit_exact(self):
        grid = make_grid(17)
        uhat0, u0, eta0 = family(grid)
        first = verify_lift(u0, eta0, uhat0)
        second = verify_lift(u0, eta0, uhat0)
        assert first.projection_error == second.projection_error
        assert first.gauge_error == second.gauge_error
        assert first.energy_defect == second.energy_defect

    def test_global_phase_invariance(self):
        grid = make_grid(17)
        uhat0, u0, eta0 = family(grid)
        c, s = np.cos(0.83), np.sin(0.83)
        v = uhat0.values
        rotated = np.stack([
            v[..., 0] * c - v[..., 1] * s, v[..., 0] * s + v[..., 1] * c,
            v[..., 2] * c - v[..., 3] * s, v[..., 2] * s + v[..., 3] * c,
        ], axis=-1)
        from hopflift.fields import LiftField
        a = verify_lift(u0, eta0, uhat0)
        b = verify_lift(u0, eta0, LiftField(grid, rotated))
        assert abs(a.projection_error - b.projection_error) <= 1e-12
        assert abs(a.gauge_error - b.gauge_error) <= 1e-12
        assert abs(a.energy_defect - b.energy_defect) <= 1e-10


class TestIntegrationWithGauge:
    def test_canonical_gauge_feeds_lift(self):
        # the full positive pipeline on a map with nonzero pullback:
        # D(u) -> canonical gauge -> lift, all tolerances respected
        from hopflift.hodge import canonical_gauge
        from hopflift.pullback import pullback_area_form
        grid = make_grid(33)
        u = testmaps.gen_planar(grid, "linear-winding")
        eta, _ = canonical_gauge(pullback_area_form(u))
        uhat, rep = lift(u, eta)
        assert rep.projection_error <= 1e-12
        assert rep.alpha_closedness <= 50.0 * grid.h ** 2
        assert rep.gauge_error <= 0.05
        recovered = gauge_of_lift(uhat)
        diff = VecField(grid, 1, recovered.values - eta.values)
        assert l2_norm(diff) / l2_norm(eta) == rep.gauge_error
