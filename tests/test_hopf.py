import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopflift.errors import BadLatitude, NotTangent, NotUnit, TooCloseToPole
from hopflift.fields import LiftField, ScalarField, VecField, grad, make_grid
from hopflift.hopf import (energy_identity_defect, frame_checks, frame_sweep,
                           gauge_of_lift, hopf, hopf_jacobian, stereo_section,
                           theta_at, vertical_field)
from hopflift import testmaps

unit4 = st.tuples(*[st.floats(-1, 1) for _ in range(4)]).filter(
    lambda q: 0.1 < sum(c * c for c in q) ** 0.5).map(
    lambda q: tuple(c / sum(x * x for x in q) ** 0.5 for c in q))


class TestHopfPointwise:
    def test_pinned_values(self):
        assert np.allclose(hopf((1, 0, 0, 0)), (0, 0, 1), atol=1e-15)
        assert np.allclose(hopf((0, 0, 1, 0)), (0, 0, -1), atol=1e-15)
        r = 1 / np.sqrt(2)
        assert np.allclose(hopf((r, 0, r, 0)), (1, 0, 0), atol=1e-15)

    @given(q=unit4, phase=st.floats(0, 2 * np.pi))
    @settings(max_examples=200, deadline=None)
    def test_circle_invariance(self, q, phase):
        q = np.asarray(q)
        c, s = np.cos(phase), np.sin(phase)
        rotated = np.array([q[0] * c - q[1] * s, q[0] * s + q[1] * c,
                            q[2] * c - q[3] * s, q[2] * s + q[3] * c])
        assert np.abs(hopf(rotated) - hopf(q)).max() < 1e-14

    @given(q=unit4)
    @settings(max_examples=200, deadline=None)
    def test_lands_on_sphere(self, q):
        assert abs(np.linalg.norm(hopf(np.asarray(q))) - 1.0) < 1e-14

    def test_rejects_off_sphere(self):
        with pytest.raises(NotUnit):
            hopf((1.0, 1.0, 0.0, 0.0))

    def test_pullback_of_area_form_is_twice_dtheta(self):
        # the identity that makes gauge phases integrable: on tangent
        # pairs, the area form pulled through dh equals
        # 4(dx1^dx2 + dx3^dx4)
        rng = np.random.default_rng(8)
        for _ in range(100):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            v = rng.normal(size=4)
            v -= (v @ q) * q
            w = rng.normal(size=4)
            w -= (w @ q) * q
            jac = hopf_jacobian(q)
            lhs = hopf(q) @ np.cross(jac @ v, jac @ w)
            rhs = 4.0 * ((v[0] * w[1] - v[1] * w[0])
                         + (v[2] * w[3] - v[3] * w[2]))
            assert abs(lhs - rhs) < 1e-12


class TestTheta:
    def test_pinned_value(self):
        assert theta_at((1, 0, 0, 0), (0, 1, 0, 0)) == 1.0

    @given(q=unit4)
    @settings(max_examples=100, deadline=None)
    def test_vertical_pairing_is_one(self, q):
        q = np.asarray(q)
        assert abs(theta_at(q, vertical_field(q)) - 1.0) < 1e-12

    def test_horizontal_gives_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            v = rng.normal(size=4)
            v -= (v @ q) * q
            iq = vertical_field(q)
            v -= (v @ iq) * iq
            assert abs(theta_at(q, v)) < 1e-12

    def test_rejects_non_tangent(self):
        with pytest.raises(NotTangent):
            theta_at((1, 0, 0, 0), (1, 0, 0, 0))


class TestSection:
    def test_north_pole_roundtrip(self):
        s = stereo_section((0.0, 0.0, 1.0))
        assert np.abs(hopf(s) - (0, 0, 1)).max() < 1e-12

    def test_roundtrip_sweep(self):
        rng = np.random.default_rng(12)
        p = rng.normal(size=(10000, 3))
        p /= np.linalg.norm(p, axis=-1, keepdims=True)
        pole = np.array([0.0, 0.0, -1.0])
        p = p[np.arccos(np.clip(p @ pole, -1, 1)) >= 0.2]
        s = stereo_section(p)
        assert np.abs(hopf(s) - p).max() <= 1e-12
        assert np.abs(np.linalg.norm(s, axis=-1) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("pole", [
        (0.0, 0.0, -1.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0),
        (0.3, -0.4, np.sqrt(1 - 0.25))])
    def test_roundtrip_any_pole(self, pole):
        rng = np.random.default_rng(13)
        p = rng.normal(size=(2000, 3))
        p /= np.linalg.norm(p, axis=-1, keepdims=True)
        pole_arr = np.asarray(pole)
        p = p[np.arccos(np.clip(p @ pole_arr, -1, 1)) >= 0.2]
        s = stereo_section(p, pole)
        assert np.abs(hopf(s) - p).max() <= 1e-12

    def test_at_pole_rejected(self):
        with pytest.raises(TooCloseToPole):
            stereo_section((0.0, 0.0, -1.0))

    def test_smoothness_near_cut_boundary(self):
        # values at nearby admissible points stay close: no hidden branch
        angles = np.linspace(0.06, 0.1, 50)
        pts = np.stack([np.sin(angles), np.zeros_like(angles),
                        -np.cos(angles)], axis=-1)
        s = stereo_section(pts)
        steps = np.linalg.norm(np.diff(s, axis=0), axis=-1)
        assert steps.max() < 0.05


class TestFrame:
    def test_pinned_chart_point(self):
        rep = frame_checks(np.pi / 4, 0.3, 1.1)
        assert rep.max_defect() <= 1e-10

    def test_sweep(self):
        assert frame_sweep(1000, seed=3) <= 1e-9

    def test_theta_against_frame(self):
        rep = frame_checks(np.pi / 4, 0.0, 0.0)
        assert rep.theta_tau1 <= 1e-14
        assert rep.theta_tau23 <= 1e-14

    def test_degenerate_latitude_rejected(self):
        with pytest.raises(BadLatitude):
            frame_checks(0.0, 0.0, 0.0)
        with pytest.raises(BadLatitude):
            frame_checks(np.pi / 2, 0.0, 0.0)


class TestGaugeOfLift:
    def test_constant_lift(self):
        grid = make_grid(9)
        vals = np.zeros((9, 9, 9, 4))
        vals[..., 0] = 0.6
        vals[..., 2] = 0.8
        eta = gauge_of_lift(LiftField(grid, vals))
        assert np.abs(eta.values).max() == 0.0

    def test_split_phase_family(self):
        # uhat = (e^{i x1}, e^{i x2})/sqrt2 has gauge (1, 1, 0)
        grid = make_grid(33)
        uhat, _, _ = testmaps.gen_lift_family(grid, np.pi / 4, (1, 0, 0),
                                              (0, 1, 0))
        eta = gauge_of_lift(uhat)
        target = np.array([1.0, 1.0, 0.0])
        err = np.abs(eta.values - target).max()
        assert err <= 10.0 * grid.h ** 2

    def test_phase_shift_law_second_order(self):
        # gauge(e^{i psi} uhat) - gauge(uhat) - 2 grad psi = O(h^2)
        errs = []
        for n in (17, 33):
            grid = make_grid(n)
            uhat, _, _ = testmaps.gen_lift_family(grid, 0.8, (1, 0, 0),
                                                  (0, 1, 0))
            x1, x2, x3 = grid.coords()
            psi = np.sin(x1 + 0.5 * x2) * x3
            c, s = np.cos(psi), np.sin(psi)
            v = uhat.values
            shifted = np.stack([
                v[..., 0] * c - v[..., 1] * s, v[..., 0] * s + v[..., 1] * c,
                v[..., 2] * c - v[..., 3] * s, v[..., 2] * s + v[..., 3] * c,
            ], axis=-1)
            lhs = gauge_of_lift(LiftField(grid, shifted)).values
            rhs = gauge_of_lift(uhat).values + \
                2.0 * grad(ScalarField(grid, psi)).values
            interior = grid.cube_interior_mask()
            errs.append(np.abs(lhs - rhs)[interior].max())
        assert errs[0] / errs[1] > 3.0


class TestEnergyIdentity:
    def test_family_defect_second_order(self):
        vals = {}
        for n in (33, 65):
            grid = make_grid(n)
            uhat, u, eta = testmaps.gen_lift_family(grid, np.pi / 4,
                                                    (1, 0, 0), (0, 1, 0))
            defect = energy_identity_defect(uhat, u, eta)
            vals[n] = np.abs(defect.values[grid.cube_interior_mask()]).max()
        assert vals[65] <= 1e-3
        assert vals[33] / vals[65] >= 3.5

    def test_constant_lift_zero(self):
        grid = make_grid(9)
        vals = np.zeros((9, 9, 9, 4))
        vals[..., 3] = 1.0
        uhat = LiftField(grid, vals)
        u = testmaps.gen_constant(grid, hopf(np.array([0.0, 0, 0, 1])))
        eta = VecField(grid, 1, np.zeros((9, 9, 9, 3)))
        assert np.abs(energy_identity_defect(uhat, u, eta).values).max() == 0.0

    def test_doubled_gauge_breaks_identity(self):
        grid = make_grid(17)
        uhat, u, eta = testmaps.gen_lift_family(grid, np.pi / 4, (1, 0, 0),
                                                (0, 1, 0))
        doubled = VecField(grid, 1, 2.0 * eta.values)
        defect = energy_identity_defect(uhat, u, doubled)
        expected = 0.75 * np.einsum("...c,...c->...", eta.values, eta.values)
        interior = grid.cube_interior_mask()
        assert np.abs(defect.values + expected)[interior].max() <= \
            10.0 * grid.h ** 2 + 1e-9


def gradient_partials(values, h):
    """Reference partials tensor [..., j, c] from np.gradient."""
    return np.stack([np.stack(np.gradient(values[..., c], h, edge_order=2),
                              axis=-1) for c in range(values.shape[-1])],
                    axis=-1)


class TestPlaneStencilMatchesTensorForm:
    """gauge_of_lift and energy_identity_defect as they were written on
    the np.gradient partials tensor; the plane-by-plane versions must give
    the same bits."""

    @pytest.mark.parametrize("n", [9, 33])
    def test_bit_identical(self, n):
        grid = make_grid(n)
        uhat, u, eta = testmaps.gen_lift_family(grid, 0.8, (1, 0.5, 0),
                                                (0, 1, 0.3))
        v = uhat.values
        d = gradient_partials(v, grid.h)
        gauge_ref = 2.0 * (
            -v[..., None, 1] * d[..., 0] + v[..., None, 0] * d[..., 1]
            - v[..., None, 3] * d[..., 2] + v[..., None, 2] * d[..., 3])
        assert np.array_equal(gauge_of_lift(uhat).values, gauge_ref)

        du = gradient_partials(u.values, grid.h)
        energy_ref = (np.einsum("...jc,...jc->...", d, d)
                      - 0.25 * np.einsum("...c,...c->...", eta.values,
                                         eta.values)
                      - 0.25 * np.einsum("...jc,...jc->...", du, du))
        assert np.array_equal(energy_identity_defect(uhat, u, eta).values,
                              energy_ref)
