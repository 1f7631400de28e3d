import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopflift.errors import BadLatitude, NotTangent, NotUnit, TooCloseToPole
from hopflift.fields import LiftField, ScalarField, VecField, grad, make_grid
from hopflift.hopf import (DEFAULT_POLE, energy_identity_defect,
                           frame_checks, frame_sweep, gauge_of_lift, hopf,
                           hopf_jacobian, stereo_section, theta_at)
from hopflift.lift import default_pole_candidates
from hopflift import testmaps

unit4 = st.tuples(*[st.floats(-1, 1) for _ in range(4)]).filter(
    lambda q: 0.1 < sum(c * c for c in q) ** 0.5).map(
    lambda q: tuple(c / sum(x * x for x in q) ** 0.5 for c in q))


def vertical_field(q):
    """iq = (-x2, x1, -x4, x3), the generator of the circle action."""
    q = np.asarray(q, dtype=np.float64)
    return np.stack([-q[..., 1], q[..., 0], -q[..., 3], q[..., 2]], axis=-1)


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

    def test_rejects_nan_vector(self):
        # a NaN q . v fails the tangency test instead of passing it
        with pytest.raises(NotTangent):
            theta_at((1, 0, 0, 0), (0, np.nan, 0, 0))


#: a call of each raw-array unit check, on a point whose norm is ``s``
UNIT_CHECKS = {
    "hopf": lambda s: hopf((s, 0.0, 0.0, 0.0)),
    "theta_at": lambda s: theta_at((s, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)),
    "stereo_section": lambda s: stereo_section((0.0, 0.0, s)),
}


@pytest.mark.parametrize("name", sorted(UNIT_CHECKS))
def test_raw_unit_tolerance(name):
    UNIT_CHECKS[name](1.0 + 0.9e-9)
    UNIT_CHECKS[name](1.0 - 0.9e-9)
    with pytest.raises(NotUnit, match=f"^{name} .*off the unit sphere by 1.1"):
        UNIT_CHECKS[name](1.0 + 1.1e-9)


@pytest.mark.parametrize("name", sorted(UNIT_CHECKS))
def test_raw_unit_check_refuses_nan(name):
    # a NaN drift fails the tolerance test instead of passing it
    with pytest.raises(NotUnit, match="off the unit sphere by nan"):
        UNIT_CHECKS[name](np.nan)


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

    def test_pole_message_names_the_nearest_point(self):
        angles = np.array([0.3, 0.049, 0.1, 0.0491])
        pts = np.stack([np.sin(angles), np.zeros(4), -np.cos(angles)], axis=-1)
        # the angle of every point to the pole, the nearest taken
        dense = np.arccos(np.clip(pts @ (0.0, 0.0, -1.0), -1.0, 1.0)).min()
        assert f"{dense:.4f}" == "0.0490"
        with pytest.raises(TooCloseToPole) as info:
            stereo_section(pts)
        assert str(info.value) == (
            f"point within {dense:.4f} rad of the section pole")

    def test_phase_turns_each_point(self):
        # one angle per point: the turned section is e^{i phase} times the
        # section, and h(turned) = h(section)
        pts = np.array([[0.6, 0.0, 0.8], [0.0, 0.6, -0.8], [0.0, 0.0, 1.0]])
        phase = np.array([0.3, -2.0, 5.0])
        s = stereo_section(pts)
        turned = stereo_section(pts, DEFAULT_POLE, phase)
        z = (s[:, 0] + 1j * s[:, 1]) * np.exp(1j * phase)
        w = (s[:, 2] + 1j * s[:, 3]) * np.exp(1j * phase)
        assert np.allclose(turned, np.stack([z.real, z.imag, w.real, w.imag],
                                            axis=-1), atol=1e-15)
        assert np.allclose(hopf(turned), hopf(s), atol=1e-15)
        single = stereo_section(pts[0], DEFAULT_POLE, phase[0])
        assert np.array_equal(single, turned[0])

    @pytest.mark.parametrize("nodes", [2, 1 << 14])
    def test_phase_of_another_size_refused(self, nodes, monkeypatch):
        # one angle per point or none: ten angles for three points, or one
        # for all of them, once in one block and once over two
        from hopflift import fields
        from hopflift.hopf import section_of_map
        monkeypatch.setattr(fields, "NODE_BLOCK", nodes)
        pts = np.array([[0.6, 0.0, 0.8], [0.0, 0.6, -0.8], [0.0, 0.0, 1.0]])
        for phase in (np.zeros(10), np.zeros(1), 0.5):
            with pytest.raises(ValueError, match="angles for 3 points"):
                stereo_section(pts, DEFAULT_POLE, phase)
        u = testmaps.gen_planar(make_grid(3), "gaussian-bump")
        with pytest.raises(ValueError, match="angles for 27 points"):
            section_of_map(u, DEFAULT_POLE, np.zeros((3, 3, 2)))

    def test_smoothness_near_cut_boundary(self):
        # values at nearby admissible points stay close: no hidden branch
        angles = np.linspace(0.06, 0.1, 50)
        pts = np.stack([np.sin(angles), np.zeros_like(angles),
                        -np.cos(angles)], axis=-1)
        s = stereo_section(pts)
        steps = np.linalg.norm(np.diff(s, axis=0), axis=-1)
        assert steps.max() < 0.05


def qmul(p, q):
    """Quaternion products of (..., 4) arrays in the basis (1, i, j, k)."""
    pw, px, py, pz = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack([pw * qw - px * qx - py * qy - pz * qz,
                     pw * qx + px * qw + py * qz - pz * qy,
                     pw * qy - px * qz + py * qw + pz * qx,
                     pw * qz + px * qy - py * qx + pz * qw], axis=-1)


def pure(p):
    """S^2 point p -> pure quaternion p3 i - p2 j + p1 k."""
    out = np.zeros(p.shape[:-1] + (4,))
    out[..., 1], out[..., 2], out[..., 3] = p[..., 2], -p[..., 1], p[..., 0]
    return out


def quaternion_section(pts, pole):
    """The section as two quaternion products, as it was written before
    its closed form: conj(t1 p0), with p0 the shortest arc from i to
    m = -pure(pole) (a quarter turn about j when m = -i) and t1 the one
    from m to pure(p)."""
    pole = np.asarray(pole, dtype=np.float64)
    m = -pure(pole / np.linalg.norm(pole))
    t0 = np.array([1.0, 0.0, 0.0, 0.0]) - qmul(m, np.array([0.0, 1, 0, 0]))
    n0 = np.linalg.norm(t0)
    p0 = t0 / n0 if n0 > 1e-6 else np.array([0.0, 0.0, 1.0, 0.0])
    v = pure(pts)
    one = np.zeros(v.shape)
    one[..., 0] = 1.0
    t1 = one - qmul(v, np.broadcast_to(m, v.shape))
    t1 /= np.linalg.norm(t1, axis=-1, keepdims=True)
    q = qmul(t1, np.broadcast_to(p0, t1.shape))
    q[..., 1:] *= -1.0
    return q


def points_clear_of(pole, count, seed):
    """``count`` random unit points, less those within 0.06 rad of pole."""
    p = np.random.default_rng(seed).normal(size=(count, 3))
    p /= np.linalg.norm(p, axis=-1, keepdims=True)
    pole = np.asarray(pole) / np.linalg.norm(pole)
    return p[p @ pole < np.cos(0.06)]


E3_POLES = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]


class TestSectionClosedForm:
    """The closed form against the quaternion-product construction it
    replaced."""

    def test_matches_quaternion_products(self):
        rng = np.random.default_rng(21)
        poles = [*default_pole_candidates(), *np.asarray(E3_POLES),
                 *rng.normal(size=(12, 3))]
        for i, pole in enumerate(poles):
            pts = points_clear_of(pole, 4000, seed=i)
            delta = np.abs(stereo_section(pts, pole)
                           - quaternion_section(pts, pole)).max()
            assert delta <= 1e-14, (pole, delta)

    @pytest.mark.parametrize("pole", E3_POLES)
    def test_axis_poles_give_the_same_bits(self, pole):
        # a signed permutation of the same affine vector: equal bytes once
        # the sign of exact zeros is dropped (adding 0.0 maps -0 to +0)
        pts = points_clear_of(pole, 20000, seed=22)
        new = stereo_section(pts, pole) + 0.0
        old = quaternion_section(pts, pole) + 0.0
        assert new.tobytes() == old.tobytes()

    def test_default_pole_formula(self):
        pts = points_clear_of((0.0, 0.0, -1.0), 20000, seed=23)
        p1, p2, p3 = pts.T
        want = np.stack([1.0 + p3, np.zeros_like(p3), p1, p2], axis=-1)
        want /= np.sqrt(2.0 * (1.0 + p3))[:, None]
        # 2(1 + p3) is |(1 + p3, 0, p1, p2)|^2 only as far as |p| = 1, a
        # relative gap that 1 + p3 divides
        gap = np.abs(stereo_section(pts) - want) * (1.0 + p3)[:, None]
        assert gap.max() <= 1e-15

    @pytest.mark.parametrize("pole", [
        (0.0, 0.0, 0.0), (np.nan, 0.0, 1.0), (np.inf, 0.0, 0.0),
        (0.0, 0.0, 1e-320)])
    def test_degenerate_pole_rejected(self, pole):
        with pytest.raises(NotUnit, match="^section pole .* cannot be "
                                          "normalized$"):
            stereo_section((1.0, 0.0, 0.0), pole)


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
