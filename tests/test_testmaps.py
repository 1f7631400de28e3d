import numpy as np
import pytest

from hopflift.errors import BadLatitude, PreconditionError
from hopflift.fields import VecField, div, l2_norm, make_grid
from hopflift.hopf import gauge_of_lift, hopf
from hopflift.pullback import exactness_defect, pullback_area_form
from hopflift import testmaps

GRID = make_grid(17)


def unit_norm_defect(values):
    return np.abs(np.linalg.norm(values, axis=-1) - 1.0).max()


class TestConstant:
    def test_value_and_norm(self):
        u = testmaps.gen_constant(GRID, (0, 0, 1))
        assert np.array_equal(u.values[3, 4, 5], [0, 0, 1])
        assert unit_norm_defect(u.values) <= 1e-14

    def test_pullback_vanishes(self):
        u = testmaps.gen_constant(GRID, (0, 1, 0))
        assert np.abs(pullback_area_form(u).values).max() == 0.0


class TestHedgehog:
    def test_pointwise_values(self):
        grid = make_grid(9)
        u = testmaps.gen_hedgehog(grid)
        # node (0.5, 0, 0) exists at n=9
        i = np.argmin(np.abs(grid.axis() - 0.5))
        c = grid.n // 2
        assert np.allclose(u.values[i, c, c], (1, 0, 0), atol=1e-15)
        assert np.array_equal(u.values[c, c, c], (0, 0, 1))

    def test_unit_everywhere(self):
        u = testmaps.gen_hedgehog(GRID)
        assert unit_norm_defect(u.values) <= 1e-14


class TestLiftFamily:
    def test_analytic_projection_consistency(self):
        uhat, u, _ = testmaps.gen_lift_family(GRID, 0.9, (1, -0.4, 0.2),
                                              (0.3, 1, 0))
        assert np.abs(hopf(uhat.values) - u.values).max() <= 1e-12

    def test_unit_norms(self):
        uhat, u, _ = testmaps.gen_lift_family(GRID, 0.4, (2, 0, 0), (0, 1, 0))
        assert unit_norm_defect(uhat.values) <= 1e-14
        assert unit_norm_defect(u.values) <= 1e-14

    def test_oracle_closed_forms(self):
        # closed forms carry float trig of pi/4, so pin them to one ulp;
        # the stated identity 2/4 + 2/4 = 1 is exact in literal floats
        oracle = testmaps.lift_family_oracle(np.pi / 4, (1, 0, 0), (0, 1, 0))
        assert oracle["eta"] == pytest.approx([1.0, 1.0, 0.0], abs=1e-15)
        assert oracle["eta_sq"] == pytest.approx(2.0, abs=1e-15)
        assert oracle["duhat_sq"] == pytest.approx(1.0, abs=1e-15)
        assert oracle["du_sq"] == pytest.approx(2.0, abs=1e-15)
        assert 0.25 * 2.0 + 0.25 * 2.0 == 1.0
        assert abs(oracle["energy_identity_gap"]) <= 1e-15

    def test_discrete_gauge_matches_closed_form(self):
        errs = []
        for n in (17, 33):
            grid = make_grid(n)
            uhat, _, eta = testmaps.gen_lift_family(grid, 0.7, (1, 0, 0),
                                                    (0, 1, 1))
            diff = VecField(grid, 1, gauge_of_lift(uhat).values - eta.values)
            errs.append(l2_norm(diff) / l2_norm(eta))
        assert errs[0] / errs[1] >= 3.0
        assert errs[1] <= 10.0 * make_grid(33).h ** 2

    def test_equal_phases_collapse_to_constant_map(self):
        _, u, _ = testmaps.gen_lift_family(GRID, 0.5, (1, 1, 0), (1, 1, 0))
        spread = np.abs(u.values - u.values[0, 0, 0]).max()
        assert spread <= 1e-14

    @pytest.mark.parametrize("t0", [0.0, np.pi / 2, -0.1, 2.0])
    def test_latitude_bounds(self, t0):
        with pytest.raises(BadLatitude):
            testmaps.gen_lift_family(GRID, t0, (1, 0, 0), (0, 1, 0))

    @pytest.mark.parametrize("a, b", [
        ((1e308, 1e308, 0), (0, 1, 0)),     # a.x at a corner
        ((1e308, 0, 0), (-1e308, 0, 0)),    # the difference (b - a).x
        ((1.7e308, 0, 0), (1.7e308, 0, 0)),  # the gauge 2(a + b)/2
        ((1e200, 0, 0), (0, 1, 0)),         # the oracle's |a|^2
        ((np.nan, 0, 0), (0, 1, 0))])
    def test_phases_must_stay_finite(self, a, b):
        with pytest.raises(PreconditionError, match="overflow on the cube"):
            testmaps.gen_lift_family(GRID, np.pi / 4, a, b)


class TestPlanar:
    def test_bump_far_field_is_north(self):
        u = testmaps.gen_planar(GRID, "gaussian-bump")
        for i, j in ((0, 0), (0, -1), (-1, 0), (-1, -1)):
            assert u.values[i, j, 0] @ np.array([0, 0, 1.0]) > 0.99

    def test_unit_norms(self):
        for kind in testmaps.PLANAR_KINDS:
            u = testmaps.gen_planar(GRID, kind)
            assert unit_norm_defect(u.values) <= 1e-14

    def test_dual_field_is_planar(self):
        # D depends only on (x1, x2) and points along the third axis, so
        # its divergence vanishes identically
        u = testmaps.gen_planar(GRID, "linear-winding")
        d = pullback_area_form(u)
        assert np.abs(d.values[..., :2]).max() <= 1e-14
        spread = np.abs(d.values[..., 2] - d.values[:, :, :1, 2]).max()
        assert spread <= 1e-13
        assert np.abs(div(d).values).max() <= 1e-11

    def test_exactness_verdict(self):
        grid = make_grid(33)
        for kind in testmaps.PLANAR_KINDS:
            rep = exactness_defect(testmaps.gen_planar(grid, kind))
            assert rep.verdict == "exact"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            testmaps.gen_planar(GRID, "sombrero")
