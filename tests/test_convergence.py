"""Convergence-order floors: each quantity's error, taken at n = 17, 33
and 65, must fall at least second order per halving of h.

The observed order per step is log2(e_n / e_(2n-1)).  Each test prints
its measured errors and orders next to the floor, as the acceptance
tests do.  A change to the numerics keeps these floors or says why not.
"""

import numpy as np
import pytest

import hopflift as hl
from hopflift import testmaps
from hopflift.lift import relative_phase

RESOLUTIONS = (17, 33, 65)

#: measured on the skew lift family: every error falls 3.99-4.16x per
#: step, an order of 2.00-2.06; the floor leaves 0.1 of margin.  The
#: planar pullback reads 1.98 and 2.00
ORDER_FLOOR = 1.9

#: the skew lift family: t0, a, b
SKEW = (0.7, (1.0, 0.5, 0.0), (0.0, 1.0, -0.3))


@pytest.fixture(scope="module")
def skew_lift_errors():
    """{quantity: [error at each n of RESOLUTIONS]} of the skew family's
    lift, and the interior max of the energy identity's defect on its
    exact lift, which takes no solver."""
    errors = {"gauge_error": [], "phase_std": [], "energy_defect": [],
              "energy_identity_defect": []}
    for n in RESOLUTIONS:
        grid = hl.make_grid(n)
        uhat0, u, eta = testmaps.gen_lift_family(grid, *SKEW)
        uhat, rep = hl.lift(u, eta)
        errors["gauge_error"].append(rep.gauge_error)
        errors["phase_std"].append(float(relative_phase(uhat, uhat0).std()))
        errors["energy_defect"].append(rep.energy_defect)
        defect = hl.energy_identity_defect(uhat0, u, eta).values
        errors["energy_identity_defect"].append(
            float(np.abs(defect[grid.cube_interior_mask()]).max()))
    return errors


@pytest.mark.parametrize("quantity", ["gauge_error", "phase_std",
                                      "energy_defect",
                                      "energy_identity_defect"])
def test_skew_lift_is_second_order(skew_lift_errors, quantity):
    errs = skew_lift_errors[quantity]
    orders = [float(np.log2(a / b)) for a, b in zip(errs, errs[1:])]
    ok = all(order >= ORDER_FLOOR for order in orders)
    print(f"\nCONVERGENCE skew-lift {quantity}: {'PASS' if ok else 'FAIL'} "
          f"(errors at n={RESOLUTIONS}: {[f'{e:.3e}' for e in errs]}, "
          f"orders {[f'{o:.2f}' for o in orders]} >= {ORDER_FLOOR})")
    assert ok, (quantity, errs, orders)


def test_planar_pullback_is_second_order():
    # gen_planar's "linear-winding" map is inverse stereographic projection
    # of x1 + i x2, so D(u) = (0, 0, 4 / (1 + x1^2 + x2^2)^2) exactly.
    # Measured relative L^2 errors 2.110e-2 / 5.334e-3 / 1.337e-3, orders
    # 1.98 and 2.00; the first two components stay at rounding, below
    # 6.5e-15
    errs = []
    for n in RESOLUTIONS:
        grid = hl.make_grid(n)
        d = hl.pullback_area_form(
            testmaps.gen_planar(grid, "linear-winding")).values
        assert np.abs(d[..., :2]).max() < 1e-14
        x1, x2, _ = grid.coords()
        exact = np.zeros(d.shape)
        exact[..., 2] = 4.0 / (1.0 + x1 * x1 + x2 * x2) ** 2
        d -= exact
        errs.append(hl.l2_norm(hl.VecField(grid, 2, d))
                    / hl.l2_norm(hl.VecField(grid, 2, exact)))
    orders = [float(np.log2(a / b)) for a, b in zip(errs, errs[1:])]
    ok = all(order >= ORDER_FLOOR for order in orders)
    print(f"\nCONVERGENCE planar pullback_area_form: "
          f"{'PASS' if ok else 'FAIL'} (errors at n={RESOLUTIONS}: "
          f"{[f'{e:.3e}' for e in errs]}, "
          f"orders {[f'{o:.2f}' for o in orders]} >= {ORDER_FLOOR})")
    assert ok, (errs, orders)
