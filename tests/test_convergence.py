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

#: measured on the skew lift family: every error falls 4.03-4.16x per
#: step, an order of 2.01-2.06; the floor leaves 0.1 of margin
ORDER_FLOOR = 1.9

#: the skew lift family: t0, a, b
SKEW = (0.7, (1.0, 0.5, 0.0), (0.0, 1.0, -0.3))


@pytest.fixture(scope="module")
def skew_lift_errors():
    """{quantity: [error at each n of RESOLUTIONS]} of the skew family's
    lift."""
    errors = {"gauge_error": [], "phase_std": [], "energy_defect": []}
    for n in RESOLUTIONS:
        uhat0, u, eta = testmaps.gen_lift_family(hl.make_grid(n), *SKEW)
        uhat, rep = hl.lift(u, eta)
        errors["gauge_error"].append(rep.gauge_error)
        errors["phase_std"].append(float(relative_phase(uhat, uhat0).std()))
        errors["energy_defect"].append(rep.energy_defect)
    return errors


@pytest.mark.parametrize("quantity", ["gauge_error", "phase_std",
                                      "energy_defect"])
def test_skew_lift_is_second_order(skew_lift_errors, quantity):
    errs = skew_lift_errors[quantity]
    orders = [float(np.log2(a / b)) for a, b in zip(errs, errs[1:])]
    ok = all(order >= ORDER_FLOOR for order in orders)
    print(f"\nCONVERGENCE skew-lift {quantity}: {'PASS' if ok else 'FAIL'} "
          f"(errors at n={RESOLUTIONS}: {[f'{e:.3e}' for e in errs]}, "
          f"orders {[f'{o:.2f}' for o in orders]} >= {ORDER_FLOOR})")
    assert ok, (quantity, errs, orders)
