"""Seeded inputs and correctness gates for the benchmark workloads.

Seed 0 reproduces the acceptance-suite inputs exactly; any other seed
draws a nearby input of the same size and kind.  Tolerances are the
acceptance suite's own (tests/test_acceptance.py).
"""

import math

import numpy as np

LIFTFAM_SEED0 = (math.pi / 4, (1.0, 0.0, 0.0), (0.0, 2.0, 0.0))
BUMP_SEED0 = ((0.0, 0.0, 1.0), 0.75)

#: CG iterations that seed 0 must reproduce, per pass
PINNED_CG_ITERS = {
    "gauge-bump-n65": 337,
    "lift-sweep-n65": 4 * 235,
    "cli-lift-n97": 342,
}

GAUGE_RECOVERY_TOL = 1e-3
GAUGE_CURL_TOL = 1e-6
GAUGE_WEAK_TRACE_TOL = 1e-6
LIFT_ERROR_TOL = 1e-3
PHASE_SPREAD_TOL = 1e-3
CONSTRAINT_TOL = 5e-3
IDENTITY_TOL = 1e-10


def _rng(seed):
    return np.random.default_rng(abs(int(seed)))


def random_rotation(rng):
    """Uniform rotation matrix from a uniform unit quaternion."""
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def liftfam_params(seed):
    """(t0, a, b) of the torus family: t0 in [0.6, 0.97], and a, b turned
    by one random rotation, so |a| = 1, |b| = 2 and a is normal to b."""
    if seed == 0:
        return LIFTFAM_SEED0
    rng = _rng(seed)
    t0 = float(rng.uniform(0.6, 0.97))
    rot = random_rotation(rng)
    a = rot @ np.array(LIFTFAM_SEED0[1])
    b = rot @ np.array(LIFTFAM_SEED0[2])
    return t0, tuple(float(c) for c in a), tuple(float(c) for c in b)


def bump_params(seed):
    """(axis, half_width) of the compact bump potential psi * axis."""
    if seed == 0:
        return BUMP_SEED0
    rng = _rng(seed)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return tuple(float(c) for c in axis), float(rng.uniform(0.6, 0.8))


def _bump(t, half):
    s = np.clip(np.abs(t) / half, 0.0, 1.0)
    out = np.zeros_like(t)
    inside = s < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


def bump_gauge_field(hl, n, seed):
    """(a0, G): a0 = curl(psi * axis) is divergence-free and vanishes near
    the faces, so it is its own canonical gauge, and G = curl a0."""
    axis, half = bump_params(seed)
    grid = hl.make_grid(n)
    x1, x2, x3 = grid.coords()
    psi = _bump(x1, half) * _bump(x2, half) * _bump(x3, half)
    pot = hl.VecField(grid, 1, psi[..., None] * np.asarray(axis))
    a0 = hl.VecField(grid, 1, hl.curl(pot).values)
    return a0, hl.curl(a0)


def liftfam_fields(hl, n, seed):
    """(uhat0, u, eta) of the torus family for this seed."""
    t0, a, b = liftfam_params(seed)
    return hl.testmaps.gen_lift_family(hl.make_grid(n), t0, a, b)


class Pass:
    """Operations of one pass and the gate misses charged to each; an
    operation with any miss is one failed operation."""

    def __init__(self):
        self.ops = []
        self.misses = {}

    def run(self, op, fn, *args):
        """Call one library operation; on an exception record it as the
        operation's failure and return None."""
        self.ops.append(op)
        try:
            return fn(*args)
        except Exception as exc:  # any raise is a failed operation
            self.check(op, False, f"{type(exc).__name__}: {exc}")
            return None

    def check(self, op, ok, what):
        if not ok:
            self.misses.setdefault(op, []).append(what)
        return ok

    def at_most(self, op, name, value, tol):
        # written so that NaN fails
        return self.check(op, value <= tol, f"{name}={value:.3e} > {tol:g}")

    def decreasing(self, op, name, values):
        ok = all(x > y for x, y in zip(values, values[1:]))
        return self.check(op, ok, f"{name} not strictly decreasing: {values}")
