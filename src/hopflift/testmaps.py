"""Analytic map generators with closed-form oracle values.

The torus family is the workhorse positive example: a lift with constant
latitude and linear phases, whose gauge, projection and energy densities
all have closed forms.  The hedgehog is the negative control, carrying a
4*pi flux defect at the origin.
"""

import numpy as np

from .errors import BadLatitude, PreconditionError
from .fields import (Grid3, LiftField, SphereMapField, VecField,
                     _direction_norm)


def gen_constant(grid: Grid3, p) -> SphereMapField:
    """u identically equal to the unit vector p (normalized if it is
    not; NotUnit when p is zero or its norm overflows)."""
    p = np.asarray(p, dtype=np.float64)
    norm = _direction_norm(p, "constant map value")
    if abs(norm - 1.0) > 1e-12:
        p = p / norm
    vals = np.broadcast_to(p, (grid.n,) * 3 + (3,)).copy()
    return SphereMapField(grid, vals)


def gen_hedgehog(grid: Grid3) -> SphereMapField:
    """u(x) = x/|x|, with u(0) := (0,0,1) by convention.

    Every statistic computed from this map should exclude nodes within
    2h of the origin; the map is not even continuous there and the
    convention only fills the array slot.
    """
    x1, x2, x3 = grid.coords()
    r = grid.radii()
    safe = np.where(r < 1e-300, 1.0, r)
    vals = np.stack([x1 / safe, x2 / safe, x3 / safe], axis=-1)
    vals[r < 1e-300] = (0.0, 0.0, 1.0)
    return SphereMapField(grid, vals)


def _family_parameters(t0, a, b):
    """(t0, a, b) as f64; BadLatitude unless t0 lies in (0, pi/2), and
    PreconditionError unless B = 2(|a|_1 + |b|_1) and B^2 are finite: B
    bounds the phases and the gauge on the cube, B^2 the oracle's squares."""
    t0 = float(t0)
    if not 0.0 < t0 < np.pi / 2:
        raise BadLatitude(f"latitude must lie in (0, pi/2), got {t0}")
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    with np.errstate(over="ignore"):
        if not (2.0 * (np.abs(a).sum() + np.abs(b).sum())) ** 2 < np.inf:
            raise PreconditionError(
                f"phases a.x, b.x or their squares overflow on the cube: "
                f"a={a.tolist()}, b={b.tolist()}")
    return t0, a, b


def gen_lift_family(grid: Grid3, t0, a, b):
    """Constant-latitude lift with linear phases.

    uhat(x) = (e^{i a.x} sin t0, e^{i b.x} cos t0), its projection
    u = h(uhat) and its gauge eta = 2(sin^2 t0 a + cos^2 t0 b).dx, all
    from closed forms with no differencing.  Returns (uhat, u, eta).
    """
    t0, a, b = _family_parameters(t0, a, b)
    x1, x2, x3 = grid.coords()
    phi1 = a[0] * x1 + a[1] * x2 + a[2] * x3
    phi2 = b[0] * x1 + b[1] * x2 + b[2] * x3
    st, ct = np.sin(t0), np.cos(t0)
    uhat = np.stack([np.cos(phi1) * st, np.sin(phi1) * st,
                     np.cos(phi2) * ct, np.sin(phi2) * ct], axis=-1)

    phi = phi2 - phi1
    s2, c2 = np.sin(2.0 * t0), np.cos(2.0 * t0)
    u = np.stack([s2 * np.cos(phi), s2 * np.sin(phi),
                  np.full_like(phi, -c2)], axis=-1)

    eta_const = 2.0 * (st * st * a + ct * ct * b)
    eta = np.broadcast_to(eta_const, u.shape).copy()
    return (LiftField(grid, uhat), SphereMapField(grid, u),
            VecField(grid, 1, eta))


def lift_family_oracle(t0, a, b):
    """Closed-form scalars of the family, for use as test oracles."""
    t0, a, b = _family_parameters(t0, a, b)
    st2 = np.sin(t0) ** 2
    ct2 = np.cos(t0) ** 2
    eta = 2.0 * (st2 * a + ct2 * b)
    duhat_sq = st2 * float(a @ a) + ct2 * float(b @ b)
    du_sq = np.sin(2.0 * t0) ** 2 * float((a - b) @ (a - b))
    return {
        "t0": t0,
        "a": list(a),
        "b": list(b),
        "eta": list(eta),
        "eta_sq": float(eta @ eta),
        "duhat_sq": duhat_sq,
        "du_sq": du_sq,
        "energy_identity_gap": duhat_sq - 0.25 * float(eta @ eta) - 0.25 * du_sq,
    }


PLANAR_KINDS = ("gaussian-bump", "linear-winding")


def gen_planar(grid: Grid3, kind) -> SphereMapField:
    """Maps factoring through the (x1, x2) plane and inverse
    stereographic projection from the south pole, oriented so the far
    field of the bump sits at (0,0,1).

    These are smooth with hemisphere-plus range, hence exact: D(u)
    depends only on (x1, x2) and its only nonzero component is the third,
    so div D(u) = 0 identically.
    """
    if kind not in PLANAR_KINDS:
        raise ValueError(f"kind must be one of {PLANAR_KINDS}, got {kind!r}")
    x1, x2, _ = grid.coords()
    if kind == "gaussian-bump":
        envelope = 2.0 * np.exp(-(x1 * x1 + x2 * x2) / 0.25)
        zeta_re = envelope * x1
        zeta_im = envelope * x2
    else:
        zeta_re = x1.copy()
        zeta_im = x2.copy()
    sq = zeta_re * zeta_re + zeta_im * zeta_im
    denom = 1.0 + sq
    vals = np.stack([2.0 * zeta_re / denom, 2.0 * zeta_im / denom,
                     (1.0 - sq) / denom], axis=-1)
    return SphereMapField(grid, vals)
