"""Exact pointwise layer for the Hopf fibration.

The map h sends a unit (z, w) in C^2, stored as (x1, x2, x3, x4) with
z = x1 + i x2 and w = x3 + i x4, to

    h(z, w) = (2 Re(conj(z) w), 2 Im(conj(z) w), |z|^2 - |w|^2).

The conjugation sits on z rather than w: that choice orients the fibers
so that the pullback of the target area form u . (dv x dw) equals 2 dtheta
for the connection form theta below.  The opposite convention flips the
sign of that identity and with it the closedness of the phase form the
lift construction integrates, while agreeing with this one wherever the
second component vanishes.

Everything in this module is analytic in the inputs: the Jacobian of h is
differentiated by hand, and the section over S^2 minus a pole is a
fixed quaternion times a vector affine in the point, normalized, so the
module serves as the exact oracle against which the finite-difference
modules are measured.  The only finite differencing here is in
``gauge_of_lift`` and ``energy_identity_defect``, which act on grid
fields.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadLatitude, NotTangent, TooCloseToPole
from .fields import (BLOCK_ROWS, LiftField, ScalarField, SphereMapField,
                     VecField, _check_unit, _direction_norm, _same_grid,
                     energy_density, node_blocks, row_partials)

DEFAULT_POLE = (0.0, 0.0, -1.0)
DEFAULT_POLE_ANGLE = 0.05

#: tolerance of the raw-array checks: on |q| - 1, and on q . v relative to |v|
RAW_TOL = 1e-9


# ---------------------------------------------------------------------------
# pointwise operations


def hopf(q):
    """Apply the Hopf map to one unit 4-vector or an array of them.

    Raises NotUnit when the input norm is off 1 by more than ``RAW_TOL``;
    the output is renormalized wherever its norm drifts beyond 1e-14.
    The output is formed in the point blocks of ``fields.node_blocks``,
    so it is the call's only whole array besides the unit check's norms.
    """
    q = np.asarray(q, dtype=np.float64)
    _check_unit(q, "hopf input", RAW_TOL)
    flat = q.reshape(-1, 4)
    u = np.empty((len(flat), 3))
    blocks = node_blocks(len(flat))
    t = np.empty(max((hi - lo for lo, hi in blocks), default=0))
    for lo, hi in blocks:
        x1, x2, x3, x4 = flat[lo:hi].T
        ub, tb = u[lo:hi], t[:hi - lo]
        # each component in the order of the formula, left to right
        np.multiply(x1, x3, out=tb)
        tb += x2 * x4
        np.multiply(2.0, tb, out=ub[:, 0])
        np.multiply(x1, x4, out=tb)
        tb -= x2 * x3
        np.multiply(2.0, tb, out=ub[:, 1])
        np.multiply(x1, x1, out=ub[:, 2])
        ub[:, 2] += x2 * x2
        ub[:, 2] -= x3 * x3
        ub[:, 2] -= x4 * x4
        np.einsum("...c,...c->...", ub, ub, out=tb)
        np.sqrt(tb, out=tb)
        drift = np.abs(tb - 1.0) > 1e-14
        if drift.any():
            ub[drift] /= tb[drift, None]
    return u.reshape(q.shape[:-1] + (3,))


def hopf_jacobian(q):
    """The 3x4 differential of h at q, from the quadratic formula."""
    x1, x2, x3, x4 = np.asarray(q, dtype=np.float64)
    return 2.0 * np.array([
        [x3, x4, x1, x2],
        [x4, -x3, -x2, x1],
        [x1, x2, -x3, -x4],
    ])


def project_to_sphere(uhat: LiftField) -> SphereMapField:
    """Apply h nodewise to a lift field."""
    return SphereMapField(uhat.grid, hopf(uhat.values))


def theta_at(q, v):
    """Evaluate the connection 1-form -x2 dx1 + x1 dx2 - x4 dx3 + x3 dx4
    on a tangent vector v at q; equivalently the inner product of v with
    the vertical direction iq."""
    q = np.asarray(q, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    _check_unit(q, "theta_at base point", RAW_TOL)
    if abs(float(q @ v)) > RAW_TOL * max(1.0, float(np.linalg.norm(v))):
        raise NotTangent("theta_at argument is not tangent at q")
    return float(-q[1] * v[0] + q[0] * v[1] - q[3] * v[2] + q[2] * v[3])


def gauge_of_lift(uhat: LiftField) -> VecField:
    """The 1-form 2 theta(d uhat) of a lift field, componentwise
    2(-x2 d x1 + x1 d x2 - x4 d x3 + x3 d x4) from central differences,
    one ``row_partials`` block at a time."""
    v = uhat.values
    out = np.empty(v.shape[:-1] + (3,))
    for lo, hi, d in row_partials(v, uhat.grid.h, BLOCK_ROWS):
        x1, x2, x3, x4 = (v[lo:hi, ..., c] for c in range(4))
        neg_x2 = -x2
        for j in range(3):
            acc = neg_x2 * d[0][j]
            acc += x1 * d[1][j]
            acc -= x4 * d[2][j]
            acc += x3 * d[3][j]
            np.multiply(2.0, acc, out=out[lo:hi, ..., j])
    return VecField(uhat.grid, 1, out)


def _phase_rotate(values, phase):
    """Apply the fiberwise rotation e^{i phase} to (.., 4) lift values in
    place, and return them: (x1 + i x2, x3 + i x4) times e^{i phase}."""
    c, s = np.cos(phase), np.sin(phase)
    for re, im in ((0, 1), (2, 3)):
        v_re, v_im = values[..., re], values[..., im]
        t = v_re * s
        v_re *= c
        v_re -= v_im * s
        v_im *= c
        v_im += t
    return values


def stereo_section(p, pole=DEFAULT_POLE, phase=None):
    """A smooth right inverse of h on S^2 minus a cone around ``pole``.

    Works on one point or an (..., 3) array.  With (x1, x2, x3, x4) read
    as x1 + x2 i + x3 j + x4 k, and S(x) = x3 i - x2 j + x1 k the pairing
    under which h(q) is the (k, -j, i) part of conj(q) i q, the section
    for the unit pole P is

        q(p) = r (1 - p.P, S(P x p)) / |(1 - p.P, S(P x p))|,

    r = conj(p0) with p0 = (1 - P3, 0, P1, P2)/|.|, or p0 = j when P = e3.
    The affine factor vanishes only at p = P, so the cut sits exactly at
    the pole; for P = (0, 0, -1), q(p) = (1 + p3, 0, p1, p2)/sqrt(2(1 + p3)).
    NotUnit is raised for a pole of zero or non-finite norm, and
    TooCloseToPole when the clearance, the arccos of the largest p . P as
    in ``lift.select_pole``, is below ``DEFAULT_POLE_ANGLE`` radians.

    Unless ``phase`` is None, the section is turned by e^{i phase}
    (``_phase_rotate``), one angle per point in the order of
    ``p.reshape(-1, 3)``; ValueError is raised for any other count.  The
    section is formed and turned in the point blocks of
    ``fields.node_blocks``, so the dot products and the result are its
    only whole arrays: no unturned section and no whole cosine or sine
    is held.
    """
    p = np.asarray(p, dtype=np.float64)
    single = p.ndim == 1
    pts = p[None, :] if single else p
    _check_unit(pts, "stereo_section input", RAW_TOL)
    pole = np.asarray(pole, dtype=np.float64)
    pole = pole / _direction_norm(pole, "section pole")
    dots = pts @ pole  # held to the end: it is the scalar part below
    clearance = np.arccos(np.clip(dots.max(), -1.0, 1.0))
    if clearance < DEFAULT_POLE_ANGLE:
        raise TooCloseToPole(
            f"point within {clearance:.4f} rad of the section pole")

    # left multiplication by r = (a, 0, -b, -c)
    P1, P2, P3 = pole
    a, b, c = 1.0 - P3, P1, P2
    nr = np.sqrt(a * a + b * b + c * c)
    a, b, c = (a / nr, b / nr, c / nr) if nr > 1e-6 else (0.0, 1.0, 0.0)
    r_left = np.array([[a, 0.0, b, c], [0.0, a, c, -b],
                       [-b, -c, a, 0.0], [-c, b, 0.0, a]])

    flat = pts.reshape(-1, 3)
    dots = dots.reshape(-1)
    if phase is not None:
        phase = np.reshape(phase, -1)
        if phase.size != len(flat):
            raise ValueError(f"phase has {phase.size} angles for "
                             f"{len(flat)} points")
    q = np.empty((len(flat), 4))
    blocks = node_blocks(len(flat))
    t = np.empty((max((hi - lo for lo, hi in blocks), default=0), 4))
    for lo, hi in blocks:
        x, y, z = flat[lo:hi].T
        tb = t[:hi - lo]
        np.subtract(1.0, dots[lo:hi], out=tb[:, 0])
        tb[:, 1] = P1 * y - P2 * x
        tb[:, 2] = P1 * z - P3 * x
        tb[:, 3] = P2 * z - P3 * y
        tb /= np.linalg.norm(tb, axis=-1, keepdims=True)
        np.einsum("ij,...j->...i", r_left, tb, out=q[lo:hi])
        if phase is not None:
            _phase_rotate(q[lo:hi], phase[lo:hi])
    q = q.reshape(pts.shape[:-1] + (4,))
    return q[0] if single else q


def section_of_map(u: SphereMapField, pole=DEFAULT_POLE,
                   phase=None) -> LiftField:
    """Compose the section with a sphere-valued field nodewise, turned
    by e^{i phase} with an (n,n,n) phase unless it is None
    (``stereo_section``)."""
    vals = stereo_section(u.values.reshape(-1, 3), pole, phase)
    return LiftField(u.grid, vals.reshape(u.values.shape[:-1] + (4,)))


# ---------------------------------------------------------------------------
# frame checks in the torus coordinates (t, phi1, phi2)


@dataclass
class FrameReport:
    """Pointwise defects of the coordinate-frame identities; every entry
    is an absolute deviation that should vanish."""

    frame_orthonormality: float
    frame_tangency: float
    dh_tau1: float
    dh_tau2_norm: float
    dh_tau3_norm: float
    dh_image_orthogonality: float
    pullback_two_form: float
    theta_tau1: float
    theta_tau23: float

    def max_defect(self):
        return max(
            self.frame_orthonormality, self.frame_tangency, self.dh_tau1,
            self.dh_tau2_norm, self.dh_tau3_norm, self.dh_image_orthogonality,
            self.pullback_two_form, self.theta_tau1, self.theta_tau23)


def _torus_point(t, phi1, phi2):
    st, ct = np.sin(t), np.cos(t)
    return np.array([st * np.cos(phi1), st * np.sin(phi1),
                     ct * np.cos(phi2), ct * np.sin(phi2)])


def _torus_frame(t, phi1, phi2):
    st, ct = np.sin(t), np.cos(t)
    d_t = np.array([ct * np.cos(phi1), ct * np.sin(phi1),
                    -st * np.cos(phi2), -st * np.sin(phi2)])
    d_phi1 = np.array([-st * np.sin(phi1), st * np.cos(phi1), 0.0, 0.0])
    d_phi2 = np.array([0.0, 0.0, -ct * np.sin(phi2), ct * np.cos(phi2)])
    tau1 = d_phi1 + d_phi2
    tau2 = d_t
    tau3 = (ct / st) * d_phi1 - (st / ct) * d_phi2
    return tau1, tau2, tau3


def _two_dtheta(a, b):
    """Evaluate 2 d theta = 4(dx1^dx2 + dx3^dx4) on a pair of 4-vectors."""
    return 4.0 * ((a[0] * b[1] - a[1] * b[0]) + (a[2] * b[3] - a[3] * b[2]))


def frame_checks(t, phi1, phi2):
    """Verify the frame identities at one chart point with 0 < t < pi/2.

    Checks, all analytically evaluated: orthonormality and tangency of
    (tau1, tau2, tau3); dh(tau1) = 0; |dh(tau2)| = |dh(tau3)| = 2 with
    orthogonal images (the 2x3 matrix [[0,2,0],[0,0,2]]); the pullback of
    the area form against 2 d theta on all frame pairs; and theta(tau1)=1,
    theta(tau2) = theta(tau3) = 0.
    """
    if not 1e-3 < t < np.pi / 2 - 1e-3:
        raise BadLatitude("frame point too close to a coordinate degeneracy")
    q = _torus_point(t, phi1, phi2)
    taus = _torus_frame(t, phi1, phi2)
    gram = np.array([[a @ b for b in taus] for a in taus])
    ortho = float(np.abs(gram - np.eye(3)).max())
    tangency = max(abs(float(q @ a)) for a in taus)

    J = hopf_jacobian(q)
    images = [J @ a for a in taus]
    u = hopf(q)
    dh1 = float(np.linalg.norm(images[0]))
    dh2 = abs(float(np.linalg.norm(images[1])) - 2.0)
    dh3 = abs(float(np.linalg.norm(images[2])) - 2.0)
    dh_orth = abs(float(images[1] @ images[2]))

    pullback = 0.0
    for a_i in range(3):
        for b_i in range(a_i + 1, 3):
            # the S^2 area form at u on the two image vectors
            lhs = float(u @ np.cross(images[a_i], images[b_i]))
            rhs = _two_dtheta(taus[a_i], taus[b_i])
            pullback = max(pullback, abs(lhs - rhs))

    th1 = abs(theta_at(q, taus[0]) - 1.0)
    th23 = max(abs(theta_at(q, taus[1])), abs(theta_at(q, taus[2])))
    return FrameReport(ortho, tangency, dh1, dh2, dh3, dh_orth,
                       pullback, th1, th23)


def frame_sweep(samples, seed=0):
    """Max defect of frame_checks over random chart points."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        t = rng.uniform(1e-3 + 1e-6, np.pi / 2 - 1e-3 - 1e-6)
        phi1 = rng.uniform(0.0, 2.0 * np.pi)
        phi2 = rng.uniform(0.0, 2.0 * np.pi)
        worst = max(worst, frame_checks(t, phi1, phi2).max_defect())
    return float(worst)


# ---------------------------------------------------------------------------
# energy identity


def energy_identity_defect(uhat: LiftField, u: SphereMapField,
                           eta: VecField) -> ScalarField:
    """Nodewise |d uhat|^2 - |eta|^2/4 - |du|^2/4 from central
    differences; vanishes to O(h^2) whenever eta is the gauge of uhat.

    Each density is one whole-cube ``energy_density``, which takes the
    partials one x1-row at a time, so no full set of partials is held."""
    _same_grid(uhat, u, eta)
    h = uhat.grid.h
    out = energy_density(uhat.values, h)
    out -= 0.25 * np.einsum("...c,...c->...", eta.values, eta.values)
    out -= 0.25 * energy_density(u.values, h)
    return ScalarField(uhat.grid, out)
