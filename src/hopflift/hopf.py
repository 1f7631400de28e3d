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
differentiated by hand, and sections are built by quaternion algebra, so
the module serves as the exact oracle against which the finite-difference
modules are measured.  The only finite differencing here is in
``gauge_of_lift`` and ``energy_identity_defect``, which act on grid
fields.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadLatitude, NotTangent, NotUnit, TooCloseToPole
from .fields import (LiftField, ScalarField, SphereMapField, VecField,
                     component_planes, energy_density, stencil_partial)

DEFAULT_POLE = (0.0, 0.0, -1.0)
DEFAULT_POLE_ANGLE = 0.05


# ---------------------------------------------------------------------------
# quaternion helpers: arrays (..., 4) in the basis (1, i, j, k); the S^3
# point (x1, x2, x3, x4) is the quaternion x1 + x2 i + x3 j + x4 k


def _qmul(p, q):
    pw, px, py, pz = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack([
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    ], axis=-1)


def _qconj(q):
    out = np.array(q, dtype=np.float64, copy=True)
    out[..., 1:] *= -1.0
    return out


def _pure_from_target(p):
    """S^2 point (p1,p2,p3) -> pure quaternion p3 i - p2 j + p1 k.

    With this pairing, h(q) reads off the (k, -j, i) parts of
    conj(Q) i Q, so left multiplication by e^{i phi} is exactly the
    diagonal circle action and drops out of h.
    """
    p = np.asarray(p, dtype=np.float64)
    out = np.zeros(p.shape[:-1] + (4,))
    out[..., 1] = p[..., 2]
    out[..., 2] = -p[..., 1]
    out[..., 3] = p[..., 0]
    return out


# ---------------------------------------------------------------------------
# pointwise operations


def hopf(q):
    """Apply the Hopf map to one unit 4-vector or an array of them.

    Raises NotUnit when the input norm is off 1 by more than 1e-9; the
    output is renormalized wherever its norm drifts beyond 1e-14.
    """
    q = np.asarray(q, dtype=np.float64)
    norms = np.sqrt(np.einsum("...c,...c->...", q, q))
    if np.abs(norms - 1.0).max() > 1e-9:
        raise NotUnit("hopf input off S^3 by more than 1e-9")
    x1, x2, x3, x4 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    u = np.stack([
        2.0 * (x1 * x3 + x2 * x4),
        2.0 * (x1 * x4 - x2 * x3),
        x1 * x1 + x2 * x2 - x3 * x3 - x4 * x4,
    ], axis=-1)
    un = np.sqrt(np.einsum("...c,...c->...", u, u))
    drift = np.abs(un - 1.0)
    if drift.max() > 1e-14:
        u = np.where(drift[..., None] > 1e-14, u / un[..., None], u)
    return u


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
    if abs(np.linalg.norm(q) - 1.0) > 1e-9:
        raise NotUnit("theta_at base point off S^3")
    if abs(float(q @ v)) > 1e-9 * max(1.0, float(np.linalg.norm(v))):
        raise NotTangent("theta_at argument is not tangent at q")
    return float(-q[1] * v[0] + q[0] * v[1] - q[3] * v[2] + q[2] * v[3])


def vertical_field(q):
    """iq = (-x2, x1, -x4, x3), the generator of the circle action."""
    q = np.asarray(q, dtype=np.float64)
    return np.stack([-q[..., 1], q[..., 0], -q[..., 3], q[..., 2]], axis=-1)


def gauge_of_lift(uhat: LiftField) -> VecField:
    """The 1-form 2 theta(d uhat) of a lift field, componentwise
    2(-x2 d x1 + x1 d x2 - x4 d x3 + x3 d x4) from central differences."""
    h = uhat.grid.h
    x1, x2, x3, x4 = component_planes(uhat.values)
    neg_x2 = -x2
    out = np.empty(uhat.values.shape[:-1] + (3,))
    d = np.empty(x1.shape)
    for j in range(3):
        acc = neg_x2 * stencil_partial(x1, h, j, out=d)
        acc += x1 * stencil_partial(x2, h, j, out=d)
        acc -= x4 * stencil_partial(x3, h, j, out=d)
        acc += x3 * stencil_partial(x4, h, j, out=d)
        np.multiply(2.0, acc, out=out[..., j])
    return VecField(uhat.grid, 1, out)


def stereo_section(p, pole=DEFAULT_POLE):
    """A smooth right inverse of h on S^2 minus a cone around ``pole``.

    Works on one point or an (..., 3) array.  The section is the
    shortest-arc rotation construction: q(p) is the unit quaternion
    conjugating i to the pure quaternion paired with p, routed through a
    fixed intermediate axis so the cut sits exactly at the pole.  The
    roundtrip h(s(p)) = p holds to rounding; TooCloseToPole is raised
    when any input is within ``DEFAULT_POLE_ANGLE`` radians of the pole.
    """
    p = np.asarray(p, dtype=np.float64)
    single = p.ndim == 1
    pts = p[None, :] if single else p
    norms = np.linalg.norm(pts, axis=-1)
    if np.abs(norms - 1.0).max() > 1e-9:
        raise NotUnit("stereo_section input off S^2")
    pole = np.asarray(pole, dtype=np.float64)
    pole = pole / np.linalg.norm(pole)
    ang = np.arccos(np.clip(pts @ pole, -1.0, 1.0))
    if ang.min() < DEFAULT_POLE_ANGLE:
        raise TooCloseToPole(
            f"point within {ang.min():.4f} rad of the section pole")

    m = -_pure_from_target(pole)          # cut sits where v(p) = -m
    iq = np.zeros(4)
    iq[1] = 1.0
    base = np.zeros(4)
    base[0] = 1.0
    t0 = base - _qmul(m, iq)              # shortest arc i -> m
    n0 = np.linalg.norm(t0)
    if n0 > 1e-6:
        p0 = t0 / n0
    else:                                 # m = -i: quarter-turn about j
        p0 = np.array([0.0, 0.0, 1.0, 0.0])

    v = _pure_from_target(pts)
    one = np.zeros(v.shape)
    one[..., 0] = 1.0
    t1 = one - _qmul(v, np.broadcast_to(m, v.shape))  # shortest arc m -> v(p)
    t1 /= np.linalg.norm(t1, axis=-1, keepdims=True)
    q = _qconj(_qmul(t1, np.broadcast_to(p0, t1.shape)))
    return q[0] if single else q


def section_of_map(u: SphereMapField, pole=DEFAULT_POLE) -> LiftField:
    """Compose the section with a sphere-valued field nodewise."""
    vals = stereo_section(u.values.reshape(-1, 3), pole)
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

    def to_dict(self):
        d = dict(self.__dict__)
        d["max_defect"] = self.max_defect()
        return d


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


def _area_form(u, a, b):
    """Evaluate the S^2 area form at u on tangent vectors a, b."""
    return float(u @ np.cross(a, b))


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
            lhs = _area_form(u, images[a_i], images[b_i])
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
    if not (uhat.grid == u.grid == eta.grid):
        raise ValueError("fields live on different grids")
    h = uhat.grid.h
    out = energy_density(uhat.values, h)
    out -= 0.25 * np.einsum("...c,...c->...", eta.values, eta.values)
    out -= 0.25 * energy_density(u.values, h)
    return ScalarField(uhat.grid, out)
