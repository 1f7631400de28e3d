"""Construct the circle-bundle lift of a sphere-valued map from its
gauge.

Given (u, eta) with curl eta ~ D(u), the lift is assembled in one chart:
compose a section with u, measure how far its gauge is from eta, check
that the mismatch is closed, integrate it into a phase by least squares,
and rotate the section by that phase.  The result satisfies h(uhat) = u
exactly (the section roundtrip survives the fiberwise rotation) and
2 uhat*theta = eta up to discretization.  Maps whose range is dense in
the target sphere leave no admissible chart and are rejected.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ChartExhausted, NotClosed, NotConverged
from .fields import (LiftField, SphereMapField, VecField, _same_grid, curl,
                     l2_norm, node_blocks)
from .hopf import (DEFAULT_POLE_ANGLE, energy_identity_defect, gauge_of_lift,
                   hopf, section_of_map)
from . import solvers

#: treat norms below this as zero when forming relative errors
_TINY = 1e-12


def default_pole_candidates():
    """The 12 icosahedron vertices plus the 6 signed axes."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    raw = []
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            raw += [(0.0, s1, s2 * phi), (s1, s2 * phi, 0.0), (s2 * phi, 0.0, s1)]
    raw += [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
            (0.0, -1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
    pts = np.asarray(raw)
    return pts / np.linalg.norm(pts, axis=-1, keepdims=True)


def _min_angles(pts, cands):
    """Min over the points of the angle to each candidate: the arccos of
    ``(pts @ cands.T).max(axis=0)``, taken as a running max over the
    point blocks of ``fields.node_blocks``.  The max is exact, so the
    blocks change no bit, and no (points, candidates) matrix is formed."""
    top = np.full(len(cands), -np.inf)
    for lo, hi in node_blocks(len(pts)):
        np.maximum(top, (pts[lo:hi] @ cands.T).max(axis=0), out=top)
    return np.arccos(np.clip(top, -1.0, 1.0))


def select_pole(u: SphereMapField):
    """(pole, clearance): the ``default_pole_candidates()`` direction
    farthest from the range of u, first in candidate order on ties, and
    its min angle to u in radians, the arccos of the largest u . pole.

    Raises ChartExhausted when no candidate clears ``DEFAULT_POLE_ANGLE``:
    the range of u is too dense on the sphere for a single chart.
    """
    cands = default_pole_candidates()
    min_angles = _min_angles(u.values.reshape(-1, 3), cands)
    best = int(np.argmax(min_angles))
    if min_angles[best] < DEFAULT_POLE_ANGLE:
        raise ChartExhausted(
            f"range of u is {DEFAULT_POLE_ANGLE}-dense on S^2; best "
            f"candidate only {min_angles[best]:.4f} rad clear")
    return cands[best], float(min_angles[best])


@dataclass
class LiftConfig:
    """None entries pick grid-dependent defaults: closed_tol 50 h^2,
    max_iters 20 n."""

    closed_tol: float = None
    rel_tol: float = 1e-8
    max_iters: int = None

    def resolved(self, grid):
        closed = 50.0 * grid.h ** 2 if self.closed_tol is None else self.closed_tol
        iters, tol = solvers.solve_budget(grid.n, self.max_iters, self.rel_tol)
        if not (np.isfinite(closed) and closed > 0.0):
            raise ValueError(
                f"closed_tol must be a positive finite number, got {closed}")
        return closed, tol, iters


@dataclass
class LiftReport:
    pole_used: tuple          # None when produced by verify_lift
    min_pole_distance: float
    alpha_closedness: float
    projection_error: float
    gauge_error: float
    energy_defect: float
    phase_anchor: int
    iterations: int = 0

    def to_dict(self):
        d = dict(self.__dict__)
        d["pole_used"] = None if self.pole_used is None else list(self.pole_used)
        return d


def _solve_phase(grid, rhs, rel_tol, max_iters):
    """Least-squares solution of grad phi = alpha, anchored to zero at
    the node nearest the origin; ``rhs`` is G^T W alpha, the flat
    right-hand side of the normal equations, which the solve overwrites."""
    n = grid.n
    mat, stencil = solvers.phase_normal_matrix(n)
    phi, iters, achieved, converged = solvers.conjugate_gradient(
        mat, rhs, rel_tol, max_iters, stencil)
    phi = phi - phi[grid.origin_index()]
    return phi.reshape(n, n, n), iters, converged, achieved


def _report(u, eta, uhat, **solve_fields):
    """The LiftReport of uhat against (u, eta).  ``solve_fields`` give
    the entries only a solve knows: the pole, its distance, the
    closedness and the iterations."""
    grid = u.grid
    # each difference is formed in the buffer of its first operand
    diff = hopf(uhat.values)
    diff -= u.values
    sq = np.einsum("...c,...c->...", diff, diff)
    projection = float(np.sqrt(sq, out=sq).max())
    del diff, sq
    diff = gauge_of_lift(uhat).values
    diff -= eta.values
    err = l2_norm(VecField(grid, 1, diff))
    del diff
    denom = l2_norm(eta)
    defect = energy_identity_defect(uhat, u, eta).values
    return LiftReport(
        projection_error=projection,
        gauge_error=err / denom if denom > _TINY else err,
        energy_defect=float(np.abs(defect[grid.cube_interior_mask()]).max()),
        phase_anchor=grid.origin_index(),
        **solve_fields)


def lift(u: SphereMapField, eta: VecField, cfg: LiftConfig = None):
    """Produce uhat with h(uhat) = u and gauge close to eta.

    Raises ChartExhausted when no section chart fits the range of u,
    NotClosed when curl of the phase 1-form is too large relative to its
    size (the supplied eta cannot match the pullback of u), and
    NotConverged from the phase solve.
    """
    _same_grid(u, eta)
    if eta.degree != 1:
        raise ValueError("eta must be a degree-1 field")
    cfg = cfg or LiftConfig()
    grid = u.grid
    closed_tol, rel_tol, max_iters = cfg.resolved(grid)

    pole, min_dist = select_pole(u)
    # the section's gauge, measured, then turned in place into the phase
    # form alpha = 0.5 (eta - section gauge); the section itself is not
    # held through the phase solve but rebuilt from the pole after it
    alpha = gauge_of_lift(section_of_map(u, pole))
    gauge_norm = l2_norm(alpha)
    gauge_curl = 0.5 * l2_norm(curl(alpha))
    np.subtract(eta.values, alpha.values, out=alpha.values)
    alpha.values *= 0.5
    # formed before the closedness temporaries, so it cannot pin their heap
    rhs = solvers.block_adjoint(solvers.GRAD, alpha.values).ravel()
    # curl alpha is measured against the problem scale, not just ||alpha||:
    # a bare ratio misfires in both directions, blowing up when eta already
    # sits near the section's gauge (alpha ~ 0 and its curl is two
    # difference stencils' worth of noise) and going quiet when alpha is
    # dominated by a large legitimate gradient part.  The scale combines
    # the gauge size per domain length and the pullback size carried by
    # the section's gauge.
    scale = max(l2_norm(alpha), 0.25 * (l2_norm(eta) + gauge_norm),
                gauge_curl, _TINY)
    closedness = l2_norm(curl(alpha)) / scale
    if closedness > closed_tol:
        raise NotClosed(
            f"curl of the phase form is {closedness:.3e} relative, above "
            f"the closedness tolerance {closed_tol:.3e}; eta does not "
            f"match the pullback of u")

    del alpha
    phi, iters, converged, achieved = _solve_phase(
        grid, rhs, rel_tol, max_iters)
    del rhs
    uhat = section_of_map(u, pole, phi)
    del phi
    # not verify_lift: the public name is the one tracers wrap
    report = _report(u, eta, uhat, pole_used=tuple(float(c) for c in pole),
                     min_pole_distance=min_dist, alpha_closedness=closedness,
                     iterations=iters)
    if not converged:
        raise NotConverged(
            f"phase solve stopped at {iters} iterations with relative "
            f"gradient {achieved:.3e}", result=(uhat, report))
    return uhat, report


def verify_lift(u: SphereMapField, eta: VecField, uhat: LiftField) -> LiftReport:
    """Recompute the lift diagnostics from scratch, independent of how
    uhat was produced.  Pure: repeated calls agree bit-exactly."""
    _same_grid(u, eta, uhat)
    return _report(u, eta, uhat, pole_used=None,
                   min_pole_distance=float("nan"),
                   alpha_closedness=float("nan"))


def relative_phase(uhat: LiftField, reference: LiftField):
    """Pointwise fiber phase of uhat against a reference lift of the
    same map, as an angle field centred on its circular mean.

    For uhat = e^{i delta} reference the pairing
    z conj(z0) + w conj(w0) equals e^{i delta} exactly, and measuring
    deviations from the circular mean keeps a constant offset near +-pi
    from wrapping into a fake spread.
    """
    v, r = uhat.values, reference.values
    z = (v[..., 0] + 1j * v[..., 1]) * (r[..., 0] - 1j * r[..., 1])
    w = (v[..., 2] + 1j * v[..., 3]) * (r[..., 2] - 1j * r[..., 3])
    pair = z + w
    mags = np.abs(pair)
    pair = pair / np.where(mags < _TINY, 1.0, mags)
    mean_dir = pair.mean()
    mean_dir /= max(abs(mean_dir), _TINY)
    return np.angle(pair * np.conj(mean_dir))
