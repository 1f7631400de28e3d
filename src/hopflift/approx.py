"""Constraint-preserving smooth approximation.

The pipeline smooths the lift, not the map: mollify uhat componentwise,
renormalize, project down, and take the gauge of the smoothed lift.  The
smoothed pair then satisfies the exactness constraint by construction, up
to the closed remainder eta - 2 uhat*theta, which is mollified in the
same pass as the lift and added back.  Widths too coarse for the map's
oscillation collapse the mollified modulus and are rejected rather than
renormalized through zero.

The lift and the remainder are written into one 7-channel array and
mollified there in place; the lift is renormalized in that array, the
smoothed gauge takes the remainder in its own buffer, and the constraint
residual is formed in the buffer of curl eta_eps.  Beyond the lift's own
peak a call holds the channels, the kernel's x3 lines and one channel's
pruned transforms at a time: its x3 lines, one slab of x3-frequencies
beside the kernel's slab of the same frequencies, and the smoothing
box's spectrum.  The sweep runs one width at a time and keeps its
report.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ProjectionDegenerate
from .fields import (LiftField, SphereMapField, VecField, check_width, curl,
                     energy_density, index_box, integrate, l2_norm,
                     mollify_box, mollify_components)
from .fileio import open_output
from .hopf import gauge_of_lift, hopf
from .lift import LiftConfig, LiftReport, lift
from .pullback import pullback_area_form

#: mollified lift moduli below this cannot be renormalized meaningfully
MODULUS_FLOOR = 0.5

#: the sweep CSV's columns, each an ApproxReport field
SWEEP_COLUMNS = ("eps", "dist_u_w12", "dist_eta_l2", "constraint_residual")


@dataclass
class ApproxReport:
    eps: float
    constraint_residual: float   # ||curl eta_eps - D(u_eps)|| on the deep interior
    dist_u_w12: float            # ||u_eps - u||_W12 on the ball mask
    dist_eta_l2: float           # ||eta_eps - eta||_L2 on the ball mask
    curl_remainder_norm: float   # ||curl (eta - gauge(uhat))||
    min_modulus: float
    lift: LiftReport

    def to_dict(self):
        d = dict(self.__dict__)
        d["lift"] = self.lift.to_dict()
        return d

    def row(self):
        return tuple(getattr(self, name) for name in SWEEP_COLUMNS)


def _w12_distance(grid, diff, region):
    sq = np.einsum("...c,...c->...", diff, diff)
    sq = sq + energy_density(diff, grid.h)
    return float(np.sqrt(integrate(grid, sq, region)))


def approximate(u: SphereMapField, eta: VecField, eps, cfg: LiftConfig = None):
    """One smoothing step at width eps.

    Returns (u_eps, eta_eps, ApproxReport).  Before the lift it raises
    ``check_width``'s WidthTooSmall.  Lift errors propagate.  After the
    lift it raises ProjectionDegenerate when 3*eps exceeds the domain
    half-width so that no node gets mollified at all, or when the
    mollified lift modulus falls below 1/2 anywhere.
    """
    grid = u.grid
    check_width(grid, eps)
    uhat, lift_report = lift(u, eta, cfg)
    a, b = mollify_box(grid, eps)
    if a == b:
        raise ProjectionDegenerate(
            f"mollification window 3*eps = {3 * eps:.3f} exceeds the domain "
            "half-width; no node is smoothed")

    # one 7-channel array and one kernel transform: the lift in channels
    # 0-3 and the remainder in 4-6 are mollified in place, and each stage
    # below works in the channels or in a buffer of the one before
    channels = np.empty(uhat.values.shape[:-1] + (7,))
    channels[..., :4] = uhat.values
    np.subtract(eta.values, gauge_of_lift(uhat).values, out=channels[..., 4:])
    del uhat
    curl_remainder = l2_norm(curl(VecField(grid, 1, channels[..., 4:])))
    mollify_components(grid, channels, eps, out=channels)
    smoothed, zeta_tilde = channels[..., :4], channels[..., 4:]
    moduli = np.sqrt(np.einsum("...c,...c->...", smoothed, smoothed))
    min_modulus = float(moduli.min())
    if min_modulus < MODULUS_FLOOR:
        raise ProjectionDegenerate(
            f"mollified lift modulus dropped to {min_modulus:.3f}; width "
            f"eps = {eps} is too coarse for the map's oscillation")
    smoothed /= moduli[..., None]
    del moduli
    uhat_eps = LiftField(grid, smoothed)
    u_eps = SphereMapField(grid, hopf(uhat_eps.values))
    zeta = gauge_of_lift(uhat_eps).values
    zeta += zeta_tilde
    eta_eps = VecField(grid, 1, zeta)
    del channels, smoothed, zeta_tilde, uhat_eps

    # constraint residual on the box [a+2, b-2)^3: the smoothing is exact
    # convolution on [a, b)^3, and eta_eps holds partials of the smoothed
    # lift, whose curl reads them one node further; NaN when it is empty
    deep = index_box(grid.n, a + 2, b - 2)
    resid = curl(eta_eps).values
    resid -= pullback_area_form(u_eps).values
    resid = VecField(grid, 2, resid)
    constraint = l2_norm(resid, deep) if deep.any() else float("nan")
    del resid

    report = ApproxReport(
        eps=float(eps),
        constraint_residual=constraint,
        dist_u_w12=_w12_distance(grid, u_eps.values - u.values, "ball"),
        dist_eta_l2=l2_norm(VecField(grid, 1, eta_eps.values - eta.values),
                            "ball"),
        curl_remainder_norm=curl_remainder,
        min_modulus=min_modulus,
        lift=lift_report,
    )
    return u_eps, eta_eps, report


def convergence_sweep(u: SphereMapField, eta: VecField, eps_list,
                      cfg: LiftConfig = None):
    """One approximate call per width, widths strictly decreasing, run in
    order on the calling thread; returns the reports.  One width's fields
    are alive at a time, and the first width that fails raises.  Each
    call's CG blocks and FFT lines take ``worker_count`` threads."""
    eps_list = [float(e) for e in eps_list]
    if not all(b < a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    return [approximate(u, eta, eps, cfg)[2] for eps in eps_list]


def write_sweep_csv(reports, path):
    with open_output(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for rep in reports:
            writer.writerow([repr(v) for v in rep.row()])
