"""Constraint-preserving smooth approximation.

The pipeline smooths the lift, not the map: mollify uhat componentwise,
renormalize, project down, and take the gauge of the smoothed lift.  The
smoothed pair then satisfies the exactness constraint by construction, up
to the closed remainder eta - 2 uhat*theta, which is mollified and added
back.  Widths too coarse for the map's oscillation collapse the
mollified modulus and are rejected rather than renormalized through zero.
"""

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ProjectionDegenerate
from .fields import (LiftField, SphereMapField, VecField, box_mask, curl,
                     energy_density, integrate, l2_norm, mollify_components,
                     mollify_region_mask)
from .hopf import gauge_of_lift, hopf
from .lift import LiftConfig, LiftReport, lift
from .pullback import pullback_area_form
from .solvers import worker_count

#: mollified lift moduli below this cannot be renormalized meaningfully
MODULUS_FLOOR = 0.5


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
        return (self.eps, self.dist_u_w12, self.dist_eta_l2,
                self.constraint_residual)


def _w12_distance(grid, diff, region):
    sq = np.einsum("...c,...c->...", diff, diff)
    sq = sq + energy_density(diff, grid.h)
    return float(np.sqrt(integrate(grid, sq, region)))


def approximate(u: SphereMapField, eta: VecField, eps, cfg: LiftConfig = None):
    """One smoothing step at width eps.

    Returns (u_eps, eta_eps, ApproxReport).  Raises ProjectionDegenerate
    when the mollified lift modulus falls below 1/2 anywhere, or when
    3*eps exceeds the domain half-width so that no node gets mollified at
    all; lift errors propagate.
    """
    grid = u.grid
    uhat, lift_report = lift(u, eta, cfg)

    region = mollify_region_mask(grid, eps)
    if not region.any():
        raise ProjectionDegenerate(
            f"mollification window 3*eps = {3 * eps:.3f} exceeds the domain "
            "half-width; no node is smoothed")
    smoothed = mollify_components(grid, uhat.values, eps)
    moduli = np.sqrt(np.einsum("...c,...c->...", smoothed, smoothed))
    min_modulus = float(moduli.min())
    if min_modulus < MODULUS_FLOOR:
        raise ProjectionDegenerate(
            f"mollified lift modulus dropped to {min_modulus:.3f}; width "
            f"eps = {eps} is too coarse for the map's oscillation")
    uhat_eps = LiftField(grid, smoothed / moduli[..., None])
    u_eps = SphereMapField(grid, hopf(uhat_eps.values))
    zeta = gauge_of_lift(uhat_eps)

    remainder = VecField(grid, 1, eta.values - gauge_of_lift(uhat).values)
    curl_remainder = l2_norm(curl(remainder))
    zeta_tilde = mollify_components(grid, remainder.values, eps)
    eta_eps = VecField(grid, 1, zeta.values + zeta_tilde)

    # constraint residual where the smoothing is exact convolution and
    # the curl stencil stays inside that region
    deep = box_mask(grid, 1.0 - 3.0 * eps - 2.0 * grid.h)
    resid = VecField(grid, 2,
                     curl(eta_eps).values - pullback_area_form(u_eps).values)
    constraint = l2_norm(resid, deep) if deep.any() else float("nan")

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
    """One approximate call per width, widths strictly decreasing.

    The calls are independent, so they run on a thread pool of
    ``worker_count`` threads; results are gathered in input order, so the
    output does not depend on the thread count.
    """
    eps_list = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    workers = worker_count(len(eps_list))
    if workers == 1:
        results = [approximate(u, eta, e, cfg) for e in eps_list]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(approximate, u, eta, e, cfg) for e in eps_list]
            results = [f.result() for f in futures]
    return [rep for _, _, rep in results]


def write_sweep_csv(reports, path):
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eps", "dist_u_w12", "dist_eta_l2",
                         "constraint_residual"])
        for rep in reports:
            writer.writerow([repr(v) for v in rep.row()])
