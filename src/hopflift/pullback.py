"""Pullback area form of a sphere-valued map and its exactness
diagnostics.

The 2-form pulled back by u is identified, through the Hodge star, with
the vector field

    D(u) = (u . (d2 u x d3 u), u . (d3 u x d1 u), u . (d1 u x d2 u)),

whose distributional divergence is the obstruction to exactness: smooth
liftable maps give div D(u) = 0, while a degree-one point singularity
carries a 4*pi Dirac mass that is invisible pointwise but exactly visible
as flux through spheres around it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidResolution, RadiusOutOfRange
from .fields import (BLOCK_ROWS, ScalarField, SphereMapField, VecField, div,
                     lattice_sum, row_partials, stacked_squares)

#: point count of the Fibonacci sphere quadrature used for fluxes
FLUX_POINTS = 801

#: radii probed by exactness_defect
FLUX_RADII = (0.25, 0.5, 0.75)

#: statistics ignore nodes within this many spacings of the origin, where
#: a point singularity would dominate every stencil
ORIGIN_EXCLUSION_SPACINGS = 2


def beyond_origin(n, spacings):
    """Mask of the nodes farther than ``spacings`` node spacings from the
    origin, decided in integers: node i lies 2i - (n-1) half-spacings out
    along its axis, so |x| > k h exactly when the squared half-spacing
    offsets sum to more than (2k)^2.  Float radii would let nodes at
    exactly k h through on some grids.  Fractional k work the same way."""
    return lattice_sum((2 * np.arange(n) - (n - 1)) ** 2) > (2 * spacings) ** 2


def _triple_products(uv, d):
    """Yield (k, g_a x g_b, u . (g_a x g_b)) for the components
    k = 2, 1, 0 of D(u), (a, b) = (0, 1), (2, 0), (1, 2), from the
    partials g_j = (d[0][j], d[1][j], d[2][j]), d[c][j] the j-th partial
    of component c as a plane of uv's node shape.

    Every cross product is written into one contiguous (..., 3) scratch
    array, which the next step overwrites, with the products and
    differences of ``np.cross``.  The dot product stays one einsum over
    it: its fused multiply-adds are not what a sum of three planes gives.
    """
    x = np.empty(uv.shape)
    tmp = np.empty(uv.shape[:-1])
    for k, (a, b) in ((2, (0, 1)), (1, (2, 0)), (0, (1, 2))):
        for c, (p, q) in enumerate(((1, 2), (2, 0), (0, 1))):
            np.multiply(d[p][a], d[q][b], out=x[..., c])
            x[..., c] -= np.multiply(d[q][a], d[p][b], out=tmp)
        yield k, x, np.einsum("...c,...c->...", uv, x)


def pullback_area_form(u: SphereMapField) -> VecField:
    """D(u) from central-difference partials, as a degree-2 field, one
    ``row_partials`` block at a time."""
    uv = u.values
    out = np.empty(uv.shape)
    for lo, hi, d in row_partials(uv, u.grid.h, BLOCK_ROWS):
        for k, _, t in _triple_products(uv[lo:hi], d):
            out[lo:hi, ..., k] = t
    return VecField(u.grid, 2, out)


@dataclass
class PointwiseReport:
    """Worst-node defects of the algebraic identities of D(u)."""

    norm_identity_defect: float   # | |D|^2 - sum |d_j u x d_l u|^2 |
    amgm_violation: float         # max(0, |D| - |du|^2 / 2)


def pointwise_identities(u: SphereMapField, exclude_radius=0.0) -> PointwiseReport:
    """Check the pointwise norm identity and the two-form bound.

    Both identities hold exactly for unit u once the discrete partials
    are projected tangentially, so the reported maxima are rounding-level
    for exact-unit inputs and grow linearly with any injected norm error.
    ``exclude_radius`` drops nodes near the origin from the maxima (used
    for fields with a point singularity there), by ``beyond_origin``;
    ValueError unless it is non-negative, InvalidResolution when it
    leaves no interior node.

    u is differentiated once, by ``row_partials`` blocks: each block's
    partials are stacked for |du|^2 (``stacked_squares``, the order of
    ``energy_density``), then projected in the stack.
    """
    if not exclude_radius >= 0.0:
        raise ValueError(
            f"exclude_radius must be non-negative, got {exclude_radius}")
    grid = u.grid
    mask = grid.cube_interior_mask()
    if exclude_radius > 0.0:
        mask = mask & beyond_origin(grid.n, exclude_radius / grid.h)
    if not mask.any():
        raise InvalidResolution(
            f"no interior node beyond |x| = {exclude_radius:.4g} on this grid")
    uv = u.values
    norm_defect = np.empty(uv.shape[:-1])
    amgm = np.empty(uv.shape[:-1])
    stack = np.empty((min(BLOCK_ROWS, grid.n),) + uv.shape[1:3] + (3, 3))
    du_sq = np.empty(stack.shape[:3])
    d_vec = np.empty(stack.shape[:3] + (3,))
    for lo, hi, d in row_partials(uv, grid.h, BLOCK_ROWS):
        ub = uv[lo:hi]
        st = stacked_squares(d, stack[:hi - lo], du_sq[:hi - lo])
        # project the partials onto the tangent plane of u: that enforces
        # what |u| = 1 gives in the continuum, u . d_j u = 0, and makes
        # the pointwise norm identity algebraic rather than O(h^2)
        for j in range(3):
            gj = st[..., j, :]
            gj -= np.einsum("...c,...c->...", gj, ub)[..., None] * ub
        # the projected partials as planes [c][j] for the triple products
        projected = st.transpose(4, 3, 0, 1, 2)
        dv = d_vec[:hi - lo]
        cross_sq = 0
        for k, x, t in _triple_products(ub, projected):
            dv[..., k] = t
            # the crosses come as g0 x g1, g2 x g0 (= -(g0 x g2) exactly),
            # g1 x g2: the order the norm identity sums them in
            cross_sq = cross_sq + np.einsum("...c,...c->...", x, x)
        d_sq = np.einsum("...c,...c->...", dv, dv)
        np.abs(d_sq - cross_sq, out=norm_defect[lo:hi])
        np.maximum(0.0, np.sqrt(d_sq) - 0.5 * du_sq[:hi - lo],
                   out=amgm[lo:hi])
    return PointwiseReport(
        norm_identity_defect=float(norm_defect[mask].max()),
        amgm_violation=float(amgm[mask].max()),
    )


# ---------------------------------------------------------------------------
# flux probes


def _fibonacci_sphere(npts):
    i = np.arange(npts)
    z = 1.0 - (2.0 * i + 1.0) / npts
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=-1)


def _trilinear(values, points, grid):
    """Trilinear interpolation of (n,n,n,c) node values at (m,3) points."""
    g = (points + 1.0) / grid.h
    base = np.clip(np.floor(g).astype(np.intp), 0, grid.n - 2)
    f = g - base
    out = np.zeros((points.shape[0], values.shape[-1]))
    for di in (0, 1):
        wi = f[:, 0] if di else 1.0 - f[:, 0]
        for dj in (0, 1):
            wj = f[:, 1] if dj else 1.0 - f[:, 1]
            for dk in (0, 1):
                wk = f[:, 2] if dk else 1.0 - f[:, 2]
                out += (wi * wj * wk)[:, None] * values[
                    base[:, 0] + di, base[:, 1] + dj, base[:, 2] + dk]
    return out


def sphere_flux(d_field: VecField, radius):
    """Outward flux of a degree-2 field through the sphere |x| = radius,
    by Fibonacci-point quadrature with trilinear interpolation."""
    grid = d_field.grid
    if not 0.0 < radius < 1.0 - 3.0 * grid.h:
        raise RadiusOutOfRange(
            f"flux radius must lie in (0, 1 - 3h) = (0, {1 - 3 * grid.h:.4f})")
    normals = _fibonacci_sphere(FLUX_POINTS)
    vals = _trilinear(d_field.values, radius * normals, grid)
    integrand = np.einsum("ij,ij->i", vals, normals)
    return float(4.0 * np.pi * radius * radius / FLUX_POINTS * integrand.sum())


# ---------------------------------------------------------------------------
# exactness verdict


@dataclass
class ExactnessReport:
    """Divergence defect of D(u) plus origin-centred flux probes."""

    div_defect: ScalarField
    max_interior_div: float
    flux_by_radius: list      # [(radius, flux), ...]
    verdict: str              # exact | singular | inconclusive
    tol: float

    def to_dict(self):
        return {
            "max_interior_div": self.max_interior_div,
            "flux_by_radius": [[r, f] for r, f in self.flux_by_radius],
            "verdict": self.verdict,
            "tol": self.tol,
        }


def exactness_tol(grid):
    """Default tolerance of ``exactness_defect``: 10 h^2, the stencil order."""
    return 10.0 * grid.h ** 2


def exactness_defect(u: SphereMapField, tol=None) -> ExactnessReport:
    """Test weak exactness of the pullback form of u.

    The pointwise part checks max |div D(u)| * h over interior nodes
    (those within 2h of the origin excluded); the distributional part
    probes the flux of D(u) through the spheres of radius 0.25, 0.5 and
    0.75.  ``exact`` needs both small; consistent large fluxes mean
    ``singular``; anything else is ``inconclusive``.  The default
    tolerance is ``exactness_tol(grid)``; one that is not positive and
    finite raises ValueError.  Grids with no room for a probe sphere
    inside |x| < 1 - 3h (``sphere_flux``), n < 8, raise
    InvalidResolution.
    """
    grid = u.grid
    margin = 1.0 - 3.0 * grid.h
    if margin <= 0.0:
        raise InvalidResolution(
            f"the flux probes need 1 - 3h > 0, that is n >= 8; got n={grid.n}")
    tol = exactness_tol(grid) if tol is None else tol
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    d_field = pullback_area_form(u)
    defect = div(d_field)
    mask = grid.cube_interior_mask() & beyond_origin(
        grid.n, ORIGIN_EXCLUSION_SPACINGS)
    max_div = float(np.abs(defect.values[mask]).max())
    # on coarse grids the outer probes violate the interpolation margin;
    # probe whatever radii remain admissible
    radii = [r for r in FLUX_RADII if r < margin]
    if not radii:
        radii = [0.5 * margin]
    fluxes = [(r, sphere_flux(d_field, r)) for r in radii]

    flux_vals = np.array([f for _, f in fluxes])
    pointwise_ok = max_div * grid.h <= tol
    fluxes_small = np.abs(flux_vals).max() <= tol
    mean_flux = float(flux_vals.mean())
    spread = float(flux_vals.max() - flux_vals.min())
    consistent = spread <= max(tol, 0.05 * abs(mean_flux))

    if pointwise_ok and fluxes_small:
        verdict = "exact"
    elif consistent and abs(mean_flux) > tol:
        verdict = "singular"
    else:
        verdict = "inconclusive"
    return ExactnessReport(defect, max_div, fluxes, verdict, float(tol))
