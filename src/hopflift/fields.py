"""Structured-grid calculus on the cube [-1,1]^3.

Nodes are collocated: every field stores one value (or one small vector)
per node of an n x n x n lattice.  Arrays are indexed ``[i, j, k]`` for the
(x1, x2, x3) axes, components last.  Differential operators use
second-order central differences inside the cube and second-order
one-sided stencils on its faces, which makes them exact on quadratics and
makes d(d(.)) vanish to rounding because the three 1-d stencils commute.

The continuum domain of interest is the unit ball; it is represented here
as the inscribed-ball node mask of the cube grid, used only to restrict
norms.  The cube carries the stencils and boundary conditions.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidResolution, NotUnit, WidthTooSmall

DEFAULT_BALL_MARGIN = 0.05

#: |u| may drift this far from 1 before a map field is rejected.
UNIT_TOL = 1e-12


@dataclass(frozen=True)
class Grid3:
    """Uniform node grid on [-1,1]^3 with an inscribed-ball mask.

    Attributes
    ----------
    n : int
        Nodes per axis (the same for all three).
    ball_margin : float
        Radius shrink for the ball mask: nodes with |x| <= 1 - ball_margin
        count as ball-interior.
    """

    n: int
    ball_margin: float = DEFAULT_BALL_MARGIN

    def __post_init__(self):
        if self.n < 3:
            raise InvalidResolution(f"need n >= 3 nodes per axis, got {self.n}")
        if not 0.0 <= self.ball_margin < 1.0:
            raise InvalidResolution(
                f"ball_margin must lie in [0, 1), got {self.ball_margin}")

    @property
    def h(self):
        """Node spacing 2/(n-1)."""
        return 2.0 / (self.n - 1)

    @property
    def num_nodes(self):
        return self.n ** 3

    def axis(self):
        """Node coordinates along one axis; endpoints are exactly +-1."""
        return _axis(self.n)

    def coords(self):
        """Three (n,n,n) arrays of node coordinates, 'ij' indexing."""
        return _coords(self.n)

    def radii(self):
        """(n,n,n) array of Euclidean node distances from the origin."""
        return _radii(self.n)

    def ball_mask(self):
        """Boolean mask of ball-interior nodes (|x| <= 1 - ball_margin)."""
        return self.radii() <= 1.0 - self.ball_margin

    def cube_interior_mask(self):
        """Nodes not on the cube boundary (central stencils only)."""
        m = np.zeros((self.n,) * 3, dtype=bool)
        m[1:-1, 1:-1, 1:-1] = True
        return m

    def node_weights(self):
        """Trapezoidal quadrature weights, (n,n,n): h^3 times 1/2 per
        face factor (so 1/4 on edges, 1/8 at corners)."""
        return _node_weights(self.n)

    def origin_index(self):
        """Flat index of the node nearest the origin (first on ties)."""
        return int(np.argmin(self.radii()))

    def region_mask(self, region):
        """Resolve a region selector: 'cube', 'ball', or a boolean mask."""
        if isinstance(region, str):
            if region == "cube":
                return np.ones((self.n,) * 3, dtype=bool)
            if region == "ball":
                return self.ball_mask()
            raise ValueError(f"unknown region {region!r}")
        mask = np.asarray(region, dtype=bool)
        if mask.shape != (self.n,) * 3:
            raise ValueError("region mask shape does not match grid")
        return mask


@lru_cache(maxsize=32)
def _axis(n):
    x = np.linspace(-1.0, 1.0, n)
    x.setflags(write=False)
    return x


@lru_cache(maxsize=8)
def _coords(n):
    out = np.meshgrid(_axis(n), _axis(n), _axis(n), indexing="ij")
    for a in out:
        a.setflags(write=False)
    return tuple(out)


@lru_cache(maxsize=8)
def _radii(n):
    x1, x2, x3 = _coords(n)
    r = np.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    r.setflags(write=False)
    return r


@lru_cache(maxsize=8)
def _node_weights(n):
    h = 2.0 / (n - 1)
    c = np.ones(n)
    c[0] = c[-1] = 0.5
    w = h ** 3 * c[:, None, None] * c[None, :, None] * c[None, None, :]
    w.setflags(write=False)
    return w


def make_grid(n, ball_margin=DEFAULT_BALL_MARGIN):
    """Build a Grid3; raises InvalidResolution for n < 3."""
    return Grid3(int(n), float(ball_margin))


# ---------------------------------------------------------------------------
# field containers


def _check_values(values, shape, what):
    values = np.asarray(values, dtype=np.float64)
    if values.shape != shape:
        raise ValueError(f"{what}: expected shape {shape}, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what}: values must be finite")
    return values


@dataclass
class ScalarField:
    """One f64 per node."""

    grid: Grid3
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        self.values = _check_values(self.values, (n, n, n), "ScalarField")


@dataclass
class VecField:
    """Three f64 per node, standing for a 1-form (degree 1, via
    index-raising) or a 2-form (degree 2, via the Hodge star)."""

    grid: Grid3
    degree: int
    values: np.ndarray

    def __post_init__(self):
        if self.degree not in (1, 2):
            raise ValueError(f"degree must be 1 or 2, got {self.degree}")
        n = self.grid.n
        self.values = _check_values(self.values, (n, n, n, 3), "VecField")


def _check_unit(values, what):
    norms = np.sqrt(np.einsum("...c,...c->...", values, values))
    drift = np.abs(norms - 1.0).max()
    if drift > UNIT_TOL:
        raise NotUnit(f"{what}: |value| off the unit sphere by {drift:.3e}")


@dataclass
class SphereMapField:
    """Grid sample of a map into S^2; unit norm at every node."""

    grid: Grid3
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        self.values = _check_values(self.values, (n, n, n, 3), "SphereMapField")
        _check_unit(self.values, "SphereMapField")


@dataclass
class LiftField:
    """Grid sample of a map into S^3 viewed as (x1+ix2, x3+ix4) in C^2;
    unit norm at every node."""

    grid: Grid3
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        self.values = _check_values(self.values, (n, n, n, 4), "LiftField")
        _check_unit(self.values, "LiftField")


def _same_grid(a, b):
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


# ---------------------------------------------------------------------------
# differential operators


def component_partials(values, h):
    """All first partials of a (n,n,n) or (n,n,n,c) array.

    Returns an array with two trailing axes (j, c): entry [..., j, c] is
    the j-th partial of component c.  Scalar input yields c = 1.
    """
    vals = values if values.ndim == 4 else values[..., None]
    per_comp = [
        np.stack(np.gradient(vals[..., c], h, edge_order=2), axis=-1)
        for c in range(vals.shape[-1])
    ]
    return np.stack(per_comp, axis=-1)


def grad(f: ScalarField) -> VecField:
    """Discrete gradient of a 0-form; exact on polynomials of degree <= 2."""
    g = np.stack(np.gradient(f.values, f.grid.h, edge_order=2), axis=-1)
    return VecField(f.grid, 1, g)


def curl(a: VecField) -> VecField:
    """Exterior derivative of a 1-form, as the vector curl."""
    if a.degree != 1:
        raise ValueError("curl acts on degree-1 fields")
    h = a.grid.h
    d = [np.gradient(a.values[..., c], h, edge_order=2) for c in range(3)]
    out = np.stack(
        [d[2][1] - d[1][2], d[0][2] - d[2][0], d[1][0] - d[0][1]], axis=-1)
    return VecField(a.grid, 2, out)


def div(a: VecField) -> ScalarField:
    """Coordinate divergence.  On degree 2 this realizes the exterior
    derivative of the 2-form; on degree 1 it is the codifferential d*."""
    h = a.grid.h
    out = sum(
        np.gradient(a.values[..., c], h, edge_order=2)[c] for c in range(3))
    return ScalarField(a.grid, out)


# ---------------------------------------------------------------------------
# inner products and norms


def _flat_values(field):
    v = field.values
    return v[..., None] if v.ndim == 3 else v


def l2_inner(a, b, region="cube"):
    """Trapezoid-weighted L^2 pairing over the selected region.

    Both fields must share the grid; VecFields must share the degree.
    """
    _same_grid(a, b)
    if isinstance(a, VecField) and isinstance(b, VecField) and a.degree != b.degree:
        raise ValueError("degree mismatch in l2_inner")
    va, vb = _flat_values(a), _flat_values(b)
    if va.shape != vb.shape:
        raise ValueError("component mismatch in l2_inner")
    mask = a.grid.region_mask(region)
    w = a.grid.node_weights()
    return float(np.sum(np.einsum("...c,...c->...", va, vb)[mask] * w[mask]))


def l2_norm(a, region="cube"):
    return float(np.sqrt(max(l2_inner(a, a, region), 0.0)))


def pointwise_magnitude(a):
    """Euclidean magnitude per node, as an (n,n,n) array."""
    v = _flat_values(a)
    return np.sqrt(np.einsum("...c,...c->...", v, v))


def lp_norm(a, p, region="cube"):
    """(integral of |a|^p)^(1/p) with trapezoid weights."""
    if p <= 0:
        raise ValueError("p must be positive")
    mag = pointwise_magnitude(a)
    mask = a.grid.region_mask(region)
    w = a.grid.node_weights()
    return float(np.sum(mag[mask] ** p * w[mask]) ** (1.0 / p))


def l1_norm(a, region="cube"):
    return lp_norm(a, 1.0, region)


# ---------------------------------------------------------------------------
# mollification


@lru_cache(maxsize=32)
def _gaussian_kernel(eps, h):
    """Truncated Gaussian (std eps, support radius 3*eps) sampled on node
    offsets, weights normalized to sum to 1."""
    m = int(np.floor(3.0 * eps / h))
    off = np.arange(-m, m + 1) * h
    dx, dy, dz = np.meshgrid(off, off, off, indexing="ij")
    r2 = dx * dx + dy * dy + dz * dz
    ker = np.exp(-0.5 * r2 / (eps * eps))
    ker[r2 > (3.0 * eps) ** 2] = 0.0
    ker /= ker.sum()
    ker.setflags(write=False)
    return ker


@lru_cache(maxsize=8)
def _kernel_spectrum(eps, h, n):
    """Real FFT of the mollifier kernel, zero-padded to the shape that
    ``scipy.signal.fftconvolve`` picks for an n^3 grid, so
    ``_convolve_same`` reproduces it bit for bit.  Returns (spectrum,
    padded shape, start of the ``"same"`` slice)."""
    from scipy import fft as sp_fft
    ker = _gaussian_kernel(eps, h)
    k = ker.shape[0]
    fshape = (sp_fft.next_fast_len(n + k - 1, True),) * 3
    spec = sp_fft.rfftn(ker, fshape, axes=(0, 1, 2))
    spec.setflags(write=False)
    return spec, fshape, (k - 1) // 2


def _convolve_same(values, eps, h):
    """``fftconvolve(values, _gaussian_kernel(eps, h), mode="same")`` for
    an (n,n,n) array, on the cached kernel spectrum."""
    from scipy import fft as sp_fft
    n = values.shape[0]
    spec, fshape, lo = _kernel_spectrum(eps, h, n)
    padded = sp_fft.rfftn(values, fshape, axes=(0, 1, 2))
    conv = sp_fft.irfftn(padded * spec, fshape, axes=(0, 1, 2))
    return conv[lo:lo + n, lo:lo + n, lo:lo + n]


def mollify_region_mask(grid, eps):
    """Nodes far enough from the cube boundary for the kernel to fit:
    max_i |x_i| <= 1 - 3*eps.  May be empty for large eps."""
    x1, x2, x3 = grid.coords()
    lim = 1.0 - 3.0 * eps + 1e-12
    return (np.abs(x1) <= lim) & (np.abs(x2) <= lim) & (np.abs(x3) <= lim)


def mollify_components(grid, values, eps):
    """Mollify a raw (n,n,n) or (n,n,n,c) array of node values.

    Convolution with the truncated Gaussian is applied at nodes at
    distance >= 3*eps from the cube boundary; outside that shrunken
    region input values are copied unchanged.
    """
    if eps < grid.h:
        raise WidthTooSmall(f"eps={eps} below grid spacing h={grid.h}")
    region = mollify_region_mask(grid, eps)
    vals = values if values.ndim == 4 else values[..., None]
    out = vals.copy()
    for c in range(vals.shape[-1]):
        conv = _convolve_same(vals[..., c], float(eps), grid.h)
        out[..., c] = np.where(region, conv, vals[..., c])
    return out if values.ndim == 4 else out[..., 0]


def mollify(field, eps):
    """Mollify a ScalarField or VecField, returning the same kind.

    Sphere- and lift-valued fields cannot survive mollification with
    their unit-norm invariant intact; smooth those through
    ``mollify_components`` and renormalize explicitly.
    """
    if isinstance(field, ScalarField):
        return ScalarField(field.grid, mollify_components(field.grid, field.values, eps))
    if isinstance(field, VecField):
        return VecField(field.grid, field.degree,
                        mollify_components(field.grid, field.values, eps))
    raise TypeError("mollify handles ScalarField and VecField")
