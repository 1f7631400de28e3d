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

    Of the grid's arrays only the 1-d axis and the node weights are cached.

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
        """Three (n,n,n) node coordinates, 'ij' indexing: read-only
        broadcast views of ``axis()``, so they take no memory of size n^3."""
        x = self.axis()
        return np.meshgrid(x, x, x, indexing="ij", copy=False)

    def radii(self):
        """(n,n,n) Euclidean node distances from the origin: the squares of
        the axis summed in the order of the dense coordinates, same bits."""
        sq = self.axis() * self.axis()
        r = sq[:, None, None] + sq[None, :, None] + sq[None, None, :]
        return np.sqrt(r, out=r)

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


def _trapezoid(n):
    """1-d trapezoid factors: 1 inside, 1/2 at both ends."""
    c = np.ones(n)
    c[0] = c[-1] = 0.5
    return c


@lru_cache(maxsize=8)
def _node_weights(n):
    h = 2.0 / (n - 1)
    c = _trapezoid(n)
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


def stencil_partial(f, h, axis, out=None):
    """``np.gradient(f, h, edge_order=2)[axis]`` of an array, bit for
    bit, without the other partials.

    The interior is (f[i+1] - f[i-1]) / (2h); each face takes numpy's
    one-sided coefficients -1.5/h, 2/h, -0.5/h (mirrored at the far face)
    in numpy's operation order.  ``out`` may be any view of f's shape.
    """
    if out is None:
        out = np.empty(f.shape)
    g = np.moveaxis(f, axis, 0)
    o = np.moveaxis(out, axis, 0)
    np.subtract(g[2:], g[:-2], out=o[1:-1])
    o[1:-1] /= 2.0 * h
    o[0] = (-1.5 / h) * g[0] + (2.0 / h) * g[1] + (-0.5 / h) * g[2]
    o[-1] = (0.5 / h) * g[-3] + (-2.0 / h) * g[-2] + (1.5 / h) * g[-1]
    return out


def component_planes(values):
    """Contiguous (n,n,n) copies of the components of a (n,n,n) or
    (n,n,n,c) array, so each stencil pass runs on unit strides."""
    if values.ndim == 3:
        return [np.ascontiguousarray(values)]
    return [np.ascontiguousarray(values[..., c])
            for c in range(values.shape[-1])]


def axis_partials(values, h):
    """The three partials of every component: entry j is an (n,n,n,c)
    array (c = 1 for scalar input) holding d_j of each component, i.e.
    ``component_partials(values, h)[..., j, :]``, contiguous."""
    planes = component_planes(values)
    out = [np.empty(planes[0].shape + (len(planes),)) for _ in range(3)]
    for c, plane in enumerate(planes):
        for j in range(3):
            stencil_partial(plane, h, j, out=out[j][..., c])
    return out


def energy_density(values, h):
    """|grad v|^2 per node of a (n,n,n) or (n,n,n,c) array v:
    ``np.einsum("...jc,...jc->...", d, d)`` for
    d = ``component_partials(values, h)``, bit for bit.

    einsum reduces each node's 3c products with fused multiply-adds in
    an order no sum of planes reproduces, so the stack is kept, but for
    one x1-row r at a time, in an (n,n,3,c) buffer: the x1 stencil runs
    on rows r-1..r+1 (the three next to a face), the x2 and x3 stencils
    on row r.
    """
    n = values.shape[0]
    v = _flat_values(values)
    out = np.empty(v.shape[:3])
    d = np.empty(v.shape[1:3] + (3, v.shape[-1]))
    for r in range(n):
        s = max(0, min(r - 1, n - 3))
        d[..., 0, :] = stencil_partial(v[s:s + 3], h, 0)[r - s]
        stencil_partial(v[r], h, 0, out=d[..., 1, :])
        stencil_partial(v[r], h, 1, out=d[..., 2, :])
        np.einsum("...jc,...jc->...", d, d, out=out[r])
    return out


def component_partials(values, h):
    """All first partials of a (n,n,n) or (n,n,n,c) array.

    Returns an array with two trailing axes (j, c): entry [..., j, c] is
    the j-th partial of component c.  Scalar input yields c = 1.
    """
    return np.stack(axis_partials(values, h), axis=-2)


def grad(f: ScalarField) -> VecField:
    """Discrete gradient of a 0-form; exact on polynomials of degree <= 2."""
    plane = np.ascontiguousarray(f.values)
    g = np.empty(plane.shape + (3,))
    for j in range(3):
        stencil_partial(plane, f.grid.h, j, out=g[..., j])
    return VecField(f.grid, 1, g)


def curl(a: VecField) -> VecField:
    """Exterior derivative of a 1-form, as the vector curl."""
    if a.degree != 1:
        raise ValueError("curl acts on degree-1 fields")
    h = a.grid.h
    p = component_planes(a.values)
    out = np.empty(a.values.shape)
    for c, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        # component c is d_j a_k - d_k a_j
        np.subtract(stencil_partial(p[k], h, j), stencil_partial(p[j], h, k),
                    out=out[..., c])
    return VecField(a.grid, 2, out)


def div(a: VecField) -> ScalarField:
    """Coordinate divergence.  On degree 2 this realizes the exterior
    derivative of the 2-form; on degree 1 it is the codifferential d*."""
    h = a.grid.h
    out = np.zeros(a.values.shape[:-1])
    for c, plane in enumerate(component_planes(a.values)):
        out += stencil_partial(plane, h, c)
    return ScalarField(a.grid, out)


# ---------------------------------------------------------------------------
# inner products and norms


def _flat_values(v):
    return v[..., None] if v.ndim == 3 else v


def face_trace(values):
    """The face-normal component of (n,n,n,3) values on each cube face,
    faces in the order x1 = -1, +1, x2 = -1, +1, x3 = -1, +1, with the
    faces' 2-d trapezoid weights."""
    n = values.shape[0]
    h = 2.0 / (n - 1)
    c = _trapezoid(n)
    area = (h * h * c[:, None] * c[None, :]).ravel()
    faces = [np.moveaxis(values[..., axis], axis, 0)[side].ravel()
             for axis in range(3) for side in (0, -1)]
    return np.concatenate(faces), np.tile(area, 6)


def integrate(grid, density, region="cube"):
    """Trapezoid-weighted sum of an (n,n,n) density over the selected
    region (see ``Grid3.region_mask``), in node order."""
    mask = grid.region_mask(region)
    return float(np.sum(density[mask] * grid.node_weights()[mask]))


def l2_inner(a, b, region="cube"):
    """Trapezoid-weighted L^2 pairing over the selected region.

    Both fields must share the grid; VecFields must share the degree.
    """
    _same_grid(a, b)
    if isinstance(a, VecField) and isinstance(b, VecField) and a.degree != b.degree:
        raise ValueError("degree mismatch in l2_inner")
    va, vb = _flat_values(a.values), _flat_values(b.values)
    if va.shape != vb.shape:
        raise ValueError("component mismatch in l2_inner")
    return integrate(a.grid, np.einsum("...c,...c->...", va, vb), region)


def l2_norm(a, region="cube"):
    return float(np.sqrt(max(l2_inner(a, a, region), 0.0)))


def pointwise_magnitude(a):
    """Euclidean magnitude per node, as an (n,n,n) array."""
    v = _flat_values(a.values)
    return np.sqrt(np.einsum("...c,...c->...", v, v))


def lp_norm(a, p, region="cube"):
    """(integral of |a|^p)^(1/p) with trapezoid weights."""
    if p <= 0:
        raise ValueError("p must be positive")
    return integrate(a.grid, pointwise_magnitude(a) ** p, region) ** (1.0 / p)


def l1_norm(a, region="cube"):
    return lp_norm(a, 1.0, region)


# ---------------------------------------------------------------------------
# mollification


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


def box_mask(grid, half_width):
    """Nodes of the centred box max_i |x_i| <= half_width."""
    inside = np.abs(grid.axis()) <= half_width
    return (inside[:, None, None] & inside[None, :, None]
            & inside[None, None, :])


def mollify_region_mask(grid, eps):
    """Nodes far enough from the cube boundary for the kernel to fit:
    max_i |x_i| <= 1 - 3*eps.  May be empty for large eps."""
    return box_mask(grid, 1.0 - 3.0 * eps + 1e-12)


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
