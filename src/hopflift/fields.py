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

from dataclasses import dataclass, replace
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
        return box_mask(self, 1.0 - 0.5 * self.h)

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


def _check_unit(values, what, tol):
    """NotUnit unless every (..., c) value's norm lies within tol of 1."""
    # the root, the -1 and the abs run in the einsum's own output, which
    # is a scalar for a single point
    drift = np.atleast_1d(np.einsum("...c,...c->...", values, values))
    np.sqrt(drift, out=drift)
    drift -= 1.0
    drift = np.abs(drift, out=drift).max()
    if drift > tol:
        raise NotUnit(f"{what}: |value| off the unit sphere by {drift:.3e}")


def _direction_norm(v, what):
    """|v|; NotUnit when v is zero or its norm is not finite."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
    if not 0.0 < norm < np.inf:
        raise NotUnit(f"{what} {v.tolist()} cannot be normalized")
    return norm


@dataclass
class SphereMapField:
    """Grid sample of a map into S^2; unit norm at every node."""

    grid: Grid3
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        self.values = _check_values(self.values, (n, n, n, 3), "SphereMapField")
        _check_unit(self.values, "SphereMapField", UNIT_TOL)


@dataclass
class LiftField:
    """Grid sample of a map into S^3 viewed as (x1+ix2, x3+ix4) in C^2;
    unit norm at every node."""

    grid: Grid3
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        self.values = _check_values(self.values, (n, n, n, 4), "LiftField")
        _check_unit(self.values, "LiftField", UNIT_TOL)


def _same_grid(*fields):
    if any(f.grid != fields[0].grid for f in fields[1:]):
        raise ValueError("fields live on different grids")


#: points per block of ``node_blocks``
NODE_BLOCK = 1 << 14


def node_blocks(count):
    """Near-equal (lo, hi) blocks that tile range(count) in order, each
    of at most ``NODE_BLOCK`` points (read at call time), for pointwise
    work that holds one block's temporaries.  Sizes differ by at most
    one, so no block is a lone last point, which matmul would take as a
    vector product that rounds differently."""
    blocks = -(-count // NODE_BLOCK)
    return [(count * b // blocks, count * (b + 1) // blocks)
            for b in range(blocks)]


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
    _stencil_rows(np.swapaxes(f, axis, 0), h, 0, f.shape[axis],
                  np.swapaxes(out, axis, 0))
    return out


def _stencil_rows(g, h, lo, hi, out):
    """Rows lo..hi-1 of ``stencil_partial(g, h, 0)`` into ``out``, which
    has hi - lo rows: rows 0 and len(g) - 1 of g take the one-sided
    stencils, the others the central one."""
    a, b = max(lo, 1), min(hi, len(g) - 1)
    np.subtract(g[a + 1:b + 1], g[a - 1:b - 1], out=out[a - lo:b - lo])
    out[a - lo:b - lo] /= 2.0 * h
    # a face row adds c0 g0 + c1 g1 + c2 g2 left to right, numpy's order,
    # in out's row, so it takes one row of temporaries
    if lo == 0:
        np.multiply(-1.5 / h, g[0], out=out[0])
        out[0] += (2.0 / h) * g[1]
        out[0] += (-0.5 / h) * g[2]
    if hi == len(g):
        np.multiply(0.5 / h, g[-3], out=out[-1])
        out[-1] += (-2.0 / h) * g[-2]
        out[-1] += (1.5 / h) * g[-1]


#: x1-rows per block of ``row_partials`` in ``component_partials``,
#: ``curl``, ``div``, ``hopf.gauge_of_lift`` and ``pullback``, chosen by
#: timing the last four at n = 65 and 97 on a 4 MB L2: 3 to 4 rows were
#: fastest, 6 to 16 rows up to 1.3x slower at n = 97, where 4 rows of a
#: lift's 12 partials take 3.6 MB
BLOCK_ROWS = 4


def row_partials(values, h, rows, axes=None):
    """Walk the x1-rows of a (n,n,n) or (n,n,n,c) array in blocks of
    ``rows``: yield (lo, hi, parts) for rows lo..hi-1, where parts[c][j]
    is the j-th partial of component c on those rows, a contiguous
    (hi-lo, n, n) array, bit for bit ``stencil_partial`` of the whole
    component.

    ``axes[c]`` lists the axes j to differentiate component c along
    (all three by default); parts[c][j] is None for the others.

    Each component's block is copied into one contiguous buffer that
    the components share, with the halo rows lo-1 and hi that the x1
    stencil reads when the component takes its x1 partial; next to a
    face the halo widens to the three rows the one-sided stencil needs,
    starting at row max(0, min(lo - 1, n - 3)).  The partials are
    buffers that the next block overwrites.
    """
    v = _flat_values(values)
    n, comps = v.shape[0], v.shape[-1]
    if axes is None:
        axes = [(0, 1, 2)] * comps
    rows = min(rows, n)
    halo = np.empty((min(rows + 2, n), n, n))
    d = [np.empty((len(ax), rows, n, n)) for ax in axes]
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        parts = []
        for c, (ax, dc) in enumerate(zip(axes, d)):
            if 0 in ax:
                s = max(0, min(lo - 1, n - 3))
                e = min(n, max(hi + 1, s + 3))
            else:
                s, e = lo, hi
            g = halo[:e - s]
            np.copyto(g, v[s:e, ..., c])
            pc = [None] * 3
            for j, out in zip(ax, dc[:, :hi - lo]):
                if j == 0:
                    _stencil_rows(g, h, lo - s, hi - s, out)
                else:
                    stencil_partial(g[lo - s:hi - s], h, j, out=out)
                pc[j] = out
            parts.append(pc)
        yield lo, hi, parts


def stacked_partials(parts, stack):
    """The block partials parts[c][j] (``row_partials``) stacked into
    ``stack``, a (rows, n, n, 3, c) buffer, which is returned."""
    for c, pc in enumerate(parts):
        for j in range(3):
            stack[..., j, c] = pc[j]
    return stack


def stacked_squares(parts, stack, out):
    """``np.einsum("...jc,...jc->...", d, d, out=out)`` for d the block
    partials stacked into ``stack`` (``stacked_partials``), which is
    returned.

    einsum reduces each node's 3c products with fused multiply-adds in
    an order no sum of planes reproduces, so the stack is needed; its
    bits do not depend on how many rows it holds.
    """
    stacked_partials(parts, stack)
    np.einsum("...jc,...jc->...", stack, stack, out=out)
    return stack


def energy_density(values, h):
    """|grad v|^2 per node of a (n,n,n) or (n,n,n,c) array v:
    ``np.einsum("...jc,...jc->...", d, d)`` for
    d = ``component_partials(values, h)``, bit for bit.

    ``stacked_squares`` over ``row_partials`` blocks of one x1-row: the
    stack holds 3c partials a node besides the helper's own, so blocks of
    one row keep a call to about 30 n^2 doubles beside its output for
    c = 4.
    """
    v = _flat_values(values)
    out = np.empty(v.shape[:3])
    stack = np.empty((1,) + v.shape[1:3] + (3, v.shape[-1]))
    for lo, hi, parts in row_partials(v, h, 1):
        stacked_squares(parts, stack, out[lo:hi])
    return out


def component_partials(values, h):
    """All first partials of a (n,n,n) or (n,n,n,c) array.

    Returns an array with two trailing axes (j, c): entry [..., j, c] is
    the j-th partial of component c.  Scalar input yields c = 1.  Each
    ``row_partials`` block is stacked into its rows of the result.
    """
    v = _flat_values(values)
    out = np.empty(v.shape[:3] + (3, v.shape[-1]))
    for lo, hi, parts in row_partials(v, h, BLOCK_ROWS):
        stacked_partials(parts, out[lo:hi])
    return out


def grad(f: ScalarField) -> VecField:
    """Discrete gradient of a 0-form; exact on polynomials of degree <= 2."""
    return VecField(f.grid, 1, component_partials(f.values, f.grid.h)[..., 0])


#: the partials curl takes: component k of a is differentiated along
#: the two axes other than k
_CURL_AXES = ((1, 2), (0, 2), (0, 1))


def curl(a: VecField) -> VecField:
    """Exterior derivative of a 1-form, as the vector curl, one
    ``row_partials`` block at a time."""
    if a.degree != 1:
        raise ValueError("curl acts on degree-1 fields")
    out = np.empty(a.values.shape)
    for lo, hi, d in row_partials(a.values, a.grid.h, BLOCK_ROWS, _CURL_AXES):
        for c, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
            # component c is d_j a_k - d_k a_j
            np.subtract(d[k][j], d[j][k], out=out[lo:hi, ..., c])
    return VecField(a.grid, 2, out)


def div(a: VecField) -> ScalarField:
    """Coordinate divergence, one ``row_partials`` block of the three
    diagonal partials at a time.  On degree 2 this realizes the exterior
    derivative of the 2-form; on degree 1 it is the codifferential d*."""
    out = np.zeros(a.values.shape[:-1])
    for lo, hi, d in row_partials(a.values, a.grid.h, BLOCK_ROWS,
                                  ((0,), (1,), (2,))):
        for c in range(3):
            out[lo:hi] += d[c][c]
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
    region (see ``Grid3.region_mask``), in node order.

    The products are summed as one node-ordered run, as the masked
    copies ``density[mask] * weights[mask]`` would be, but the cube
    takes one C-order product and no mask, and any other region turns
    its gathered densities into the products in place."""
    w = grid.node_weights()
    if isinstance(region, str) and region == "cube":
        return float(np.sum(np.multiply(density, w, order="C")))
    mask = grid.region_mask(region)
    vals = density[mask]
    vals *= w[mask]
    return float(np.sum(vals))


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


def lp_norm(a, p, region="cube"):
    """(integral of |a|^p)^(1/p) with trapezoid weights, |a| per node;
    inf where the 1/p root overflows.  p must be positive and finite."""
    if not 0.0 < p < np.inf:
        raise ValueError(f"p must be positive and finite, got {p}")
    v = _flat_values(a.values)
    magnitude = np.sqrt(np.einsum("...c,...c->...", v, v))
    try:
        return integrate(a.grid, magnitude ** p, region) ** (1.0 / p)
    except OverflowError:
        return np.inf


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


def _kernel_spectrum(eps, h, n):
    """Real FFT of the mollifier kernel, zero-padded to the shape that
    ``scipy.signal.fftconvolve`` picks for an n^3 grid, so
    ``_convolve_same`` reproduces it bit for bit.  Returns (spectrum,
    padded shape, start of the ``"same"`` slice)."""
    from scipy import fft as sp_fft
    ker = _gaussian_kernel(eps, h)
    k = ker.shape[0]
    fshape = (sp_fft.next_fast_len(n + k - 1, True),) * 3
    return sp_fft.rfftn(ker, fshape, axes=(0, 1, 2)), fshape, (k - 1) // 2


def _convolve_same(values, spectrum):
    """``fftconvolve(values, _gaussian_kernel(eps, h), mode="same")`` for
    an (n,n,n) array, given ``spectrum = _kernel_spectrum(eps, h, n)``."""
    from scipy import fft as sp_fft
    n = values.shape[0]
    spec, fshape, lo = spectrum
    padded = sp_fft.rfftn(values, fshape, axes=(0, 1, 2))
    padded *= spec
    conv = sp_fft.irfftn(padded, fshape, axes=(0, 1, 2), overwrite_x=True)
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


def check_width(grid, eps):
    """WidthTooSmall unless eps is finite and at least the grid spacing."""
    if not np.isfinite(eps):
        raise WidthTooSmall(f"eps={eps} is not a finite width")
    if eps < grid.h:
        raise WidthTooSmall(f"eps={eps} below grid spacing h={grid.h}")


def mollify_components(grid, values, eps, out=None):
    """Mollify a raw (n,n,n) or (n,n,n,c) array of node values.

    Convolution with the truncated Gaussian is applied at nodes at
    distance >= 3*eps from the cube boundary; outside that shrunken
    region input values are copied unchanged.  A width that is not finite
    or is below the grid spacing raises WidthTooSmall.  When the region
    is empty no kernel is built and the result is a copy of the input.

    The result is written to ``out``, a new array by default, and
    returned.  ``out`` may be ``values`` itself: each component is read
    into the FFT's padded buffer before its slot is written.
    """
    check_width(grid, eps)
    region = mollify_region_mask(grid, eps)
    if out is None:
        out = values.copy()
    elif out is not values:
        np.copyto(out, values)
    vals, res = _flat_values(values), _flat_values(out)
    if region.any():
        spectrum = _kernel_spectrum(float(eps), grid.h, grid.n)
        for c in range(vals.shape[-1]):
            # no convolution outlives its channel's write
            np.copyto(res[..., c], _convolve_same(vals[..., c], spectrum),
                      where=region)
    return out


def mollify(field, eps):
    """Mollify a ScalarField or VecField, returning the same kind.

    Sphere- and lift-valued fields cannot survive mollification with
    their unit-norm invariant intact; smooth those through
    ``mollify_components`` and renormalize explicitly.
    """
    if not isinstance(field, (ScalarField, VecField)):
        raise TypeError("mollify handles ScalarField and VecField")
    return replace(field,
                   values=mollify_components(field.grid, field.values, eps))
