import numpy as np
import pytest

from hopflift.errors import (InvalidResolution, NotFinite, NotUnit,
                             PreconditionError, WidthTooSmall)
from hopflift.fields import (Grid3, LiftField, ScalarField, SphereMapField,
                             VecField, _check_unit, _convolve_same,
                             _gaussian_kernel,
                             _kernel_lines, component_partials,
                             curl, div, energy_density,
                             grad, integrate, l1_norm, l2_inner, l2_norm,
                             lp_norm,
                             make_grid, mollify, mollify_box,
                             mollify_components, stencil_partial)


def scalar(grid, arr):
    return ScalarField(grid, arr)


def vec(grid, comps, degree=1):
    return VecField(grid, degree, np.stack(comps, axis=-1))


class TestGrid:
    def test_minimal_grid_enumerated_by_hand(self):
        # 27 nodes with coordinates in {-1,0,1}^3; |x| <= 1 keeps the
        # origin plus the six face centers
        grid = make_grid(3, 0.0)
        assert grid.h == 1.0
        assert grid.radii().size == 27
        assert int(grid.ball_mask().sum()) == 7

    def test_spacing(self):
        assert make_grid(65, 0.05).h == 0.03125

    def test_too_small(self):
        with pytest.raises(InvalidResolution):
            make_grid(2, 0.0)

    @pytest.mark.parametrize("n", [3.7, 9.5, float("nan"), float("inf"),
                                   "17", None])
    def test_not_a_whole_number(self, n):
        # make_grid(3.7) gave an n=3 grid, and Grid3(9.5) failed later in
        # np.linspace
        with pytest.raises(InvalidResolution, match="whole number"):
            make_grid(n)
        with pytest.raises(InvalidResolution, match="whole number"):
            Grid3(n)

    def test_whole_float_and_numpy_sizes_are_ints(self):
        for n in (9.0, np.float64(9.0), np.int64(9)):
            grid = Grid3(n)
            assert type(grid.n) is int and grid == make_grid(9)
            assert grid.axis().size == 9

    def test_endpoints_exact(self):
        x = make_grid(33).axis()
        assert x[0] == -1.0 and x[-1] == 1.0

    def test_mask_symmetric_under_axis_permutations_and_flips(self):
        m = make_grid(9, 0.1).ball_mask()
        for perm in ((1, 0, 2), (2, 1, 0), (0, 2, 1)):
            assert np.array_equal(m, np.transpose(m, perm))
        for axis in range(3):
            assert np.array_equal(m, np.flip(m, axis=axis))

    def test_coords_are_read_only_views_of_axis(self):
        grid = make_grid(9)
        coords = grid.coords()
        assert len(coords) == 3
        for c in coords:
            assert c.shape == (9, 9, 9)
            assert np.shares_memory(c, grid.axis())
            with pytest.raises(ValueError):
                c[0, 0, 0] = 1.0

    @pytest.mark.parametrize("n", range(3, 41))
    def test_radii_match_dense_coordinates(self, n):
        # the squares of the 1-d axis summed in the dense order give the
        # same bits; even n put ties around the origin for argmin to break
        grid = make_grid(n)
        x1, x2, x3 = np.meshgrid(*(np.linspace(-1.0, 1.0, n),) * 3,
                                 indexing="ij")
        dense = np.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
        assert np.array_equal(grid.radii(), dense)
        assert grid.origin_index() == int(np.argmin(dense))

    def test_cube_interior_matches_coordinate_rule(self):
        # indices [1, n-1) are the nodes with max_i |x_i| <= 1 - h/2
        for n in range(3, 130):
            grid = make_grid(n)
            assert np.array_equal(grid.cube_interior_mask(),
                                  box_mask(grid, 1.0 - 0.5 * grid.h)), n


def test_fields_imports_only_errors_from_the_package():
    # fields is the base of the package: every module but errors imports
    # it, so an import of any of those here would be a cycle
    import ast
    import hopflift.fields
    with open(hopflift.fields.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    own = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                own.append(node.module)
            elif (node.module or "").split(".")[0] == "hopflift":
                own.append(node.module)
        elif isinstance(node, ast.Import):
            own += [a.name for a in node.names
                    if a.name.split(".")[0] == "hopflift"]
    assert own == ["errors"]


class TestOperators:
    grid = make_grid(17)

    def coords(self):
        return self.grid.coords()

    def test_grad_affine_exact(self):
        x1, _, _ = self.coords()
        g = grad(scalar(self.grid, x1.copy()))
        assert np.abs(g.values[..., 0] - 1.0).max() == 0.0
        assert np.abs(g.values[..., 1:]).max() == 0.0

    def test_grad_quadratic_exact(self):
        x1, x2, _ = self.coords()
        g = grad(scalar(self.grid, x1 * x2))
        assert np.abs(g.values[..., 0] - x2).max() < 1e-13
        assert np.abs(g.values[..., 1] - x1).max() < 1e-13
        assert np.abs(g.values[..., 2]).max() == 0.0

    def test_grad_constant(self):
        g = grad(scalar(self.grid, np.full((17, 17, 17), 3.5)))
        assert np.abs(g.values).max() == 0.0

    def test_curl_rotation_field(self):
        x1, x2, _ = self.coords()
        a = vec(self.grid, [-x2 / 2, x1 / 2, np.zeros_like(x1)])
        c = curl(a)
        assert np.abs(c.values[..., 2] - 1.0).max() < 1e-13
        assert np.abs(c.values[..., :2]).max() < 1e-13

    def test_curl_of_gradient_vanishes(self):
        x1, x2, x3 = self.coords()
        c = curl(grad(scalar(self.grid, x1 * x2 * x3)))
        assert np.abs(c.values).max() <= 1e-12 / self.grid.h ** 2

    def test_curl_constant(self):
        a = vec(self.grid, [np.full((17,) * 3, 2.0)] * 3)
        assert np.abs(curl(a).values).max() == 0.0

    def test_div_identity_field(self):
        x1, x2, x3 = self.coords()
        d = div(vec(self.grid, [x1.copy(), x2.copy(), x3.copy()], degree=2))
        assert np.abs(d.values - 3.0).max() < 1e-12

    def test_div_of_curl_vanishes(self):
        x1, x2, x3 = self.coords()
        b = vec(self.grid, [np.sin(x1) * x2, x3 * x1, np.cos(x2) * x3])
        d = div(curl(b))
        assert np.abs(d.values).max() <= 1e-12 / self.grid.h ** 2

    def test_div_constant(self):
        a = vec(self.grid, [np.full((17,) * 3, -1.0)] * 3, degree=2)
        assert np.abs(div(a).values).max() == 0.0

    @pytest.mark.parametrize("op,make", [
        (grad, "scalar"), (curl, "vec"), (div, "vec2")])
    def test_linearity(self, op, make):
        rng = np.random.default_rng(42)
        n = self.grid.n

        def rand():
            if make == "scalar":
                return scalar(self.grid, rng.normal(size=(n, n, n)))
            deg = 1 if make == "vec" else 2
            return VecField(self.grid, deg, rng.normal(size=(n, n, n, 3)))

        fa, fb = rand(), rand()
        al, be = 0.7, -1.3
        combo = type(fa)(self.grid, al * fa.values + be * fb.values) \
            if make == "scalar" else \
            type(fa)(self.grid, fa.degree, al * fa.values + be * fb.values)
        lhs = op(combo).values
        rhs = al * op(fa).values + be * op(fb).values
        scale = max(np.abs(lhs).max(), 1.0)
        assert np.abs(lhs - rhs).max() < 1e-12 * scale

    def test_curl_rejects_degree_two(self):
        a = VecField(self.grid, 2, np.zeros((17, 17, 17, 3)))
        with pytest.raises(ValueError):
            curl(a)


def gradient_partials(values, h):
    """Reference partials tensor [..., j, c] from np.gradient, as the
    field operators computed it before the slice stencil."""
    vals = values if values.ndim == 4 else values[..., None]
    return np.stack([np.stack(np.gradient(vals[..., c], h, edge_order=2),
                              axis=-1) for c in range(vals.shape[-1])],
                    axis=-1)


class TestStencilMatchesNpGradient:
    @pytest.mark.parametrize("n", [3, 4, 5, 9, 33])
    def test_kernel_bit_identical(self, n):
        h = 2.0 / (n - 1)
        rng = np.random.default_rng(n)
        vals = rng.normal(size=(n, n, n, 4)) * np.exp(
            3.0 * rng.normal(size=(n, n, n, 4)))
        for c in range(4):
            strided = vals[..., c]
            ref = np.gradient(strided, h, edge_order=2)
            for f in (strided, np.ascontiguousarray(strided)):
                for axis in range(3):
                    assert np.array_equal(stencil_partial(f, h, axis),
                                          ref[axis])
            out = np.full((n, n, n, 3), np.nan)
            for axis in range(3):
                stencil_partial(strided, h, axis, out=out[..., axis])
            assert np.array_equal(out, np.stack(ref, axis=-1))

    @pytest.mark.parametrize("n", [3, 9, 17])
    def test_operators_bit_identical(self, n):
        grid = make_grid(n)
        h = grid.h
        rng = np.random.default_rng(n + 1)
        f = rng.normal(size=(n, n, n))
        a = rng.normal(size=(n, n, n, 3))
        q = rng.normal(size=(n, n, n, 4))

        g_ref = np.stack(np.gradient(f, h, edge_order=2), axis=-1)
        assert np.array_equal(grad(ScalarField(grid, f)).values, g_ref)

        d = [np.gradient(a[..., c], h, edge_order=2) for c in range(3)]
        curl_ref = np.stack([d[2][1] - d[1][2], d[0][2] - d[2][0],
                             d[1][0] - d[0][1]], axis=-1)
        assert np.array_equal(curl(VecField(grid, 1, a)).values, curl_ref)
        div_ref = sum(d[c][c] for c in range(3))
        assert np.array_equal(div(VecField(grid, 2, a)).values, div_ref)

        for vals in (f, a, q):
            ref = gradient_partials(vals, h)
            assert np.array_equal(component_partials(vals, h), ref)
            assert np.array_equal(energy_density(vals, h),
                                  np.einsum("...jc,...jc->...", ref, ref))

    def test_sum_of_squares_slabs(self):
        # energy_identity_defect, one whole-cube energy_density per map,
        # gives the same bits as the np.gradient tensors
        from hopflift.hopf import energy_identity_defect
        n = 11
        grid = make_grid(n)
        rng = np.random.default_rng(7)
        q = rng.normal(size=(n, n, n, 4))
        q /= np.linalg.norm(q, axis=-1, keepdims=True)
        s = rng.normal(size=(n, n, n, 3))
        s /= np.linalg.norm(s, axis=-1, keepdims=True)
        eta = rng.normal(size=(n, n, n, 3))
        dq = gradient_partials(q, grid.h)
        ds = gradient_partials(s, grid.h)
        want = (np.einsum("...jc,...jc->...", dq, dq)
                - 0.25 * np.einsum("...c,...c->...", eta, eta)
                - 0.25 * np.einsum("...jc,...jc->...", ds, ds))
        got = energy_identity_defect(LiftField(grid, q),
                                     SphereMapField(grid, s),
                                     VecField(grid, 1, eta))
        assert np.array_equal(got.values, want)

    def test_slab_partials_match_whole_cube(self):
        # the row-by-row buffer gives the whole-cube einsum bit for bit,
        # face rows and grids of three rows included
        for n in (3, 4, 11):
            h = 2.0 / (n - 1)
            rng = np.random.default_rng(n)
            for shape in ((n, n, n), (n, n, n, 3), (n, n, n, 4)):
                vals = rng.normal(size=shape)
                d = component_partials(vals, h)
                assert np.array_equal(energy_density(vals, h),
                                      np.einsum("...jc,...jc->...", d, d))

    def test_sum_of_squares_buffer_sized_from_slab(self):
        # a whole 4-channel call holds its n^3 output and a few (n,n,3,4)
        # row buffers, not the stacked tensor of 12 n^3 doubles
        # (measured 136 KB at n=17 and 622 KB at n=33)
        import tracemalloc
        for n in (17, 33):
            h = 2.0 / (n - 1)
            vals = np.random.default_rng(3).normal(size=(n, n, n, 4))
            d = component_partials(vals, h)
            want = np.einsum("...jc,...jc->...", d, d)
            del d
            tracemalloc.start()
            try:
                got = energy_density(vals, h)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.array_equal(got, want)
            assert peak <= 8 * n ** 3 + 4 * (8 * n * n * 3 * 4)


class TestNormsAndInner:
    def test_constant_vector_l2_is_volume(self):
        grid = make_grid(21)
        ones = np.zeros((21, 21, 21, 3))
        ones[..., 0] = 1.0
        a = VecField(grid, 1, ones)
        assert abs(l2_norm(a) ** 2 - 8.0) < 1e-10

    def test_ball_volume_converges(self):
        grid = make_grid(65, 0.0)
        one = ScalarField(grid, np.ones((65, 65, 65)))
        vol = l2_inner(one, one, region="ball")
        exact = 4.0 * np.pi / 3.0
        assert abs(vol - exact) / exact < 0.02

    def test_lp_three_halves_of_constant(self):
        grid = make_grid(15)
        ones = np.zeros((15, 15, 15, 3))
        ones[..., 0] = 1.0
        a = VecField(grid, 1, ones)
        assert abs(lp_norm(a, 1.5) - 8.0 ** (2.0 / 3.0)) < 1e-10
        assert abs(l1_norm(a) - 8.0) < 1e-10

    def test_lp_exponent_not_positive_and_finite(self):
        # the integral of |a|^p is 8 here: a tiny p sends its 1/p root
        # past the largest float, which reads inf; a p of inf or nan is
        # refused as p <= 0 is
        grid = make_grid(9)
        ones = np.zeros((9, 9, 9, 3))
        ones[..., 0] = 1.0
        a = VecField(grid, 1, ones)
        assert lp_norm(a, 1e-300) == np.inf
        for p in (np.inf, np.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="positive and finite"):
                lp_norm(a, p)

    def test_degree_mismatch_rejected(self):
        grid = make_grid(9)
        a = VecField(grid, 1, np.zeros((9, 9, 9, 3)))
        b = VecField(grid, 2, np.zeros((9, 9, 9, 3)))
        with pytest.raises(ValueError):
            l2_inner(a, b)

    def test_grid_mismatch_rejected(self):
        a = ScalarField(make_grid(9), np.zeros((9, 9, 9)))
        b = ScalarField(make_grid(11), np.zeros((11, 11, 11)))
        with pytest.raises(ValueError):
            l2_inner(a, b)

    def test_raw_mask_region(self):
        grid = make_grid(9)
        one = ScalarField(grid, np.ones((9, 9, 9)))
        mask = np.zeros((9, 9, 9), dtype=bool)
        mask[4, 4, 4] = True
        assert l2_inner(one, one, region=mask) == pytest.approx(
            grid.h ** 3, abs=1e-15)
        with pytest.raises(ValueError):
            l2_inner(one, one, region=np.zeros((3, 3, 3), dtype=bool))
        with pytest.raises(ValueError):
            l2_inner(one, one, region="octant")

    @pytest.mark.parametrize("n", [5, 9, 17, 33, 64])
    def test_integrate_matches_masked_copies(self, n):
        # the sum of density[mask] * weights[mask], the masked-copy form,
        # bit for bit, on any memory layout of the density
        grid = make_grid(n)
        rng = np.random.default_rng(n)
        d = rng.normal(size=(n, n, n))
        mask = rng.random((n, n, n)) < 0.3
        layouts = [d, np.asfortranarray(d), d.transpose(2, 0, 1),
                   d[::-1, :, ::-1]]
        for density in layouts:
            for region in ("cube", "ball", mask):
                keep = grid.region_mask(region)
                want = float(np.sum(density[keep]
                                    * grid.node_weights()[keep]))
                assert integrate(grid, density, region) == want

    def test_integration_by_parts_compact_support(self):
        # a vanishing near the boundary turns summation by parts into an
        # exact index shift
        grid = make_grid(25)
        x1, x2, x3 = grid.coords()
        cut = ((np.abs(x1) < 0.6) & (np.abs(x2) < 0.6) & (np.abs(x3) < 0.6))
        bump = np.where(cut, np.cos(np.pi * x1 / 1.2) ** 2
                        * np.cos(np.pi * x2 / 1.2) ** 2
                        * np.cos(np.pi * x3 / 1.2) ** 2, 0.0)
        a = VecField(grid, 2, np.stack([bump, -2.0 * bump, 0.5 * bump], axis=-1))
        rng = np.random.default_rng(3)
        f = ScalarField(grid, rng.normal(size=(25, 25, 25)))
        total = l2_inner(grad(f), VecField(grid, 1, a.values)) + \
            l2_inner(f, div(a))
        scale = l2_norm(f) * l2_norm(a) / grid.h
        assert abs(total) <= 1e-10 * max(scale, 1.0)


class TestMollify:
    grid = make_grid(33)

    def test_constant_fixed(self):
        f = ScalarField(self.grid, np.full((33,) * 3, 2.5))
        out = mollify(f, 4.0 * self.grid.h)
        assert np.abs(out.values - 2.5).max() < 1e-12

    def test_affine_deep_interior(self):
        x1, _, _ = self.grid.coords()
        f = ScalarField(self.grid, x1.copy())
        eps = 4.0 * self.grid.h
        out = mollify(f, eps)
        deep = (np.abs(x1) <= 1.0 - 3.0 * eps)
        x2, x3 = self.grid.coords()[1:]
        deep &= (np.abs(x2) <= 1.0 - 3.0 * eps) & (np.abs(x3) <= 1.0 - 3.0 * eps)
        assert np.abs(out.values - x1)[deep].max() < 1e-10

    def test_copies_outside_region(self):
        rng = np.random.default_rng(0)
        f = ScalarField(self.grid, rng.normal(size=(33,) * 3))
        eps = 4.0 * self.grid.h
        out = mollify(f, eps)
        x1, x2, x3 = self.grid.coords()
        lim = 1.0 - 3.0 * eps
        outside = ~((np.abs(x1) <= lim) & (np.abs(x2) <= lim)
                    & (np.abs(x3) <= lim))
        assert np.array_equal(out.values[outside], f.values[outside])

    def test_width_below_spacing_rejected(self):
        f = ScalarField(self.grid, np.zeros((33,) * 3))
        with pytest.raises(WidthTooSmall):
            mollify(f, self.grid.h / 2.0)

    @pytest.mark.parametrize("kind", ["scalar", "vector"])
    def test_empty_window_builds_no_kernel(self, monkeypatch, kind):
        # 3 eps = 30 exceeds the half-width 1: no node is smoothed, and a
        # kernel of 2*floor(30/h)+1 nodes a side is never built
        from hopflift import fields

        def no_kernel(*args):
            raise AssertionError("kernel built")

        monkeypatch.setattr(fields, "_gaussian_kernel", no_kernel)
        grid = make_grid(17)
        rng = np.random.default_rng(3)
        f = (ScalarField(grid, rng.normal(size=(17,) * 3)) if kind == "scalar"
             else VecField(grid, 1, rng.normal(size=(17,) * 3 + (3,))))
        out = mollify(f, 10.0)
        assert type(out) is type(f)
        assert out.values.tobytes() == f.values.tobytes()
        assert not np.shares_memory(out.values, f.values)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_width_rejected(self, eps):
        f = ScalarField(self.grid, np.zeros((33,) * 3))
        with pytest.raises(WidthTooSmall, match=f"eps={eps} is not a finite"):
            mollify(f, eps)

    def test_max_norm_contraction(self):
        rng = np.random.default_rng(1)
        f = ScalarField(self.grid, rng.normal(size=(33,) * 3))
        out = mollify(f, 3.0 * self.grid.h)
        assert np.abs(out.values).max() <= np.abs(f.values).max() * (1 + 1e-12)

    def test_vector_field_keeps_degree(self):
        a = VecField(self.grid, 2, np.random.default_rng(2).normal(
            size=(33, 33, 33, 3)))
        out = mollify(a, 2.0 * self.grid.h)
        assert out.degree == 2

    def test_components_helper_matches(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(size=(33, 33, 33))
        f = ScalarField(self.grid, vals.copy())
        direct = mollify_components(self.grid, vals, 3.0 * self.grid.h)
        assert np.array_equal(mollify(f, 3.0 * self.grid.h).values, direct)


def box_mask(grid, half_width):
    """Float reference of a centred node box: max_i |x_i| <= half_width."""
    inside = np.abs(grid.axis()) <= half_width
    return (inside[:, None, None] & inside[None, :, None]
            & inside[None, None, :])


def fftconvolve_mollify(grid, values, eps):
    """Reference mollifier: one scipy.signal.fftconvolve per component."""
    from scipy.signal import fftconvolve
    ker = _gaussian_kernel(float(eps), grid.h)
    region = box_mask(grid, 1.0 - 3.0 * eps + 1e-12)
    vals = values if values.ndim == 4 else values[..., None]
    out = vals.copy()
    for c in range(vals.shape[-1]):
        conv = fftconvolve(vals[..., c], ker, mode="same")
        out[..., c] = np.where(region, conv, vals[..., c])
    return out if values.ndim == 4 else out[..., 0]


@pytest.mark.parametrize("width", [1, 2.5, 8])
def test_gaussian_kernel_matches_meshgrid_form(width):
    # the kernel from the lattice sum keeps the bits of the form on
    # three dense meshgrid copies of the offsets
    h = 2.0 / 64
    eps = width * h
    m = int(np.floor(3.0 * eps / h))
    off = np.arange(-m, m + 1) * h
    dx, dy, dz = np.meshgrid(off, off, off, indexing="ij")
    r2 = dx * dx + dy * dy + dz * dz
    ker = np.exp(-0.5 * r2 / (eps * eps))
    ker[r2 > (3.0 * eps) ** 2] = 0.0
    ker /= ker.sum()
    assert np.array_equal(_gaussian_kernel(eps, h), ker)


def test_gaussian_kernel_peak(alloc_peak):
    # the squared radii become the kernel in their own buffer, beside an
    # eighth of it in booleans: 1.16 times the kernel at n=65 and 8h
    h = 2.0 / 64
    k = _gaussian_kernel(8 * h, h).shape[0]
    assert alloc_peak(lambda: _gaussian_kernel(8 * h, h), k) <= 1.3


def smoothing_grid(width):
    """n = 33, but 65 for 8h: at n = 33, 3 * 8h = 1.5 passes the cube's
    half-width and smooths no node, while at n = 65 it smooths a 17^3
    box, the narrowest one the pruned inverse FFT keeps.  5h is the
    widest width that smooths any node at n = 33."""
    grid = make_grid(65 if width == 8 else 33)
    a, b = mollify_box(grid, width * grid.h)
    assert a < b
    return grid


class TestMollifyMatchesFftconvolve:
    @pytest.mark.parametrize("ncomp", [None, 4])
    @pytest.mark.parametrize("width", [8, 5, 4, 2, 1])
    def test_bit_identical(self, width, ncomp):
        grid = smoothing_grid(width)
        n = grid.n
        shape = (n,) * 3 if ncomp is None else (n,) * 3 + (ncomp,)
        vals = np.random.default_rng(width).normal(size=shape)
        eps = width * grid.h
        assert np.array_equal(mollify_components(grid, vals, eps),
                              fftconvolve_mollify(grid, vals, eps))

    @pytest.mark.parametrize("ncomp", [4, 7])
    @pytest.mark.parametrize("width", [8, 5, 2])
    def test_in_place(self, width, ncomp):
        grid = smoothing_grid(width)
        vals = np.random.default_rng(width + ncomp).normal(
            size=(grid.n,) * 3 + (ncomp,))
        eps = width * grid.h
        copied = mollify_components(grid, vals, eps)
        reference = fftconvolve_mollify(grid, vals, eps)
        assert mollify_components(grid, vals, eps, out=vals) is vals
        assert np.array_equal(vals, copied)
        assert np.array_equal(vals, reference)

    @pytest.mark.parametrize("width", [5, 2])
    def test_same_bits_for_any_thread_count(self, width, monkeypatch):
        # every 1-d FFT takes worker_count threads, and pocketfft hands
        # each thread whole 1-d lines, so the thread count moves no bit;
        # 5h is the widest width that smooths any node at n=33
        import scipy.fft
        from hopflift import fields
        monkeypatch.setattr(fields, "_usable_cpus", lambda: 2)
        seen = []

        def spy(name, fft):
            def call(*args, **kwargs):
                seen.append((name, scipy.fft.get_workers()))
                return fft(*args, **kwargs)
            return call

        for name in ("rfft", "fft", "ifft", "irfft"):
            monkeypatch.setattr(scipy.fft, name,
                                spy(name, getattr(scipy.fft, name)))
        grid = make_grid(33)
        vals = np.random.default_rng(width).normal(size=(33,) * 3 + (7,))
        got = []
        for threads in (1, 2):
            monkeypatch.setenv("HOPFLIFT_THREADS", str(threads))
            seen.clear()
            got.append(mollify_components(grid, vals, width * grid.h))
            assert {workers for _, workers in seen} == {threads}
            # the kernel's real transform, then one per channel each way
            assert [name for name, _ in seen].count("rfft") == 8
            assert [name for name, _ in seen].count("irfft") == 7
        assert np.array_equal(got[0], got[1])

    def test_region_is_a_box(self):
        # the smoothing region max_i |x_i| <= 1 - 3 eps is the box [a, b)^3
        # that the pruned inverse keeps; at n=65, 8h keeps 17^3 nodes
        assert mollify_box(make_grid(65), 8 / 32) == (24, 41)
        for n in (9, 33, 65):
            grid = make_grid(n)
            for width in (1, 2, 4, 5, 8, 16):
                eps = width * grid.h
                a, b = mollify_box(grid, eps)
                box = np.zeros((n,) * 3, dtype=bool)
                box[a:b, a:b, a:b] = True
                assert np.array_equal(
                    box, box_mask(grid, 1.0 - 3.0 * eps + 1e-12))

    def test_kernel_wider_than_grid(self):
        from scipy.signal import fftconvolve
        grid = make_grid(9)
        eps = 0.9
        ker = _gaussian_kernel(eps, grid.h)
        assert ker.shape[0] > grid.n
        vals = np.random.default_rng(3).normal(size=(9, 9, 9, 4))
        # the smoothing region is empty here, so compare the "same" slice
        # of the convolution itself as well
        kernel = _kernel_lines(eps, grid.h, grid.n)
        assert np.array_equal(_convolve_same(vals[..., 0], kernel),
                              fftconvolve(vals[..., 0], ker, mode="same"))
        assert np.array_equal(mollify_components(grid, vals, eps),
                              fftconvolve_mollify(grid, vals, eps))


class TestContainers:
    def test_sphere_field_rejects_off_unit(self):
        grid = make_grid(5)
        vals = np.zeros((5, 5, 5, 3))
        vals[..., 0] = 1.0
        vals[0, 0, 0, 0] = 1.0 + 1e-9
        with pytest.raises(NotUnit):
            SphereMapField(grid, vals)

    def test_lift_field_rejects_off_unit(self):
        grid = make_grid(5)
        vals = np.zeros((5, 5, 5, 4))
        vals[..., 1] = 0.5
        with pytest.raises(NotUnit):
            SphereMapField(grid, vals[..., :3])

    def test_unit_check_single_point(self):
        # einsum of one point is a scalar, not an array
        _check_unit(np.array([0.6, 0.8]), "point", 1e-12)
        _check_unit(np.array([0.0, 0.0, 0.0, -1.0]), "point", 1e-12)
        with pytest.raises(NotUnit, match=r"^point: \|value\| off the unit "
                           r"sphere by 1\.000e-01$"):
            _check_unit(np.array([0.0, 1.1]), "point", 1e-12)

    @pytest.mark.parametrize("comps", [3, 4])
    def test_unit_check_grid_values(self, comps):
        v = np.random.default_rng(comps).normal(size=(9, 9, 9, comps))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        before = v.copy()
        _check_unit(v, "field", 1e-12)
        v[4, 5, 6] *= 1.0 + 1e-9
        with pytest.raises(NotUnit, match=r"field: .* by 1\.000e-09"):
            _check_unit(v, "field", 1e-12)
        v[4, 5, 6] = before[4, 5, 6]
        assert np.array_equal(v, before)

    def test_unit_check_threshold(self):
        # |(1 + 2^-20, 0, 0)| = 1 + 2^-20 exactly: a drift equal to tol
        # passes, one just above it does not
        v = np.zeros((5, 5, 5, 3))
        v[..., 0] = 1.0
        v[2, 2, 2, 0] = 1.0 + 2.0 ** -20
        _check_unit(v, "field", 2.0 ** -20)
        with pytest.raises(NotUnit, match=r"by 9\.537e-07$"):
            _check_unit(v, "field", np.nextafter(2.0 ** -20, 0.0))

    def test_shape_checked(self):
        grid = make_grid(5)
        with pytest.raises(ValueError):
            ScalarField(grid, np.zeros((4, 5, 5)))

    def test_nonfinite_rejected(self):
        grid = make_grid(5)
        vals = np.zeros((5, 5, 5))
        vals[2, 2, 2] = np.nan
        with pytest.raises(ValueError):
            ScalarField(grid, vals)

    def test_nonfinite_is_a_precondition_and_a_value_error(self):
        # the CLI exits 2 on a PreconditionError, and library callers
        # that catch ValueError still catch it
        grid = make_grid(5)
        with pytest.raises(NotFinite) as info:
            ScalarField(grid, np.full((5, 5, 5), np.inf))
        assert isinstance(info.value, PreconditionError)
        assert isinstance(info.value, ValueError)
