import os
import subprocess
import sys

import numpy as np
import pytest

import hopflift

from hopflift import hodge, solvers, testmaps
from hopflift.errors import NotConverged
from hopflift.fields import (ScalarField, VecField, curl, grad, l2_inner,
                             l2_norm, make_grid, mollify, mollify_components)
from hopflift.hodge import (GaugeSolveConfig, canonical_gauge,
                            gauge_minimality_check, random_test_functions)
from hopflift.lift import lift


def interior_bump(t, half=0.75):
    """C-infinity bump supported in |t| <= half, identically zero beyond,
    so fields built from it vanish on the one-sided stencil band."""
    s = np.clip(np.abs(t) / half, 0.0, 1.0)
    out = np.zeros_like(t)
    inside = s < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


def manufactured_pair(grid):
    """a0 = curl of a compactly supported potential, so div a0 and the
    normal trace vanish to rounding and a0 is the exact minimizer for
    G = curl a0."""
    x1, x2, x3 = grid.coords()
    psi = interior_bump(x1) * interior_bump(x2) * interior_bump(x3)
    zero = np.zeros_like(psi)
    w_pot = VecField(grid, 1, np.stack([zero, zero, psi], axis=-1))
    a0 = VecField(grid, 1, curl(w_pot).values)
    g_form = curl(a0)
    return a0, g_form


def analytic_pair(grid):
    """Same potential differentiated exactly; the discrete operators see
    it only through sampling, leaving O(h^2) residuals."""
    x1, x2, x3 = grid.coords()
    half = 0.75
    b1, b2, b3 = (interior_bump(t) for t in (x1, x2, x3))
    s2 = np.clip(np.abs(x2) / half, 0.0, 1.0)
    s1 = np.clip(np.abs(x1) / half, 0.0, 1.0)

    def bump_prime(t, s, b):
        out = np.zeros_like(t)
        inside = s < 1.0
        out[inside] = b[inside] * (-2.0 * s[inside] / (1.0 - s[inside] ** 2) ** 2) \
            * np.sign(t[inside]) / half
        return out

    d2 = b1 * bump_prime(x2, s2, b2) * b3
    d1 = bump_prime(x1, s1, b1) * b2 * b3
    a0 = VecField(grid, 1, np.stack([d2, -d1, np.zeros_like(d1)], axis=-1))
    return a0, curl(a0)


class TestCanonicalGauge:
    def test_zero_input(self):
        grid = make_grid(17)
        z = VecField(grid, 2, np.zeros((17, 17, 17, 3)))
        a, rep = canonical_gauge(z)
        assert l2_norm(a) == 0.0
        assert rep.iterations == 0
        assert rep.curl_residual_rel == 0.0
        assert rep.div_norm == 0.0

    @pytest.mark.parametrize("n", [17, 33])
    def test_rounding_noise_gets_zero_field(self, n):
        # the lift family's pullback is rounding noise, not 0.0; it gets
        # the zero field instead of a solve whose relative figures
        # measure noise, and the report says all of G is left over
        from hopflift.pullback import pullback_area_form
        from hopflift.testmaps import gen_lift_family
        grid = make_grid(n)
        _, u, _ = gen_lift_family(grid, np.pi / 4, (1, 0, 0), (0, 1, 0))
        g_form = pullback_area_form(u)
        assert 0.0 < l2_norm(g_form) <= hodge._NOISE_FLOOR
        a, rep = canonical_gauge(g_form)
        assert not a.values.any()
        got = rep.to_dict()
        assert got.pop("curl_residual_rel") == 1.0
        assert set(got.values()) == {0}

    def test_floor_is_the_only_break_in_scaling(self):
        # scaling G by a power of two scales every step of the solve
        # exactly, so the gauge of c G is c times that of G just above
        # the floor, and the zero field just below it
        n = 17
        grid = make_grid(n)
        _, g_form = manufactured_pair(grid)
        a, rep = canonical_gauge(g_form)
        w = grid.node_weights()[..., None]
        g_norm = float(np.sqrt((g_form.values ** 2 * w).sum()))
        k = int(np.ceil(np.log2(hodge._NOISE_FLOOR / g_norm)))
        above = VecField(grid, 2, 2.0 ** k * g_form.values)
        below = VecField(grid, 2, 2.0 ** (k - 1) * g_form.values)
        assert l2_norm(below) < hodge._NOISE_FLOOR < l2_norm(above)
        a_above, rep_above = canonical_gauge(above)
        assert np.array_equal(a_above.values, 2.0 ** k * a.values)
        assert rep_above.iterations == rep.iterations > 0
        assert rep_above.curl_residual_rel == rep.curl_residual_rel
        a_below, rep_below = canonical_gauge(below)
        assert not a_below.values.any()
        assert rep_below.iterations == 0
        assert rep_below.curl_residual_rel == 1.0

    def test_bump_input_is_solved_as_before(self):
        # the floor leaves real data to CG: the field is the solver's
        # own solution, bit for bit
        n = 17
        _, g_form = manufactured_pair(make_grid(n))
        a, rep = canonical_gauge(g_form)
        rhs = solvers.block_adjoint(solvers.CURL, g_form.values).ravel()
        mat, stencil = hodge._normal_matrix(n)
        x, iters, _, _ = solvers.conjugate_gradient(
            mat, rhs, 1e-8, 20 * n, stencil)
        assert rep.iterations == iters > 0
        assert np.array_equal(
            a.values, np.moveaxis(x.reshape(3, n, n, n), 0, -1))

    def test_manufactured_recovery(self):
        grid = make_grid(33)
        a0, g_form = manufactured_pair(grid)
        a, rep = canonical_gauge(g_form)
        diff = VecField(grid, 1, a.values - a0.values)
        assert l2_norm(diff) / l2_norm(a0) <= 1e-3
        assert rep.curl_residual_rel <= 1e-6

    def test_orthogonality_to_gradients(self):
        grid = make_grid(33)
        _, g_form = manufactured_pair(grid)
        a, rep = canonical_gauge(g_form)
        na = l2_norm(a)
        for psi in random_test_functions(grid, 20, seed=100):
            gpsi = grad(ScalarField(grid, psi))
            rel = abs(l2_inner(a, gpsi)) / (na * l2_norm(gpsi))
            assert rel <= 1e-6
        assert rep.weak_trace_defect <= 1e-6

    def test_minimality(self):
        grid = make_grid(33)
        _, g_form = manufactured_pair(grid)
        a, _ = canonical_gauge(g_form)
        assert gauge_minimality_check(a) <= 1e-6

    def test_minimality_inversion(self):
        # adding a gradient hands the check an improvement to find
        grid = make_grid(17)
        _, g_form = manufactured_pair(grid)
        a, _ = canonical_gauge(g_form)
        x1, x2, _ = grid.coords()
        shifted = VecField(
            grid, 1, a.values + grad(ScalarField(grid, x1 * x2)).values)
        assert gauge_minimality_check(shifted) > 1e-4

    def test_linearity(self):
        grid = make_grid(17)
        rng = np.random.default_rng(21)
        x1, x2, x3 = grid.coords()
        bump = interior_bump(x1) * interior_bump(x2) * interior_bump(x3)
        w1 = VecField(grid, 1, np.stack(
            [bump, np.zeros_like(bump), np.zeros_like(bump)], axis=-1))
        w2 = VecField(grid, 1, np.stack(
            [np.zeros_like(bump), bump * x3, np.zeros_like(bump)], axis=-1))
        g1 = curl(VecField(grid, 1, curl(w1).values))
        g2 = curl(VecField(grid, 1, curl(w2).values))
        al, be = 0.6, -1.7
        combo = VecField(grid, 2, al * g1.values + be * g2.values)
        a1, _ = canonical_gauge(g1)
        a2, _ = canonical_gauge(g2)
        ac, _ = canonical_gauge(combo)
        diff = VecField(grid, 1, ac.values - al * a1.values - be * a2.values)
        scale = max(l2_norm(a1), l2_norm(a2), 1e-12)
        assert l2_norm(diff) / scale <= 1e-5

    def test_truncation_residual_shrinks_with_resolution(self):
        # with exactly sampled analytic data the attainable curl residual
        # is the discretization error, which falls at second order
        residuals = []
        for n in (17, 33, 49):
            grid = make_grid(n)
            _, g_form = analytic_pair(grid)
            _, rep = canonical_gauge(g_form)
            residuals.append(rep.curl_residual_rel)
        assert residuals[0] > residuals[1] > residuals[2]

    def test_obstructed_input_keeps_large_residual(self):
        # a point-source field is not a curl; the solver must not fake it
        from hopflift.pullback import pullback_area_form
        from hopflift import testmaps
        grid = make_grid(25)
        g_form = pullback_area_form(testmaps.gen_hedgehog(grid))
        try:
            _, rep = canonical_gauge(g_form)
            residual = rep.curl_residual_rel
        except NotConverged as exc:
            residual = exc.result[1].curl_residual_rel
        assert residual > 0.5

    @pytest.mark.parametrize("cfg", [
        GaugeSolveConfig(rel_tol=2.0), GaugeSolveConfig(rel_tol=0.0),
        GaugeSolveConfig(rel_tol=float("nan")),
        GaugeSolveConfig(max_iters=0), GaugeSolveConfig(max_iters=-5)])
    def test_bad_solver_configuration_rejected(self, cfg):
        grid = make_grid(9)
        _, g_form = manufactured_pair(grid)
        with pytest.raises(ValueError, match="bad solver configuration"):
            cfg.resolved(grid)
        with pytest.raises(ValueError, match="bad solver configuration"):
            canonical_gauge(g_form, cfg)

    def test_iteration_budget_raises_with_partial_result(self):
        grid = make_grid(17)
        _, g_form = manufactured_pair(grid)
        with pytest.raises(NotConverged) as info:
            canonical_gauge(g_form, GaugeSolveConfig(max_iters=3))
        a, rep = info.value.result
        assert rep.iterations == 3
        assert l2_norm(a) > 0.0

    def test_l32_ratio_reported(self):
        grid = make_grid(17)
        _, g_form = manufactured_pair(grid)
        _, rep = canonical_gauge(g_form)
        assert np.isfinite(rep.l32_l1_ratio)
        assert rep.l32_l1_ratio >= 0.0


def clear_gauge_caches():
    hodge._normal_matrix.cache_clear()


def package_caches():
    """{"module.name": function} for every lru_cache of hopflift, named
    where it is defined."""
    return {f"{fn.__module__}.{fn.__qualname__}": fn
            for mod_name, mod in list(sys.modules.items())
            if mod_name.startswith("hopflift.")
            for fn in vars(mod).values() if hasattr(fn, "cache_info")}


class TestGaugeCaches:
    """The normal matrix is built once per n; a warm call must reproduce
    a cold one bit for bit."""

    def test_warm_calls_match_cold_call(self):
        grid = make_grid(33)
        _, g_form = manufactured_pair(grid)
        clear_gauge_caches()
        a_cold, rep_cold = canonical_gauge(g_form)
        a_warm, rep_warm = canonical_gauge(g_form)
        clear_gauge_caches()
        a_again, rep_again = canonical_gauge(g_form)
        assert np.array_equal(a_warm.values, a_cold.values)
        assert np.array_equal(a_again.values, a_cold.values)
        assert rep_warm == rep_cold == rep_again

    def test_cached_arrays_are_read_only(self):
        # frozen where they are built: the cached gauge operator and a
        # fresh phase operator alike
        for mat, stencil in (hodge._normal_matrix(9),
                             solvers.phase_normal_matrix(9)):
            for arr in (mat.data, mat.indices, mat.indptr, stencil.offsets,
                        stencil.values):
                with pytest.raises(ValueError):
                    arr.flat[0] = 1

    def test_cache_keyed_on_n(self):
        clear_gauge_caches()
        m9 = hodge._normal_matrix(9)
        ref, ref_stencil = solvers.gauge_normal_matrix(9)
        mat, stencil = m9
        for got, want in ((mat.data, ref.data), (mat.indices, ref.indices),
                          (mat.indptr, ref.indptr),
                          (stencil.offsets, ref_stencil.offsets),
                          (stencil.values, ref_stencil.values)):
            assert np.array_equal(got, want)
        assert (stencil.n, stencil.blocks) == (9, 3)
        m5 = hodge._normal_matrix(5)
        # no node of an n=5 grid is 3 from every face: all shell, and a
        # stencil with no offsets
        assert m5[0].shape == (3 * 5 ** 3,) * 2
        assert (m5[1].n, m5[1].blocks, m5[1].offsets.size) == (5, 3, 0)
        assert hodge._normal_matrix(9) is m9
        assert hodge._normal_matrix(5) is m5

    def test_only_grid_caches_stay_filled(self):
        # what stays between calls: the 1-d axis, the node weights and the
        # gauge's normal matrix; no coordinate, radius, trial, kernel,
        # kernel spectrum or Kronecker cache
        grid = make_grid(17)
        _, u, eta = testmaps.gen_lift_family(grid, 0.8, (1.0, 0.5, 0.0),
                                             (0.0, 1.0, 0.3))
        _, g_form = manufactured_pair(grid)
        for fn in package_caches().values():
            fn.cache_clear()
        lift(u, eta)
        a, _ = canonical_gauge(g_form)
        gauge_minimality_check(a)
        mollify(a, 2.0 * grid.h)
        filled = {name for name, fn in package_caches().items()
                  if fn.cache_info().currsize}
        assert filled == {"hopflift.fields._axis",
                          "hopflift.fields._node_weights",
                          "hopflift.hodge._normal_matrix"}

    def test_mollify_keeps_no_spectrum(self):
        # the kernel spectrum lives for one call: two calls at one width
        # fill no cache but the grid's axis, and give the same bits
        grid = make_grid(17)
        vals = np.random.default_rng(5).normal(size=(17, 17, 17, 4))
        for fn in package_caches().values():
            fn.cache_clear()
        first = mollify_components(grid, vals, 2.0 * grid.h)
        second = mollify_components(grid, vals, 2.0 * grid.h)
        filled = {name for name, fn in package_caches().items()
                  if fn.cache_info().currsize}
        assert filled == {"hopflift.fields._axis"}
        assert np.array_equal(first, second)

    def test_checks_match_uncached_loops(self):
        # the loops as they read when every gradient was formed: the
        # pairings by parts and the closed-form norms round differently,
        # so the checks agree to rounding, the weak defect being relative
        grid = make_grid(17)
        _, g_form = manufactured_pair(grid)
        a, _ = canonical_gauge(g_form)
        x1, x2, _ = grid.coords()
        shifted = VecField(
            grid, 1, a.values + grad(ScalarField(grid, x1 * x2)).values)
        for field in (a, shifted):
            na = l2_norm(field)
            weak, minimal = 0.0, -np.inf
            for psi in random_test_functions(grid, 20, 2024):
                gpsi = grad(ScalarField(grid, psi))
                weak = max(weak, abs(l2_inner(field, gpsi))
                           / (na * l2_norm(gpsi)))
            for psi in random_test_functions(grid, 20, 7):
                gpsi = grad(ScalarField(grid, psi))
                ng_sq = l2_inner(gpsi, gpsi)
                if ng_sq == 0.0:
                    continue
                pairing = l2_inner(field, gpsi)
                best_sq = max(na * na - pairing * pairing / ng_sq, 0.0)
                minimal = max(minimal, na - np.sqrt(best_sq))
            assert abs(hodge._weak_trace_defect(field) - weak) <= 1e-14
            assert (abs(gauge_minimality_check(field) - float(minimal))
                    <= 1e-12 * na)


@pytest.mark.parametrize("n", [3, 4, 9, 33])
def test_pairing_by_parts(n):
    # summation by parts: <a, G psi>_W = psi . (G^T W a)
    grid = make_grid(n)
    rng = np.random.default_rng(n)
    a = VecField(grid, 1, rng.normal(size=(n, n, n, 3)))
    psi = rng.normal(size=(n, n, n))
    gpsi = grad(ScalarField(grid, psi))
    by_parts = np.einsum(
        "i,i->", psi.ravel(),
        solvers.block_adjoint(solvers.GRAD, a.values)[0].ravel())
    direct = l2_inner(a, gpsi)
    assert abs(by_parts - direct) <= 1e-13 * l2_norm(a) * l2_norm(gpsi)


@pytest.mark.parametrize("n", [3, 4, 9, 33])
def test_separable_pairing_matches_dense(n):
    # the pairing contracted axis by axis equals psi . (G^T W a) with
    # every psi formed on the grid
    grid = make_grid(n)
    a = np.random.default_rng(n).normal(size=(n, n, n, 3))
    s = solvers.block_adjoint(solvers.GRAD, a)[0]
    got = hodge._separable_pairings(s, grid.axis(),
                                    hodge._trial_draws(20, 2024))
    psis = random_test_functions(grid, 20, 2024)
    assert len(got) == len(psis)
    for pairing, psi in zip(got, psis):
        dense = np.einsum("i,i->", psi.ravel(), s.ravel())
        bound = 1e-13 * np.linalg.norm(psi) * np.linalg.norm(s)
        assert abs(pairing - dense) <= bound


@pytest.mark.parametrize("n", [3, 4, 9, 33])
def test_separable_norms_match_dense(n):
    # the closed-form ||grad psi||^2 equals the weighted norm of the
    # gradient of every psi formed on the grid
    grid = make_grid(n)
    got = hodge._gradient_norms(grid.axis(), hodge._trial_draws(20, 2024))
    psis = random_test_functions(grid, 20, 2024)
    assert len(got) == len(psis)
    for ng_sq, psi in zip(got, psis):
        gpsi = grad(ScalarField(grid, psi))
        dense = l2_inner(gpsi, gpsi)
        assert abs(ng_sq - dense) <= 1e-13 * dense


def test_checks_independent_of_blas_threads(tmp_path):
    # the pairings' and the norms' contractions run in numpy's own
    # einsum loops, not in BLAS
    grid = make_grid(33)
    _, g_form = manufactured_pair(grid)
    a, _ = canonical_gauge(g_form)
    x1, x2, _ = grid.coords()
    shifted = a.values + grad(ScalarField(grid, x1 * x2)).values
    np.save(tmp_path / "a.npy", a.values)
    np.save(tmp_path / "shifted.npy", shifted)
    code = (
        "import sys, numpy as np\n"
        "from hopflift import hodge\n"
        "from hopflift.fields import VecField, make_grid\n"
        "grid = make_grid(33)\n"
        "for name in ('a', 'shifted'):\n"
        "    f = VecField(grid, 1, np.load(sys.argv[1] + f'/{name}.npy'))\n"
        "    print(repr(hodge._weak_trace_defect(f)),\n"
        "          repr(hodge.gauge_minimality_check(f)))\n")
    src = os.path.dirname(os.path.dirname(hopflift.__file__))
    outputs = set()
    for blas in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                              env=env, capture_output=True, text=True,
                              timeout=600)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


class TestGaugeMemory:
    def test_peak_allocation_bounded(self):
        # the normal matrix is assembled straight into CSR arrays: no
        # Kronecker factors and no sparse-product temporaries; the peak is
        # the matrix and the CG vectors, and no trial psi is formed
        # (measured 63.5 n^3)
        import tracemalloc
        import scipy.sparse  # noqa: F401  (imports are not the gauge's)
        from scipy.sparse import _sparsetools  # noqa: F401
        from hopflift import fields, solvers
        n = 33
        _, g_form = manufactured_pair(make_grid(n))
        for mod in (fields, solvers, hodge):
            for fn in vars(mod).values():
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()
        tracemalloc.start()
        try:
            a, _ = canonical_gauge(g_form)
            del a
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 72 * 8 * n ** 3
